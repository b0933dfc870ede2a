#include "pysrc/scope.h"

#include "util/error.h"

namespace lfm::pysrc {
namespace {

// Collect every name a target expression binds (assignment LHS, for-target,
// with-target: plain names, tuples/lists of names, starred names).
void collect_bound_targets(const Expr& target, std::set<std::string>& bound) {
  switch (target.kind) {
    case ExprKind::kName:
      bound.insert(static_cast<const NameExpr&>(target).id);
      break;
    case ExprKind::kTuple:
    case ExprKind::kList:
      for (const auto& elt : static_cast<const SequenceExpr&>(target).elts) {
        collect_bound_targets(*elt, bound);
      }
      break;
    case ExprKind::kStarred:
      collect_bound_targets(*static_cast<const StarredExpr&>(target).value, bound);
      break;
    default:
      // Attribute/subscript targets (obj.x = ..., d[k] = ...) bind nothing new.
      break;
  }
}

class ScopeWalker {
 public:
  explicit ScopeWalker(ScopeReport& report) : report_(report) {}

  void walk_body(const std::vector<StmtPtr>& body) {
    for (const auto& stmt : body) walk_stmt(*stmt);
  }

 private:
  void reference_expr(const Expr* e) {
    if (e == nullptr) return;
    walk_expressions(*e, [this](const Expr& sub) {
      if (sub.kind == ExprKind::kName) {
        report_.referenced.insert(static_cast<const NameExpr&>(sub).id);
      }
      if (sub.kind == ExprKind::kLambda) {
        // Lambda parameters bind within the lambda only; a precise treatment
        // would need nested scopes. Conservatively mark them bound so they
        // do not surface as free names.
        for (const auto& p : static_cast<const LambdaExpr&>(sub).params) {
          report_.bound.insert(p);
        }
      }
      if (sub.kind == ExprKind::kComprehension) {
        for (const auto& clause : static_cast<const ComprehensionExpr&>(sub).clauses) {
          if (clause.target) collect_bound_targets(*clause.target, report_.bound);
        }
      }
    });
  }

  void walk_stmt(const Stmt& stmt) {  // NOLINT(misc-no-recursion)
    switch (stmt.kind) {
      case StmtKind::kExpr:
        reference_expr(static_cast<const ExprStmt&>(stmt).value.get());
        break;
      case StmtKind::kAssign: {
        const auto& n = static_cast<const AssignStmt&>(stmt);
        reference_expr(n.value.get());
        for (const auto& target : n.targets) {
          collect_bound_targets(*target, report_.bound);
          // Subscript/attribute targets still *read* their base object.
          if (target->kind != ExprKind::kName) reference_expr(target.get());
        }
        break;
      }
      case StmtKind::kAugAssign: {
        const auto& n = static_cast<const AugAssignStmt&>(stmt);
        reference_expr(n.value.get());
        reference_expr(n.target.get());  // augmented targets are read first
        collect_bound_targets(*n.target, report_.bound);
        break;
      }
      case StmtKind::kAnnAssign: {
        const auto& n = static_cast<const AnnAssignStmt&>(stmt);
        reference_expr(n.annotation.get());
        reference_expr(n.value.get());
        collect_bound_targets(*n.target, report_.bound);
        break;
      }
      case StmtKind::kReturn:
        reference_expr(static_cast<const ReturnStmt&>(stmt).value.get());
        break;
      case StmtKind::kImport:
        for (const auto& alias : static_cast<const ImportStmt&>(stmt).names) {
          const std::string& visible =
              alias.asname.empty() ? alias.name : alias.asname;
          // `import a.b` binds `a`.
          const size_t dot = visible.find('.');
          report_.bound.insert(dot == std::string::npos ? visible
                                                        : visible.substr(0, dot));
        }
        break;
      case StmtKind::kImportFrom:
        for (const auto& alias : static_cast<const ImportFromStmt&>(stmt).names) {
          report_.bound.insert(alias.asname.empty() ? alias.name : alias.asname);
        }
        break;
      case StmtKind::kIf: {
        const auto& n = static_cast<const IfStmt&>(stmt);
        reference_expr(n.cond.get());
        walk_body(n.body);
        walk_body(n.orelse);
        break;
      }
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForStmt&>(stmt);
        reference_expr(n.iter.get());
        collect_bound_targets(*n.target, report_.bound);
        walk_body(n.body);
        walk_body(n.orelse);
        break;
      }
      case StmtKind::kWhile: {
        const auto& n = static_cast<const WhileStmt&>(stmt);
        reference_expr(n.cond.get());
        walk_body(n.body);
        walk_body(n.orelse);
        break;
      }
      case StmtKind::kTry: {
        const auto& n = static_cast<const TryStmt&>(stmt);
        walk_body(n.body);
        for (const auto& handler : n.handlers) {
          reference_expr(handler.type.get());
          if (!handler.name.empty()) report_.bound.insert(handler.name);
          walk_body(handler.body);
        }
        walk_body(n.orelse);
        walk_body(n.finally);
        break;
      }
      case StmtKind::kWith: {
        const auto& n = static_cast<const WithStmt&>(stmt);
        for (const auto& item : n.items) {
          reference_expr(item.context.get());
          if (item.target) collect_bound_targets(*item.target, report_.bound);
        }
        walk_body(n.body);
        break;
      }
      case StmtKind::kFunctionDef: {
        const auto& n = static_cast<const FunctionDefStmt&>(stmt);
        report_.bound.insert(n.name);
        for (const auto& dec : n.decorators) reference_expr(dec.get());
        for (const auto& p : n.params) reference_expr(p.default_val.get());
        // The nested body has its own scope; treat its params as bound
        // there and do not descend (conservative for free-name purposes:
        // names free in the nested fn are also needed remotely).
        ScopeReport nested;
        ScopeWalker walker(nested);
        for (const auto& p : n.params) nested.bound.insert(p.name);
        walker.walk_body(n.body);
        const auto nested_free = nested.free_names(default_builtins());
        report_.referenced.insert(nested_free.begin(), nested_free.end());
        break;
      }
      case StmtKind::kClassDef: {
        const auto& n = static_cast<const ClassDefStmt&>(stmt);
        report_.bound.insert(n.name);
        for (const auto& base : n.bases) reference_expr(base.get());
        walk_body(n.body);
        break;
      }
      case StmtKind::kRaise: {
        const auto& n = static_cast<const RaiseStmt&>(stmt);
        reference_expr(n.exc.get());
        reference_expr(n.cause.get());
        break;
      }
      case StmtKind::kAssert: {
        const auto& n = static_cast<const AssertStmt&>(stmt);
        reference_expr(n.test.get());
        reference_expr(n.message.get());
        break;
      }
      case StmtKind::kGlobal:
        for (const auto& name : static_cast<const ScopeDeclStmt&>(stmt).names) {
          report_.globals_declared.insert(name);
        }
        break;
      case StmtKind::kDelete:
        for (const auto& target : static_cast<const DeleteStmt&>(stmt).targets) {
          reference_expr(target.get());
        }
        break;
      default:
        break;
    }
  }

  ScopeReport& report_;
};

}  // namespace

std::set<std::string> ScopeReport::free_names(
    const std::set<std::string>& builtins) const {
  std::set<std::string> out;
  for (const auto& name : referenced) {
    if (bound.count(name) == 0 && builtins.count(name) == 0) out.insert(name);
  }
  // Declared globals are free by definition.
  for (const auto& name : globals_declared) out.insert(name);
  return out;
}

ScopeReport analyze_scope(const FunctionDefStmt& fn) {
  ScopeReport report;
  for (const auto& p : fn.params) report.bound.insert(p.name);
  ScopeWalker(report).walk_body(fn.body);
  return report;
}

ScopeReport analyze_function_scope(const Module& module,
                                   const std::string& function_name) {
  const FunctionDefStmt* fn = find_function(module.body, function_name);
  if (fn == nullptr) throw Error("analyze_function_scope: no function '" +
                                 function_name + "'");
  return analyze_scope(*fn);
}

const std::set<std::string>& default_builtins() {
  static const std::set<std::string> kBuiltins = {
      "abs",       "all",      "any",     "bool",      "bytes",    "callable",
      "chr",       "dict",     "dir",     "divmod",    "enumerate", "filter",
      "float",     "format",   "frozenset", "getattr", "hasattr",  "hash",
      "hex",       "id",       "input",   "int",       "isinstance", "issubclass",
      "iter",      "len",      "list",    "map",       "max",      "min",
      "next",      "object",   "oct",     "open",      "ord",      "pow",
      "print",     "range",    "repr",    "reversed",  "round",    "set",
      "setattr",   "slice",    "sorted",  "str",       "sum",      "super",
      "tuple",     "type",     "vars",    "zip",       "None",     "True",
      "False",     "Exception", "ValueError", "TypeError", "KeyError",
      "IndexError", "RuntimeError", "StopIteration", "ImportError",
      "FileNotFoundError", "NotImplementedError", "ArithmeticError",
      "ZeroDivisionError", "OverflowError", "AttributeError", "OSError",
      "self",  // method receiver, bound by convention
  };
  return kBuiltins;
}

bool is_self_contained(const Module& module, const std::string& function_name,
                       std::set<std::string>* offenders) {
  const ScopeReport report = analyze_function_scope(module, function_name);
  const auto free = report.free_names(default_builtins());
  if (offenders != nullptr) *offenders = free;
  return free.empty();
}

}  // namespace lfm::pysrc
