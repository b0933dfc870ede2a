#include "pysrc/ast.h"

#include <iterator>
#include <ostream>

namespace lfm::pysrc {

std::string_view op_text(Op op) {
  // In the order of `Op`.
  static constexpr std::string_view kText[] = {
      "+", "-", "*", "@", "/", "//", "%", "**", "<<", ">>", "&", "|", "^", ":=",
      "+=", "-=", "*=", "@=", "/=", "//=", "%=", "**=", "<<=", ">>=", "&=", "|=",
      "^=",
      "not", "-", "+", "~",
      "and", "or",
      "==", "!=", "<", "<=", ">", ">=", "in", "not in", "is", "is not"};
  static_assert(std::size(kText) == static_cast<size_t>(Op::kIsNot) + 1);
  return kText[static_cast<size_t>(op)];
}

std::ostream& operator<<(std::ostream& os, Op op) { return os << op_text(op); }

Builtin builtin_named(std::string_view name) {
  static constexpr std::pair<std::string_view, Builtin> kBuiltins[] = {
      {"len", Builtin::kLen},       {"range", Builtin::kRange},
      {"print", Builtin::kPrint},   {"abs", Builtin::kAbs},
      {"min", Builtin::kMin},       {"max", Builtin::kMax},
      {"sum", Builtin::kSum},       {"sorted", Builtin::kSorted},
      {"str", Builtin::kStr},       {"repr", Builtin::kRepr},
      {"int", Builtin::kInt},       {"float", Builtin::kFloat},
      {"bool", Builtin::kBool},     {"list", Builtin::kList},
      {"dict", Builtin::kDict},     {"enumerate", Builtin::kEnumerate},
      {"zip", Builtin::kZip},       {"round", Builtin::kRound},
      {"any", Builtin::kAny},       {"all", Builtin::kAll},
      {"isinstance", Builtin::kIsinstance}};
  for (const auto& [spelling, builtin] : kBuiltins) {
    if (spelling == name) return builtin;
  }
  return Builtin::kNone;
}

Method method_named(std::string_view name) {
  static constexpr std::pair<std::string_view, Method> kMethods[] = {
      {"append", Method::kAppend},     {"extend", Method::kExtend},
      {"insert", Method::kInsert},     {"pop", Method::kPop},
      {"remove", Method::kRemove},     {"index", Method::kIndex},
      {"count", Method::kCount},       {"sort", Method::kSort},
      {"reverse", Method::kReverse},   {"get", Method::kGet},
      {"keys", Method::kKeys},         {"values", Method::kValues},
      {"items", Method::kItems},       {"update", Method::kUpdate},
      {"setdefault", Method::kSetdefault}, {"split", Method::kSplit},
      {"join", Method::kJoin},         {"upper", Method::kUpper},
      {"lower", Method::kLower},       {"strip", Method::kStrip},
      {"startswith", Method::kStartswith}, {"endswith", Method::kEndswith},
      {"replace", Method::kReplace},   {"find", Method::kFind},
      {"isdigit", Method::kIsdigit}};
  for (const auto& [spelling, method] : kMethods) {
    if (spelling == name) return method;
  }
  return Method::kNone;
}

namespace {

void walk_expr(const Expr* e, const std::function<void(const Expr&)>& fn);

void walk_expr_opt(const ExprPtr& e, const std::function<void(const Expr&)>& fn) {
  if (e) walk_expr(e.get(), fn);
}

void walk_expr(const Expr* e, const std::function<void(const Expr&)>& fn) {
  fn(*e);
  switch (e->kind) {
    case ExprKind::kName:
    case ExprKind::kConstant:
      break;
    case ExprKind::kAttribute:
      walk_expr_opt(static_cast<const AttributeExpr*>(e)->value, fn);
      break;
    case ExprKind::kCall: {
      const auto* c = static_cast<const CallExpr*>(e);
      walk_expr_opt(c->func, fn);
      for (const auto& a : c->args) walk_expr_opt(a, fn);
      for (const auto& k : c->keywords) walk_expr_opt(k.value, fn);
      break;
    }
    case ExprKind::kBinOp: {
      const auto* b = static_cast<const BinOpExpr*>(e);
      walk_expr_opt(b->lhs, fn);
      walk_expr_opt(b->rhs, fn);
      break;
    }
    case ExprKind::kUnaryOp:
      walk_expr_opt(static_cast<const UnaryOpExpr*>(e)->operand, fn);
      break;
    case ExprKind::kBoolOp:
      for (const auto& v : static_cast<const BoolOpExpr*>(e)->values) walk_expr_opt(v, fn);
      break;
    case ExprKind::kCompare: {
      const auto* c = static_cast<const CompareExpr*>(e);
      walk_expr_opt(c->lhs, fn);
      for (const auto& [op, v] : c->rest) walk_expr_opt(v, fn);
      break;
    }
    case ExprKind::kSubscript: {
      const auto* s = static_cast<const SubscriptExpr*>(e);
      walk_expr_opt(s->value, fn);
      walk_expr_opt(s->index, fn);
      break;
    }
    case ExprKind::kTuple:
    case ExprKind::kList:
    case ExprKind::kSet:
      for (const auto& v : static_cast<const SequenceExpr*>(e)->elts) walk_expr_opt(v, fn);
      break;
    case ExprKind::kDict:
      for (const auto& [k, v] : static_cast<const DictExpr*>(e)->items) {
        walk_expr_opt(k, fn);
        walk_expr_opt(v, fn);
      }
      break;
    case ExprKind::kLambda:
      walk_expr_opt(static_cast<const LambdaExpr*>(e)->body, fn);
      break;
    case ExprKind::kConditional: {
      const auto* c = static_cast<const ConditionalExpr*>(e);
      walk_expr_opt(c->body, fn);
      walk_expr_opt(c->cond, fn);
      walk_expr_opt(c->orelse, fn);
      break;
    }
    case ExprKind::kStarred:
      walk_expr_opt(static_cast<const StarredExpr*>(e)->value, fn);
      break;
    case ExprKind::kSlice: {
      const auto* s = static_cast<const SliceExpr*>(e);
      walk_expr_opt(s->lower, fn);
      walk_expr_opt(s->upper, fn);
      walk_expr_opt(s->step, fn);
      break;
    }
    case ExprKind::kComprehension: {
      const auto* c = static_cast<const ComprehensionExpr*>(e);
      walk_expr_opt(c->element, fn);
      walk_expr_opt(c->value, fn);
      for (const auto& clause : c->clauses) {
        walk_expr_opt(clause.target, fn);
        walk_expr_opt(clause.iter, fn);
        for (const auto& cond : clause.conditions) walk_expr_opt(cond, fn);
      }
      break;
    }
    case ExprKind::kAwait:
      walk_expr_opt(static_cast<const AwaitExpr*>(e)->value, fn);
      break;
    case ExprKind::kYield:
      walk_expr_opt(static_cast<const YieldExpr*>(e)->value, fn);
      break;
  }
}

void walk_stmt(const Stmt& s, const std::function<void(const Stmt&)>& fn) {
  fn(s);
  switch (s.kind) {
    case StmtKind::kIf: {
      const auto& n = static_cast<const IfStmt&>(s);
      walk_statements(n.body, fn);
      walk_statements(n.orelse, fn);
      break;
    }
    case StmtKind::kFor: {
      const auto& n = static_cast<const ForStmt&>(s);
      walk_statements(n.body, fn);
      walk_statements(n.orelse, fn);
      break;
    }
    case StmtKind::kWhile: {
      const auto& n = static_cast<const WhileStmt&>(s);
      walk_statements(n.body, fn);
      walk_statements(n.orelse, fn);
      break;
    }
    case StmtKind::kTry: {
      const auto& n = static_cast<const TryStmt&>(s);
      walk_statements(n.body, fn);
      for (const auto& h : n.handlers) walk_statements(h.body, fn);
      walk_statements(n.orelse, fn);
      walk_statements(n.finally, fn);
      break;
    }
    case StmtKind::kWith:
      walk_statements(static_cast<const WithStmt&>(s).body, fn);
      break;
    case StmtKind::kFunctionDef:
      walk_statements(static_cast<const FunctionDefStmt&>(s).body, fn);
      break;
    case StmtKind::kClassDef:
      walk_statements(static_cast<const ClassDefStmt&>(s).body, fn);
      break;
    default:
      break;
  }
}

// Visit every expression directly referenced by one statement (not nested
// statements; walk_statements handles recursion into bodies).
void stmt_expressions(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  const auto visit = [&fn](const ExprPtr& e) {
    if (e) walk_expr(e.get(), fn);
  };
  switch (s.kind) {
    case StmtKind::kExpr:
      visit(static_cast<const ExprStmt&>(s).value);
      break;
    case StmtKind::kAssign: {
      const auto& n = static_cast<const AssignStmt&>(s);
      for (const auto& t : n.targets) visit(t);
      visit(n.value);
      break;
    }
    case StmtKind::kAugAssign: {
      const auto& n = static_cast<const AugAssignStmt&>(s);
      visit(n.target);
      visit(n.value);
      break;
    }
    case StmtKind::kAnnAssign: {
      const auto& n = static_cast<const AnnAssignStmt&>(s);
      visit(n.target);
      visit(n.annotation);
      visit(n.value);
      break;
    }
    case StmtKind::kReturn:
      visit(static_cast<const ReturnStmt&>(s).value);
      break;
    case StmtKind::kIf:
      visit(static_cast<const IfStmt&>(s).cond);
      break;
    case StmtKind::kFor: {
      const auto& n = static_cast<const ForStmt&>(s);
      visit(n.target);
      visit(n.iter);
      break;
    }
    case StmtKind::kWhile:
      visit(static_cast<const WhileStmt&>(s).cond);
      break;
    case StmtKind::kTry:
      for (const auto& h : static_cast<const TryStmt&>(s).handlers) visit(h.type);
      break;
    case StmtKind::kWith:
      for (const auto& item : static_cast<const WithStmt&>(s).items) {
        visit(item.context);
        visit(item.target);
      }
      break;
    case StmtKind::kFunctionDef: {
      const auto& n = static_cast<const FunctionDefStmt&>(s);
      for (const auto& d : n.decorators) visit(d);
      for (const auto& p : n.params) {
        visit(p.annotation);
        visit(p.default_val);
      }
      visit(n.returns);
      break;
    }
    case StmtKind::kClassDef: {
      const auto& n = static_cast<const ClassDefStmt&>(s);
      for (const auto& d : n.decorators) visit(d);
      for (const auto& b : n.bases) visit(b);
      for (const auto& k : n.keywords) visit(k.value);
      break;
    }
    case StmtKind::kRaise: {
      const auto& n = static_cast<const RaiseStmt&>(s);
      visit(n.exc);
      visit(n.cause);
      break;
    }
    case StmtKind::kAssert: {
      const auto& n = static_cast<const AssertStmt&>(s);
      visit(n.test);
      visit(n.message);
      break;
    }
    case StmtKind::kDelete:
      for (const auto& t : static_cast<const DeleteStmt&>(s).targets) visit(t);
      break;
    default:
      break;
  }
}

}  // namespace

const FunctionDefStmt* find_function(const std::vector<StmtPtr>& body,
                                     const std::string& name) {
  for (const auto& stmt : body) {
    if (stmt->kind == StmtKind::kFunctionDef) {
      const auto& fn = static_cast<const FunctionDefStmt&>(*stmt);
      if (fn.name == name) return &fn;
    }
    if (stmt->kind == StmtKind::kClassDef) {
      const auto& n = static_cast<const ClassDefStmt&>(*stmt);
      if (const auto* found = find_function(n.body, name)) return found;
    }
    if (stmt->kind == StmtKind::kIf) {
      const auto& n = static_cast<const IfStmt&>(*stmt);
      if (const auto* found = find_function(n.body, name)) return found;
      if (const auto* found = find_function(n.orelse, name)) return found;
    }
  }
  return nullptr;
}

void walk_statements(const std::vector<StmtPtr>& body,
                     const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : body) walk_stmt(*s, fn);
}

void walk_expressions(const Expr& expr, const std::function<void(const Expr&)>& fn) {
  walk_expr(&expr, fn);
}

void walk_all_expressions(const std::vector<StmtPtr>& body,
                          const std::function<void(const Expr&)>& fn) {
  walk_statements(body, [&fn](const Stmt& s) { stmt_expressions(s, fn); });
}

}  // namespace lfm::pysrc
