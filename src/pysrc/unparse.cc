#include "pysrc/unparse.h"

#include "pysrc/parser.h"
#include "util/error.h"

namespace lfm::pysrc {
namespace {

std::string expr_str(const Expr& e);

std::string repr_py_string(const std::string& s, bool bytes_literal) {
  std::string out;
  if (bytes_literal) out += 'b';
  out += '\'';
  for (const char c : s) {
    switch (c) {
      case '\'': out += "\\'"; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '\'';
  return out;
}

std::string join_exprs(const std::vector<ExprPtr>& exprs, const char* sep) {
  std::string out;
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i != 0) out += sep;
    out += expr_str(*exprs[i]);
  }
  return out;
}

std::string keywords_str(const std::vector<Keyword>& keywords) {
  std::string out;
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (i != 0) out += ", ";
    if (keywords[i].name.empty()) {
      out += "**" + expr_str(*keywords[i].value);
    } else {
      out += keywords[i].name + "=" + expr_str(*keywords[i].value);
    }
  }
  return out;
}

std::string expr_str(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kName:
      return static_cast<const NameExpr&>(e).id;
    case ExprKind::kConstant: {
      const auto& c = static_cast<const ConstantExpr&>(e);
      switch (c.const_kind) {
        case ConstantKind::kNone: return "None";
        case ConstantKind::kBool: return c.bool_value ? "True" : "False";
        case ConstantKind::kEllipsis: return "...";
        case ConstantKind::kInt:
        case ConstantKind::kFloat: return c.text;
        case ConstantKind::kStr:
          return (c.fstring ? "f" : "") + repr_py_string(c.text, false);
        case ConstantKind::kBytes: return repr_py_string(c.text, true);
      }
      return "?";
    }
    case ExprKind::kAttribute: {
      const auto& a = static_cast<const AttributeExpr&>(e);
      return expr_str(*a.value) + "." + a.attr;
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const CallExpr&>(e);
      std::string out = expr_str(*c.func) + "(" + join_exprs(c.args, ", ");
      if (!c.keywords.empty()) {
        if (!c.args.empty()) out += ", ";
        out += keywords_str(c.keywords);
      }
      return out + ")";
    }
    case ExprKind::kBinOp: {
      const auto& b = static_cast<const BinOpExpr&>(e);
      return "(" + expr_str(*b.lhs) + " " + std::string(op_text(b.op)) + " " +
             expr_str(*b.rhs) + ")";
    }
    case ExprKind::kUnaryOp: {
      const auto& u = static_cast<const UnaryOpExpr&>(e);
      const std::string sep = u.op == Op::kNot ? " " : "";
      return "(" + std::string(op_text(u.op)) + sep + expr_str(*u.operand) + ")";
    }
    case ExprKind::kBoolOp: {
      const auto& b = static_cast<const BoolOpExpr&>(e);
      std::string out = "(";
      for (size_t i = 0; i < b.values.size(); ++i) {
        if (i != 0) out += " " + std::string(op_text(b.op)) + " ";
        out += expr_str(*b.values[i]);
      }
      return out + ")";
    }
    case ExprKind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      std::string out = "(" + expr_str(*c.lhs);
      for (const auto& [op, rhs] : c.rest) {
        out += " " + std::string(op_text(op)) + " " + expr_str(*rhs);
      }
      return out + ")";
    }
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const SubscriptExpr&>(e);
      return expr_str(*s.value) + "[" + expr_str(*s.index) + "]";
    }
    case ExprKind::kTuple: {
      const auto& t = static_cast<const SequenceExpr&>(e);
      if (t.elts.empty()) return "()";
      if (t.elts.size() == 1) return "(" + expr_str(*t.elts[0]) + ",)";
      return "(" + join_exprs(t.elts, ", ") + ")";
    }
    case ExprKind::kList:
      return "[" + join_exprs(static_cast<const SequenceExpr&>(e).elts, ", ") + "]";
    case ExprKind::kSet:
      return "{" + join_exprs(static_cast<const SequenceExpr&>(e).elts, ", ") + "}";
    case ExprKind::kDict: {
      const auto& d = static_cast<const DictExpr&>(e);
      std::string out = "{";
      for (size_t i = 0; i < d.items.size(); ++i) {
        if (i != 0) out += ", ";
        if (d.items[i].first == nullptr) {
          out += "**" + expr_str(*d.items[i].second);
        } else {
          out += expr_str(*d.items[i].first) + ": " + expr_str(*d.items[i].second);
        }
      }
      return out + "}";
    }
    case ExprKind::kLambda: {
      const auto& l = static_cast<const LambdaExpr&>(e);
      std::string out = "lambda";
      for (size_t i = 0; i < l.params.size(); ++i) {
        out += (i == 0 ? " " : ", ") + l.params[i];
      }
      return "(" + out + ": " + expr_str(*l.body) + ")";
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(e);
      return "(" + expr_str(*c.body) + " if " + expr_str(*c.cond) + " else " +
             expr_str(*c.orelse) + ")";
    }
    case ExprKind::kStarred:
      return "*" + expr_str(*static_cast<const StarredExpr&>(e).value);
    case ExprKind::kSlice: {
      const auto& s = static_cast<const SliceExpr&>(e);
      std::string out;
      if (s.lower) out += expr_str(*s.lower);
      out += ":";
      if (s.upper) out += expr_str(*s.upper);
      if (s.step) out += ":" + expr_str(*s.step);
      return out;
    }
    case ExprKind::kComprehension: {
      const auto& c = static_cast<const ComprehensionExpr&>(e);
      std::string body = expr_str(*c.element);
      if (c.value) body += ": " + expr_str(*c.value);
      std::string clauses;
      for (const auto& clause : c.clauses) {
        clauses += (clause.is_async ? " async for " : " for ") +
                   expr_str(*clause.target) + " in " + expr_str(*clause.iter);
        for (const auto& cond : clause.conditions) {
          clauses += " if " + expr_str(*cond);
        }
      }
      if (c.comp_type == "list") return "[" + body + clauses + "]";
      if (c.comp_type == "set" || c.comp_type == "dict") return "{" + body + clauses + "}";
      return "(" + body + clauses + ")";
    }
    case ExprKind::kAwait:
      return "(await " + expr_str(*static_cast<const AwaitExpr&>(e).value) + ")";
    case ExprKind::kYield: {
      const auto& y = static_cast<const YieldExpr&>(e);
      std::string out = y.is_from ? "(yield from" : "(yield";
      if (y.value) out += " " + expr_str(*y.value);
      return out + ")";
    }
  }
  return "?";
}

class Unparser {
 public:
  std::string render_body(const std::vector<StmtPtr>& body, int indent) {
    std::string out;
    for (const auto& stmt : body) out += render(*stmt, indent);
    return out;
  }

  std::string render(const Stmt& stmt, int indent) {
    const std::string pad(static_cast<size_t>(indent) * 4, ' ');
    switch (stmt.kind) {
      case StmtKind::kExpr:
        return pad + expr_str(*static_cast<const ExprStmt&>(stmt).value) + "\n";
      case StmtKind::kAssign: {
        const auto& n = static_cast<const AssignStmt&>(stmt);
        std::string out = pad;
        for (const auto& target : n.targets) out += expr_str(*target) + " = ";
        return out + expr_str(*n.value) + "\n";
      }
      case StmtKind::kAugAssign: {
        const auto& n = static_cast<const AugAssignStmt&>(stmt);
        return pad + expr_str(*n.target) + " " + std::string(op_text(n.op)) + " " +
               expr_str(*n.value) + "\n";
      }
      case StmtKind::kAnnAssign: {
        const auto& n = static_cast<const AnnAssignStmt&>(stmt);
        std::string out = pad + expr_str(*n.target) + ": " + expr_str(*n.annotation);
        if (n.value) out += " = " + expr_str(*n.value);
        return out + "\n";
      }
      case StmtKind::kReturn: {
        const auto& n = static_cast<const ReturnStmt&>(stmt);
        return pad + (n.value ? "return " + expr_str(*n.value) : "return") + "\n";
      }
      case StmtKind::kPass: return pad + "pass\n";
      case StmtKind::kBreak: return pad + "break\n";
      case StmtKind::kContinue: return pad + "continue\n";
      case StmtKind::kImport: {
        const auto& n = static_cast<const ImportStmt&>(stmt);
        std::string out = pad + "import ";
        for (size_t i = 0; i < n.names.size(); ++i) {
          if (i != 0) out += ", ";
          out += n.names[i].name;
          if (!n.names[i].asname.empty()) out += " as " + n.names[i].asname;
        }
        return out + "\n";
      }
      case StmtKind::kImportFrom: {
        const auto& n = static_cast<const ImportFromStmt&>(stmt);
        std::string out = pad + "from " + std::string(static_cast<size_t>(n.level), '.') +
                          n.module + " import ";
        if (n.star) return out + "*\n";
        for (size_t i = 0; i < n.names.size(); ++i) {
          if (i != 0) out += ", ";
          out += n.names[i].name;
          if (!n.names[i].asname.empty()) out += " as " + n.names[i].asname;
        }
        return out + "\n";
      }
      case StmtKind::kIf: {
        const auto& n = static_cast<const IfStmt&>(stmt);
        std::string out =
            pad + "if " + expr_str(*n.cond) + ":\n" + render_body(n.body, indent + 1);
        if (!n.orelse.empty()) {
          // Collapse a lone nested if back into elif for readability.
          if (n.orelse.size() == 1 && n.orelse[0]->kind == StmtKind::kIf) {
            std::string elif_block = render(*n.orelse[0], indent);
            // replace leading "if" with "elif"
            const size_t pos = elif_block.find("if");
            elif_block.replace(pos, 2, "elif");
            out += elif_block;
          } else {
            out += pad + "else:\n" + render_body(n.orelse, indent + 1);
          }
        }
        return out;
      }
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForStmt&>(stmt);
        std::string out = pad + (n.is_async ? "async for " : "for ") +
                          expr_str(*n.target) + " in " + expr_str(*n.iter) + ":\n" +
                          render_body(n.body, indent + 1);
        if (!n.orelse.empty()) out += pad + "else:\n" + render_body(n.orelse, indent + 1);
        return out;
      }
      case StmtKind::kWhile: {
        const auto& n = static_cast<const WhileStmt&>(stmt);
        std::string out = pad + "while " + expr_str(*n.cond) + ":\n" +
                          render_body(n.body, indent + 1);
        if (!n.orelse.empty()) out += pad + "else:\n" + render_body(n.orelse, indent + 1);
        return out;
      }
      case StmtKind::kTry: {
        const auto& n = static_cast<const TryStmt&>(stmt);
        std::string out = pad + "try:\n" + render_body(n.body, indent + 1);
        for (const auto& handler : n.handlers) {
          out += pad + "except";
          if (handler.type) out += " " + expr_str(*handler.type);
          if (!handler.name.empty()) out += " as " + handler.name;
          out += ":\n" + render_body(handler.body, indent + 1);
        }
        if (!n.orelse.empty()) out += pad + "else:\n" + render_body(n.orelse, indent + 1);
        if (!n.finally.empty()) {
          out += pad + "finally:\n" + render_body(n.finally, indent + 1);
        }
        return out;
      }
      case StmtKind::kWith: {
        const auto& n = static_cast<const WithStmt&>(stmt);
        std::string out = pad + (n.is_async ? "async with " : "with ");
        for (size_t i = 0; i < n.items.size(); ++i) {
          if (i != 0) out += ", ";
          out += expr_str(*n.items[i].context);
          if (n.items[i].target) out += " as " + expr_str(*n.items[i].target);
        }
        return out + ":\n" + render_body(n.body, indent + 1);
      }
      case StmtKind::kFunctionDef: {
        const auto& n = static_cast<const FunctionDefStmt&>(stmt);
        std::string out;
        for (const auto& dec : n.decorators) {
          out += pad + "@" + expr_str(*dec) + "\n";
        }
        out += pad + (n.is_async ? "async def " : "def ") + n.name + "(";
        for (size_t i = 0; i < n.params.size(); ++i) {
          if (i != 0) out += ", ";
          const auto& p = n.params[i];
          if (p.is_vararg) out += "*";
          if (p.is_kwarg) out += "**";
          out += p.name;
          if (p.annotation) out += ": " + expr_str(*p.annotation);
          if (p.default_val) out += "=" + expr_str(*p.default_val);
        }
        out += ")";
        if (n.returns) out += " -> " + expr_str(*n.returns);
        return out + ":\n" + render_body(n.body, indent + 1);
      }
      case StmtKind::kClassDef: {
        const auto& n = static_cast<const ClassDefStmt&>(stmt);
        std::string out;
        for (const auto& dec : n.decorators) {
          out += pad + "@" + expr_str(*dec) + "\n";
        }
        out += pad + "class " + n.name;
        if (!n.bases.empty() || !n.keywords.empty()) {
          out += "(" + join_exprs(n.bases, ", ");
          if (!n.keywords.empty()) {
            if (!n.bases.empty()) out += ", ";
            out += keywords_str(n.keywords);
          }
          out += ")";
        }
        return out + ":\n" + render_body(n.body, indent + 1);
      }
      case StmtKind::kRaise: {
        const auto& n = static_cast<const RaiseStmt&>(stmt);
        std::string out = pad + "raise";
        if (n.exc) out += " " + expr_str(*n.exc);
        if (n.cause) out += " from " + expr_str(*n.cause);
        return out + "\n";
      }
      case StmtKind::kAssert: {
        const auto& n = static_cast<const AssertStmt&>(stmt);
        std::string out = pad + "assert " + expr_str(*n.test);
        if (n.message) out += ", " + expr_str(*n.message);
        return out + "\n";
      }
      case StmtKind::kGlobal:
      case StmtKind::kNonlocal: {
        const auto& n = static_cast<const ScopeDeclStmt&>(stmt);
        std::string out =
            pad + (stmt.kind == StmtKind::kGlobal ? "global " : "nonlocal ");
        for (size_t i = 0; i < n.names.size(); ++i) {
          if (i != 0) out += ", ";
          out += n.names[i];
        }
        return out + "\n";
      }
      case StmtKind::kDelete: {
        const auto& n = static_cast<const DeleteStmt&>(stmt);
        return pad + "del " + join_exprs(n.targets, ", ") + "\n";
      }
    }
    return pad + "?\n";
  }
};

}  // namespace

std::string unparse(const Module& module) {
  return Unparser().render_body(module.body, 0);
}

std::string unparse_statement(const Stmt& stmt, int indent) {
  return Unparser().render(stmt, indent);
}

std::string unparse_expression(const Expr& expr) { return expr_str(expr); }

std::string extract_function_source(const Module& module, const std::string& name) {
  const FunctionDefStmt* fn = find_function(module.body, name);
  if (fn == nullptr) throw Error("extract_function_source: no function '" + name + "'");
  return Unparser().render(*fn, 0);
}

std::string extract_function_source(const std::string& module_source,
                                    const std::string& name) {
  return extract_function_source(parse_module(module_source), name);
}

}  // namespace lfm::pysrc
