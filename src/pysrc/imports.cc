#include "pysrc/imports.h"

#include "pysrc/parser.h"
#include "util/strings.h"

namespace lfm::pysrc {
namespace {

struct Context {
  bool conditional = false;
  bool guarded = false;
  bool in_function = false;
  bool in_class = false;
};

class Scanner {
 public:
  explicit Scanner(ImportScan& out) : out_(out) {}

  void scan_body(const std::vector<StmtPtr>& body, Context ctx) {
    for (const auto& stmt : body) scan_stmt(*stmt, ctx);
  }

 private:
  void record_import(const ImportStmt& stmt, const Context& ctx) {
    for (const auto& alias : stmt.names) {
      ImportRecord rec;
      rec.module = alias.name;
      rec.asname = alias.asname;
      rec.line = stmt.line;
      apply(rec, ctx);
      out_.imports.push_back(std::move(rec));
    }
  }

  void record_import_from(const ImportFromStmt& stmt, const Context& ctx) {
    if (stmt.star) {
      ImportRecord rec;
      rec.module = stmt.module;
      rec.level = stmt.level;
      rec.line = stmt.line;
      rec.star = true;
      apply(rec, ctx);
      out_.imports.push_back(std::move(rec));
      if (stmt.level == 0) {
        out_.diagnostics.push_back({Diagnostic::Severity::kWarning, stmt.line,
                                    "star import from '" + stmt.module +
                                        "' defeats precise name tracking"});
      }
      return;
    }
    for (const auto& alias : stmt.names) {
      ImportRecord rec;
      rec.module = stmt.module;
      rec.name = alias.name;
      rec.asname = alias.asname;
      rec.level = stmt.level;
      rec.line = stmt.line;
      apply(rec, ctx);
      out_.imports.push_back(std::move(rec));
    }
  }

  static void apply(ImportRecord& rec, const Context& ctx) {
    rec.conditional = ctx.conditional;
    rec.guarded = ctx.guarded;
    rec.in_function = ctx.in_function;
    rec.in_class = ctx.in_class;
  }

  // Record `__import__("x")` and `importlib.import_module("x")` among the
  // expressions `stmt` itself holds; its bodies are scanned by scan_stmt.
  void scan_dynamic_imports(const Stmt& stmt, const Context& ctx) {
    stmt_expressions(stmt, [this, &ctx](const Expr& e) {
      if (e.kind != ExprKind::kCall) return;
      const auto& call = static_cast<const CallExpr&>(e);
      bool is_dynamic = false;
      if (call.func && call.func->kind == ExprKind::kName) {
        is_dynamic = static_cast<const NameExpr&>(*call.func).id == "__import__";
      } else if (call.func && call.func->kind == ExprKind::kAttribute) {
        const auto& attr = static_cast<const AttributeExpr&>(*call.func);
        if (attr.attr == "import_module" && attr.value &&
            attr.value->kind == ExprKind::kName &&
            static_cast<const NameExpr&>(*attr.value).id == "importlib") {
          is_dynamic = true;
        }
      }
      if (!is_dynamic) return;
      if (!call.args.empty() && call.args[0]->kind == ExprKind::kConstant &&
          static_cast<const ConstantExpr&>(*call.args[0]).const_kind == ConstantKind::kStr) {
        ImportRecord rec;
        rec.module = static_cast<const ConstantExpr&>(*call.args[0]).text;
        rec.line = e.line;
        rec.dynamic = true;
        apply(rec, ctx);
        out_.imports.push_back(std::move(rec));
      } else {
        out_.diagnostics.push_back(
            {Diagnostic::Severity::kWarning, e.line,
             "dynamic import with non-literal module name cannot be resolved statically"});
      }
    });
  }

  static bool handlers_catch_import_error(const TryStmt& stmt) {
    for (const auto& handler : stmt.handlers) {
      if (!handler.type) return true;  // bare except catches everything
      const Expr* type = handler.type.get();
      std::vector<const Expr*> types;
      if (type->kind == ExprKind::kTuple) {
        for (const auto& elt : static_cast<const SequenceExpr*>(type)->elts) {
          types.push_back(elt.get());
        }
      } else {
        types.push_back(type);
      }
      for (const Expr* t : types) {
        if (t->kind == ExprKind::kName) {
          const auto& id = static_cast<const NameExpr*>(t)->id;
          if (id == "ImportError" || id == "ModuleNotFoundError" || id == "Exception") {
            return true;
          }
        }
      }
    }
    return false;
  }

  void scan_stmt(const Stmt& stmt, Context ctx) {
    // A statement's own expressions (an `if` header, a default argument, a
    // class base) run in the statement's context, not in its bodies'.
    scan_dynamic_imports(stmt, ctx);
    switch (stmt.kind) {
      case StmtKind::kImport:
        record_import(static_cast<const ImportStmt&>(stmt), ctx);
        break;
      case StmtKind::kImportFrom:
        record_import_from(static_cast<const ImportFromStmt&>(stmt), ctx);
        break;
      case StmtKind::kIf: {
        const auto& n = static_cast<const IfStmt&>(stmt);
        Context inner = ctx;
        inner.conditional = true;
        scan_body(n.body, inner);
        scan_body(n.orelse, inner);
        break;
      }
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForStmt&>(stmt);
        scan_body(n.body, ctx);
        scan_body(n.orelse, ctx);
        break;
      }
      case StmtKind::kWhile: {
        const auto& n = static_cast<const WhileStmt&>(stmt);
        scan_body(n.body, ctx);
        scan_body(n.orelse, ctx);
        break;
      }
      case StmtKind::kTry: {
        const auto& n = static_cast<const TryStmt&>(stmt);
        Context inner = ctx;
        if (handlers_catch_import_error(n)) inner.guarded = true;
        scan_body(n.body, inner);
        for (const auto& h : n.handlers) {
          Context hctx = ctx;
          hctx.conditional = true;  // handler body runs only on failure
          scan_body(h.body, hctx);
        }
        scan_body(n.orelse, ctx);
        scan_body(n.finally, ctx);
        break;
      }
      case StmtKind::kWith:
        scan_body(static_cast<const WithStmt&>(stmt).body, ctx);
        break;
      case StmtKind::kFunctionDef: {
        Context inner = ctx;
        inner.in_function = true;
        scan_body(static_cast<const FunctionDefStmt&>(stmt).body, inner);
        break;
      }
      case StmtKind::kClassDef: {
        Context inner = ctx;
        inner.in_class = true;
        scan_body(static_cast<const ClassDefStmt&>(stmt).body, inner);
        break;
      }
      default:
        break;
    }
  }

  ImportScan& out_;
};

bool is_import_stmt(const Stmt& stmt) {
  return stmt.kind == StmtKind::kImport || stmt.kind == StmtKind::kImportFrom;
}

bool is_docstring(const Stmt& stmt) {
  if (stmt.kind != StmtKind::kExpr) return false;
  const auto& e = static_cast<const ExprStmt&>(stmt);
  return e.value && e.value->kind == ExprKind::kConstant &&
         static_cast<const ConstantExpr&>(*e.value).const_kind == ConstantKind::kStr;
}

}  // namespace

std::string ImportRecord::top_level() const {
  if (level > 0) return "";  // relative import: stays within the package
  const std::string& path = module.empty() ? name : module;
  const size_t dot = path.find('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

std::set<std::string> ImportScan::top_level_packages() const {
  std::set<std::string> out;
  for (const auto& rec : imports) {
    const std::string top = rec.top_level();
    if (!top.empty()) out.insert(top);
  }
  return out;
}

std::set<std::string> ImportScan::external_packages(
    const std::set<std::string>& stdlib) const {
  std::set<std::string> out;
  for (const auto& name : top_level_packages()) {
    if (stdlib.count(name) == 0) out.insert(name);
  }
  return out;
}

ImportScan scan_module(const Module& module) {
  ImportScan scan;
  Scanner(scan).scan_body(module.body, Context{});
  return scan;
}

ImportScan scan_source(std::string_view source) {
  return scan_module(parse_module(source));
}

ImportScan scan_function(const Module& module, const std::string& function_name) {
  ImportScan scan;
  const FunctionDefStmt* fn = find_function(module.body, function_name);
  if (!fn) {
    scan.diagnostics.push_back({Diagnostic::Severity::kError, 0,
                                "function '" + function_name + "' not found"});
    return scan;
  }
  Scanner scanner(scan);
  Context ctx;
  ctx.in_function = true;
  scanner.scan_body(fn->body, ctx);

  // Enforce the Parsl convention: imports must precede any other statement
  // (a leading docstring is permitted).
  bool seen_non_import = false;
  for (const auto& stmt : fn->body) {
    if (is_docstring(*stmt)) continue;
    if (is_import_stmt(*stmt)) {
      if (seen_non_import) {
        scan.diagnostics.push_back(
            {Diagnostic::Severity::kWarning, stmt->line,
             "import after first statement of function body; Parsl requires imports "
             "at the start of the function"});
      }
    } else {
      seen_non_import = true;
    }
  }
  return scan;
}

const std::set<std::string>& default_stdlib_modules() {
  static const std::set<std::string> kStdlib = {
      "abc",        "argparse",  "array",      "ast",        "asyncio",
      "base64",     "bisect",    "builtins",   "collections", "concurrent",
      "contextlib", "copy",      "csv",        "ctypes",     "dataclasses",
      "datetime",   "decimal",   "enum",       "errno",      "functools",
      "gc",         "getpass",   "glob",       "gzip",       "hashlib",
      "heapq",      "hmac",      "html",       "http",       "importlib",
      "inspect",    "io",        "itertools",  "json",       "logging",
      "lzma",       "math",      "multiprocessing", "os",    "pathlib",
      "pickle",     "platform",  "pprint",     "queue",      "random",
      "re",         "sched",     "secrets",    "select",     "shlex",
      "shutil",     "signal",    "socket",     "sqlite3",    "ssl",
      "stat",       "statistics", "string",    "struct",     "subprocess",
      "sys",        "tarfile",   "tempfile",   "textwrap",   "threading",
      "time",       "traceback", "types",      "typing",     "unittest",
      "urllib",     "uuid",      "warnings",   "weakref",    "xml",
      "zipfile",    "zlib",
  };
  return kStdlib;
}

}  // namespace lfm::pysrc
