#include "pysrc/parser.h"

#include <charconv>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "pysrc/interp.h"
#include "util/strings.h"

namespace lfm::pysrc {
namespace {

// A module's identifiers, each given the slot of its first appearance.
class NameTable {
 public:
  uint32_t intern(const std::string& name) {
    const auto [it, added] =
        index_.try_emplace(name, static_cast<uint32_t>(names_.size()));
    if (added) names_.push_back(name);
    return it->second;
  }
  std::vector<std::string> release() { return std::move(names_); }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<std::string> names_;
};

// The operator in [first, last] spelled `text`.
Op find_op(std::string_view text, Op first, Op last) {
  for (int op = static_cast<int>(first); op <= static_cast<int>(last); ++op) {
    if (op_text(static_cast<Op>(op)) == text) return static_cast<Op>(op);
  }
  throw Error("parser: '" + std::string(text) + "' is not an operator here");
}

std::string without_underscores(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c != '_') out += c;
  }
  return out;
}

std::exception_ptr py_error(const std::string& type, const std::string& message) {
  return std::make_exception_ptr(PyError(type, message));
}

std::exception_ptr complex_literal_error() {
  return py_error("UnsupportedError",
                  "complex literals is not supported by the mini interpreter");
}

void set_int_value(ConstantExpr& c) {
  const std::string t = without_underscores(c.text);
  int base = 10;
  size_t skip = 0;
  if (t.size() > 2 && t[0] == '0') {
    const char b = static_cast<char>(std::tolower(static_cast<unsigned char>(t[1])));
    if (b == 'x') {
      base = 16;
      skip = 2;
    } else if (b == 'o') {
      base = 8;
      skip = 2;
    } else if (b == 'b') {
      base = 2;
      skip = 2;
    }
  }
  const char* last = t.data() + t.size();
  const auto [end, ec] = std::from_chars(t.data() + skip, last, c.int_value, base);
  if (ec == std::errc::result_out_of_range) {
    c.error = py_error("OverflowError", "int literal " + t + " does not fit in int64");
  } else if (ec != std::errc() || end != last) {
    c.error = base == 10 && (t.back() == 'j' || t.back() == 'J')
                  ? complex_literal_error()
                  : py_error("SyntaxError", "invalid int literal '" + c.text + "'");
  }
}

void set_float_value(ConstantExpr& c) {
  const std::string t = without_underscores(c.text);
  if (!t.empty() && (t.back() == 'j' || t.back() == 'J')) {
    c.error = complex_literal_error();
    return;
  }
  // Out of double range gives inf or 0, as in Python.
  c.float_value = std::strtod(t.c_str(), nullptr);
}

bool may_bind(const Expr& root);

bool fstring_may_bind(const ConstantExpr& c) {
  for (const auto& part : c.fstring_parts) {
    if (part.field && may_bind(*part.field)) return true;
  }
  return false;
}

// Whether evaluating `root` can bind or delete a name: it calls (any callee
// may assign a global), assigns with `:=`, or runs a comprehension.
bool may_bind(const Expr& root) {
  bool binds = false;
  walk_expressions(root, [&binds](const Expr& e) {
    if (e.kind == ExprKind::kCall || e.kind == ExprKind::kComprehension ||
        (e.kind == ExprKind::kBinOp &&
         static_cast<const BinOpExpr&>(e).op == Op::kWalrus) ||
        (e.kind == ExprKind::kConstant &&
         fstring_may_bind(static_cast<const ConstantExpr&>(e)))) {
      binds = true;
    }
  });
  return binds;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, NameTable& names)
      : tokens_(std::move(tokens)), names_(names) {}

  Module parse_module() {
    Module m;
    skip_newlines();
    while (!check(TokenKind::kEnd)) {
      m.body.push_back(statement());
      skip_newlines();
    }
    return m;
  }

  ExprPtr parse_single_expression() {
    skip_newlines();
    ExprPtr e = expression();
    skip_newlines();
    expect(TokenKind::kEnd, "end of input");
    return e;
  }

 private:
  // --- token helpers -------------------------------------------------------

  const Token& peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool check_op(const char* op) const { return peek().is_op(op); }
  bool check_kw(const char* kw) const { return peek().is_keyword(kw); }

  bool match_op(const char* op) {
    if (check_op(op)) {
      advance();
      return true;
    }
    return false;
  }
  bool match_kw(const char* kw) {
    if (check_kw(kw)) {
      advance();
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& message) const {
    const Token& t = peek();
    throw SyntaxError(message + " (got " + std::string(token_kind_name(t.kind)) +
                          (t.text.empty() ? "" : " '" + t.text + "'") + ")",
                      t.line, t.col);
  }

  const Token& expect(TokenKind kind, const char* what) {
    if (!check(kind)) fail(std::string("expected ") + what);
    return advance();
  }
  void expect_op(const char* op) {
    if (!match_op(op)) fail(std::string("expected '") + op + "'");
  }
  void expect_kw(const char* kw) {
    if (!match_kw(kw)) fail(std::string("expected '") + kw + "'");
  }
  void expect_newline() {
    if (check(TokenKind::kEnd)) return;
    if (!check(TokenKind::kNewline)) fail("expected end of statement");
    advance();
  }

  void skip_newlines() {
    while (check(TokenKind::kNewline)) advance();
  }

  template <typename T>
  std::unique_ptr<T> make_stmt() {
    auto node = std::make_unique<T>();
    node->line = peek().line;
    return node;
  }

  uint32_t slot(const std::string& name) { return names_.intern(name); }

  template <typename T, typename... Args>
  ExprPtr locate(std::unique_ptr<T> node, int line, int col) {
    node->line = line;
    node->col = col;
    return node;
  }

  // --- statements ----------------------------------------------------------

  StmtPtr statement() {
    if (check_kw("import")) return import_stmt();
    if (check_kw("from")) return import_from_stmt();
    if (check_kw("def")) return function_def(false, {});
    if (check_kw("class")) return class_def({});
    if (check_op("@")) return decorated();
    if (check_kw("async")) return async_stmt();
    if (check_kw("if")) return if_stmt();
    if (check_kw("for")) return for_stmt(false);
    if (check_kw("while")) return while_stmt();
    if (check_kw("try")) return try_stmt();
    if (check_kw("with")) return with_stmt(false);
    if (check_kw("return")) return return_stmt();
    if (check_kw("raise")) return raise_stmt();
    if (check_kw("assert")) return assert_stmt();
    if (check_kw("global")) return scope_decl(StmtKind::kGlobal);
    if (check_kw("nonlocal")) return scope_decl(StmtKind::kNonlocal);
    if (check_kw("del")) return delete_stmt();
    if (check_kw("pass")) return simple(StmtKind::kPass);
    if (check_kw("break")) return simple(StmtKind::kBreak);
    if (check_kw("continue")) return simple(StmtKind::kContinue);
    return expr_or_assign_stmt();
  }

  StmtPtr simple(StmtKind kind) {
    auto node = std::make_unique<SimpleStmt>(kind);
    node->line = peek().line;
    advance();
    expect_newline();
    return node;
  }

  StmtPtr async_stmt() {
    expect_kw("async");
    if (check_kw("def")) return function_def(true, {});
    if (check_kw("for")) return for_stmt(true);
    if (check_kw("with")) return with_stmt(true);
    fail("expected 'def', 'for' or 'with' after 'async'");
  }

  StmtPtr decorated() {
    std::vector<ExprPtr> decorators;
    while (match_op("@")) {
      decorators.push_back(expression());
      expect_newline();
      skip_newlines();
    }
    if (check_kw("def")) return function_def(false, std::move(decorators));
    if (check_kw("async")) {
      advance();
      if (!check_kw("def")) fail("expected 'def' after 'async'");
      return function_def(true, std::move(decorators));
    }
    if (check_kw("class")) return class_def(std::move(decorators));
    fail("expected function or class definition after decorators");
  }

  std::string dotted_name() {
    std::string name = expect(TokenKind::kName, "module name").text;
    while (check_op(".")) {
      // Only consume the dot when a name follows (so `from . import x` works).
      if (peek(1).kind != TokenKind::kName) break;
      advance();
      name += '.';
      name += expect(TokenKind::kName, "name after '.'").text;
    }
    return name;
  }

  StmtPtr import_stmt() {
    auto node = make_stmt<ImportStmt>();
    expect_kw("import");
    while (true) {
      ImportAlias alias;
      alias.name = dotted_name();
      if (match_kw("as")) alias.asname = expect(TokenKind::kName, "alias name").text;
      alias.slot = slot(alias.asname.empty() ? alias.name : alias.asname);
      node->names.push_back(std::move(alias));
      if (!match_op(",")) break;
    }
    expect_newline();
    return node;
  }

  StmtPtr import_from_stmt() {
    auto node = make_stmt<ImportFromStmt>();
    expect_kw("from");
    while (check_op(".") || check_op("...")) {
      node->level += check_op("...") ? 3 : 1;
      advance();
    }
    if (check(TokenKind::kName)) node->module = dotted_name();
    if (node->level == 0 && node->module.empty()) fail("expected module name after 'from'");
    expect_kw("import");
    if (match_op("*")) {
      node->star = true;
      expect_newline();
      return node;
    }
    const bool parenthesized = match_op("(");
    if (parenthesized) skip_newlines();
    while (true) {
      ImportAlias alias;
      alias.name = expect(TokenKind::kName, "imported name").text;
      if (match_kw("as")) alias.asname = expect(TokenKind::kName, "alias name").text;
      alias.slot = slot(alias.asname.empty() ? alias.name : alias.asname);
      node->names.push_back(std::move(alias));
      if (parenthesized) skip_newlines();
      if (!match_op(",")) break;
      if (parenthesized) skip_newlines();
      if (parenthesized && check_op(")")) break;  // trailing comma
    }
    if (parenthesized) expect_op(")");
    expect_newline();
    return node;
  }

  std::vector<StmtPtr> block() {
    expect_op(":");
    if (!check(TokenKind::kNewline)) {
      // Single-line suite: `if x: do()` — one or more ';'-free statements.
      std::vector<StmtPtr> body;
      body.push_back(statement());
      return body;
    }
    advance();  // newline
    skip_newlines();
    expect(TokenKind::kIndent, "indented block");
    std::vector<StmtPtr> body;
    skip_newlines();
    while (!check(TokenKind::kDedent) && !check(TokenKind::kEnd)) {
      body.push_back(statement());
      skip_newlines();
    }
    expect(TokenKind::kDedent, "dedent");
    if (body.empty()) fail("expected at least one statement in block");
    return body;
  }

  StmtPtr function_def(bool is_async, std::vector<ExprPtr> decorators) {
    auto node = make_stmt<FunctionDefStmt>();
    node->is_async = is_async;
    node->decorators = std::move(decorators);
    expect_kw("def");
    node->name = expect(TokenKind::kName, "function name").text;
    node->slot = slot(node->name);
    expect_op("(");
    bool seen_star = false;
    while (!check_op(")")) {
      Parameter p;
      if (match_op("*")) {
        if (check_op(",") || check_op(")")) {
          // bare '*' keyword-only marker
          seen_star = true;
          if (!match_op(",")) break;
          continue;
        }
        p.is_vararg = true;
        seen_star = true;
      } else if (match_op("**")) {
        p.is_kwarg = true;
      }
      p.name = expect(TokenKind::kName, "parameter name").text;
      p.slot = slot(p.name);
      if (match_op(":")) p.annotation = expression();
      if (match_op("=")) p.default_val = expression();
      node->params.push_back(std::move(p));
      if (!match_op(",")) break;
    }
    (void)seen_star;
    expect_op(")");
    if (match_op("->")) node->returns = expression();
    node->body = block();
    return node;
  }

  StmtPtr class_def(std::vector<ExprPtr> decorators) {
    auto node = make_stmt<ClassDefStmt>();
    node->decorators = std::move(decorators);
    expect_kw("class");
    node->name = expect(TokenKind::kName, "class name").text;
    if (match_op("(")) {
      while (!check_op(")")) {
        if (check(TokenKind::kName) && peek(1).is_op("=")) {
          Keyword kw;
          kw.name = advance().text;
          advance();  // '='
          kw.value = expression();
          node->keywords.push_back(std::move(kw));
        } else {
          node->bases.push_back(expression());
        }
        if (!match_op(",")) break;
      }
      expect_op(")");
    }
    node->body = block();
    return node;
  }

  StmtPtr if_stmt() {
    auto node = make_stmt<IfStmt>();
    expect_kw("if");
    node->cond = expression();
    node->body = block();
    skip_newlines();
    if (check_kw("elif")) {
      // Rewrite elif chains as nested if in the else branch, like CPython.
      auto nested = make_stmt<IfStmt>();
      expect_kw("elif");
      nested->cond = expression();
      nested->body = block();
      skip_newlines();
      nested->orelse = maybe_else_or_elif();
      node->orelse.push_back(std::move(nested));
    } else if (check_kw("else")) {
      advance();
      node->orelse = block();
    }
    return node;
  }

  std::vector<StmtPtr> maybe_else_or_elif() {
    std::vector<StmtPtr> out;
    if (check_kw("elif")) {
      auto nested = make_stmt<IfStmt>();
      expect_kw("elif");
      nested->cond = expression();
      nested->body = block();
      skip_newlines();
      nested->orelse = maybe_else_or_elif();
      out.push_back(std::move(nested));
    } else if (check_kw("else")) {
      advance();
      out = block();
    }
    return out;
  }

  StmtPtr for_stmt(bool is_async) {
    auto node = make_stmt<ForStmt>();
    node->is_async = is_async;
    expect_kw("for");
    node->target = for_target_list();
    expect_kw("in");
    node->iter = expression_list();
    node->body = block();
    skip_newlines();
    if (match_kw("else")) node->orelse = block();
    return node;
  }

  StmtPtr while_stmt() {
    auto node = make_stmt<WhileStmt>();
    expect_kw("while");
    node->cond = expression();
    node->body = block();
    skip_newlines();
    if (match_kw("else")) node->orelse = block();
    return node;
  }

  StmtPtr try_stmt() {
    auto node = make_stmt<TryStmt>();
    expect_kw("try");
    node->body = block();
    skip_newlines();
    while (check_kw("except")) {
      ExceptHandler handler;
      handler.line = peek().line;
      advance();
      if (!check_op(":")) {
        handler.type = expression();
        if (match_kw("as")) {
          handler.name = expect(TokenKind::kName, "exception name").text;
          handler.slot = slot(handler.name);
        }
      }
      handler.body = block();
      node->handlers.push_back(std::move(handler));
      skip_newlines();
    }
    if (match_kw("else")) {
      node->orelse = block();
      skip_newlines();
    }
    if (match_kw("finally")) node->finally = block();
    if (node->handlers.empty() && node->finally.empty()) {
      fail("try statement must have at least one except or finally clause");
    }
    return node;
  }

  StmtPtr with_stmt(bool is_async) {
    auto node = make_stmt<WithStmt>();
    node->is_async = is_async;
    expect_kw("with");
    while (true) {
      WithItem item;
      item.context = expression();
      if (match_kw("as")) item.target = primary_target();
      node->items.push_back(std::move(item));
      if (!match_op(",")) break;
    }
    node->body = block();
    return node;
  }

  StmtPtr return_stmt() {
    auto node = make_stmt<ReturnStmt>();
    expect_kw("return");
    if (!check(TokenKind::kNewline) && !check(TokenKind::kEnd) && !check(TokenKind::kDedent)) {
      node->value = expression_list();
    }
    expect_newline();
    return node;
  }

  StmtPtr raise_stmt() {
    auto node = make_stmt<RaiseStmt>();
    expect_kw("raise");
    if (!check(TokenKind::kNewline) && !check(TokenKind::kEnd)) {
      node->exc = expression();
      if (match_kw("from")) node->cause = expression();
    }
    expect_newline();
    return node;
  }

  StmtPtr assert_stmt() {
    auto node = make_stmt<AssertStmt>();
    expect_kw("assert");
    node->test = expression();
    if (match_op(",")) node->message = expression();
    expect_newline();
    return node;
  }

  StmtPtr scope_decl(StmtKind kind) {
    auto node = std::make_unique<ScopeDeclStmt>(kind);
    node->line = peek().line;
    advance();  // 'global' | 'nonlocal'
    while (true) {
      node->names.push_back(expect(TokenKind::kName, "identifier").text);
      node->slots.push_back(slot(node->names.back()));
      if (!match_op(",")) break;
    }
    expect_newline();
    return node;
  }

  StmtPtr delete_stmt() {
    auto node = make_stmt<DeleteStmt>();
    expect_kw("del");
    while (true) {
      node->targets.push_back(expression());
      if (!match_op(",")) break;
    }
    expect_newline();
    return node;
  }

  bool check_augop() const {
    if (!check(TokenKind::kOp)) return false;
    for (int op = static_cast<int>(Op::kAddAssign);
         op <= static_cast<int>(Op::kBitXorAssign); ++op) {
      if (op_text(static_cast<Op>(op)) == peek().text) return true;
    }
    return false;
  }

  StmtPtr expr_or_assign_stmt() {
    const int line = peek().line;
    ExprPtr first = expression_list();
    if (check_augop()) {
      auto node = std::make_unique<AugAssignStmt>();
      node->line = line;
      node->target = std::move(first);
      node->op = find_op(advance().text, Op::kAddAssign, Op::kBitXorAssign);
      node->value = expression_list();
      expect_newline();
      return node;
    }
    if (match_op(":")) {
      auto node = std::make_unique<AnnAssignStmt>();
      node->line = line;
      node->target = std::move(first);
      node->annotation = expression();
      if (match_op("=")) node->value = expression_list();
      expect_newline();
      return node;
    }
    if (check_op("=")) {
      auto node = std::make_unique<AssignStmt>();
      node->line = line;
      node->targets.push_back(std::move(first));
      while (match_op("=")) {
        ExprPtr next = expression_list();
        if (check_op("=")) {
          node->targets.push_back(std::move(next));
        } else {
          node->value = std::move(next);
          break;
        }
      }
      if (!node->value) fail("expected value after '='");
      expect_newline();
      return node;
    }
    auto node = std::make_unique<ExprStmt>(std::move(first));
    node->line = line;
    expect_newline();
    return node;
  }

  // --- expressions ---------------------------------------------------------

  // expression_list: expr (',' expr)* [','] — produces a tuple if >1 item.
  ExprPtr expression_list() {
    const int line = peek().line;
    const int col = peek().col;
    ExprPtr first = expression();
    if (!check_op(",")) return first;
    auto tuple = std::make_unique<SequenceExpr>(ExprKind::kTuple);
    tuple->elts.push_back(std::move(first));
    while (match_op(",")) {
      if (end_of_expression()) break;  // trailing comma
      tuple->elts.push_back(expression());
    }
    return locate(std::move(tuple), line, col);
  }

  bool end_of_expression() const {
    return check(TokenKind::kNewline) || check(TokenKind::kEnd) ||
           check(TokenKind::kDedent) || check_op("=") || check_op(")") ||
           check_op("]") || check_op("}") || check_op(":");
  }

  ExprPtr target_list() { return expression_list(); }

  // For-loop and comprehension targets: must not consume the `in` keyword,
  // so elements are postfix expressions (names, attributes, subscripts,
  // starred, or parenthesized tuples), not full comparisons.
  ExprPtr for_target_list() {
    ExprPtr first = for_target_item();
    if (!check_op(",")) return first;
    auto tuple = std::make_unique<SequenceExpr>(ExprKind::kTuple);
    tuple->line = first->line;
    tuple->elts.push_back(std::move(first));
    while (match_op(",")) {
      if (check_kw("in")) break;  // trailing comma
      tuple->elts.push_back(for_target_item());
    }
    return tuple;
  }

  ExprPtr for_target_item() {
    if (check_op("*")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      return locate(std::make_unique<StarredExpr>(postfix()), line, col);
    }
    return postfix();
  }

  ExprPtr primary_target() { return postfix(); }

  ExprPtr expression() { return ternary(); }

  ExprPtr ternary() {
    ExprPtr body = lambda_or_or();
    if (check_kw("if")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      auto node = std::make_unique<ConditionalExpr>();
      node->body = std::move(body);
      node->cond = lambda_or_or();
      expect_kw("else");
      node->orelse = expression();
      return locate(std::move(node), line, col);
    }
    return body;
  }

  ExprPtr lambda_or_or() {
    if (check_kw("lambda")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      auto node = std::make_unique<LambdaExpr>();
      while (!check_op(":")) {
        match_op("*") || match_op("**");
        node->params.push_back(expect(TokenKind::kName, "lambda parameter").text);
        node->param_slots.push_back(slot(node->params.back()));
        if (match_op("=")) expression();  // default value, discarded
        if (!match_op(",")) break;
      }
      expect_op(":");
      node->body = expression();
      return locate(std::move(node), line, col);
    }
    return or_expr();
  }

  ExprPtr or_expr() {
    ExprPtr lhs = and_expr();
    if (!check_kw("or")) return lhs;
    auto node = std::make_unique<BoolOpExpr>();
    node->line = lhs->line;
    node->op = Op::kOr;
    node->values.push_back(std::move(lhs));
    while (match_kw("or")) node->values.push_back(and_expr());
    return node;
  }

  ExprPtr and_expr() {
    ExprPtr lhs = not_expr();
    if (!check_kw("and")) return lhs;
    auto node = std::make_unique<BoolOpExpr>();
    node->line = lhs->line;
    node->op = Op::kAnd;
    node->values.push_back(std::move(lhs));
    while (match_kw("and")) node->values.push_back(not_expr());
    return node;
  }

  ExprPtr not_expr() {
    if (check_kw("not")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      auto node = std::make_unique<UnaryOpExpr>();
      node->op = Op::kNot;
      node->operand = not_expr();
      return locate(std::move(node), line, col);
    }
    return comparison();
  }

  ExprPtr comparison() {
    ExprPtr lhs = bitor_expr();
    if (!is_compare_op()) return lhs;
    auto node = std::make_unique<CompareExpr>();
    node->line = lhs->line;
    node->lhs = std::move(lhs);
    while (is_compare_op()) {
      const Op op = compare_op();
      node->rest.emplace_back(op, bitor_expr());
    }
    return node;
  }

  bool is_compare_op() const {
    if (check_op("<") || check_op(">") || check_op("==") || check_op("!=") ||
        check_op("<=") || check_op(">=")) {
      return true;
    }
    if (check_kw("in") || check_kw("is")) return true;
    if (check_kw("not") && peek(1).is_keyword("in")) return true;
    return false;
  }

  Op compare_op() {
    if (check_kw("not")) {
      advance();
      expect_kw("in");
      return Op::kNotIn;
    }
    if (check_kw("is")) {
      advance();
      if (match_kw("not")) return Op::kIsNot;
      return Op::kIs;
    }
    if (check_kw("in")) {
      advance();
      return Op::kIn;
    }
    return find_op(advance().text, Op::kEq, Op::kGe);
  }

  ExprPtr binop_level(const std::vector<const char*>& ops, ExprPtr (Parser::*next)()) {
    ExprPtr lhs = (this->*next)();
    while (true) {
      bool matched = false;
      for (const char* op : ops) {
        if (check_op(op)) {
          auto node = std::make_unique<BinOpExpr>();
          node->line = lhs->line;
          node->op = find_op(advance().text, Op::kAdd, Op::kBitXor);
          node->lhs = std::move(lhs);
          node->rhs = (this->*next)();
          lhs = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  ExprPtr bitor_expr() { return binop_level({"|"}, &Parser::bitxor_expr); }
  ExprPtr bitxor_expr() { return binop_level({"^"}, &Parser::bitand_expr); }
  ExprPtr bitand_expr() { return binop_level({"&"}, &Parser::shift_expr); }
  ExprPtr shift_expr() { return binop_level({"<<", ">>"}, &Parser::arith_expr); }
  ExprPtr arith_expr() { return binop_level({"+", "-"}, &Parser::term_expr); }
  ExprPtr term_expr() { return binop_level({"*", "/", "//", "%", "@"}, &Parser::factor_expr); }

  ExprPtr factor_expr() {
    if (check_op("+") || check_op("-") || check_op("~")) {
      const int line = peek().line;
      const int col = peek().col;
      auto node = std::make_unique<UnaryOpExpr>();
      node->op = find_op(advance().text, Op::kNeg, Op::kInvert);
      node->operand = factor_expr();
      return locate(std::move(node), line, col);
    }
    return power_expr();
  }

  ExprPtr power_expr() {
    ExprPtr base = await_expr();
    if (check_op("**")) {
      auto node = std::make_unique<BinOpExpr>();
      node->line = base->line;
      advance();
      node->op = Op::kPow;
      node->lhs = std::move(base);
      node->rhs = factor_expr();  // right-associative
      return node;
    }
    return base;
  }

  ExprPtr await_expr() {
    if (check_kw("await")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      return locate(std::make_unique<AwaitExpr>(postfix()), line, col);
    }
    if (check_kw("yield")) {
      const int line = peek().line;
      const int col = peek().col;
      advance();
      auto node = std::make_unique<YieldExpr>();
      if (match_kw("from")) {
        node->is_from = true;
        node->value = expression();
      } else if (!end_of_expression() && !check_op(",")) {
        node->value = expression_list();
      }
      return locate(std::move(node), line, col);
    }
    return postfix();
  }

  ExprPtr postfix() {
    ExprPtr e = atom();
    while (true) {
      if (check_op("(")) {
        e = call_trailer(std::move(e));
      } else if (check_op(".")) {
        const int line = peek().line;
        const int col = peek().col;
        advance();
        std::string attr = expect(TokenKind::kName, "attribute name").text;
        e = locate(std::make_unique<AttributeExpr>(std::move(e), std::move(attr)), line, col);
      } else if (check_op("[")) {
        const int line = peek().line;
        const int col = peek().col;
        advance();
        auto node = std::make_unique<SubscriptExpr>();
        node->value = std::move(e);
        node->index = subscript_index();
        node->index_binds = may_bind(*node->index);
        expect_op("]");
        e = locate(std::move(node), line, col);
      } else {
        return e;
      }
    }
  }

  ExprPtr subscript_index() {
    // slice | expression, possibly a tuple of them
    auto parse_one = [this]() -> ExprPtr {
      ExprPtr lower;
      if (!check_op(":")) lower = expression();
      if (check_op(":")) {
        auto node = std::make_unique<SliceExpr>();
        node->line = peek().line;
        advance();
        node->lower = std::move(lower);
        if (!check_op("]") && !check_op(":") && !check_op(",")) node->upper = expression();
        if (match_op(":")) {
          if (!check_op("]") && !check_op(",")) node->step = expression();
        }
        return node;
      }
      return lower;
    };
    ExprPtr first = parse_one();
    if (!check_op(",")) return first;
    auto tuple = std::make_unique<SequenceExpr>(ExprKind::kTuple);
    tuple->line = first->line;
    tuple->elts.push_back(std::move(first));
    while (match_op(",")) {
      if (check_op("]")) break;
      tuple->elts.push_back(parse_one());
    }
    return tuple;
  }

  ExprPtr call_trailer(ExprPtr func) {
    const int line = peek().line;
    const int col = peek().col;
    expect_op("(");
    auto node = std::make_unique<CallExpr>();
    node->func = std::move(func);
    while (!check_op(")")) {
      if (match_op("**")) {
        Keyword kw;
        kw.value = expression();
        node->keywords.push_back(std::move(kw));
      } else if (match_op("*")) {
        node->args.push_back(std::make_unique<StarredExpr>(expression()));
      } else if (check(TokenKind::kName) && peek(1).is_op("=")) {
        Keyword kw;
        kw.name = advance().text;
        advance();  // '='
        kw.value = expression();
        node->keywords.push_back(std::move(kw));
      } else {
        ExprPtr arg = expression();
        // Generator argument: f(x for x in xs)
        if (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
          arg = finish_comprehension("generator", std::move(arg), nullptr);
        }
        node->args.push_back(std::move(arg));
      }
      if (!match_op(",")) break;
    }
    expect_op(")");
    return locate(std::move(node), line, col);
  }

  ExprPtr finish_comprehension(const char* type, ExprPtr element, ExprPtr value) {
    auto node = std::make_unique<ComprehensionExpr>();
    node->line = element->line;
    node->comp_type = type;
    node->element = std::move(element);
    node->value = std::move(value);
    while (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
      CompClause clause;
      if (match_kw("async")) clause.is_async = true;
      expect_kw("for");
      clause.target = for_target_list();
      expect_kw("in");
      clause.iter = lambda_or_or();
      while (check_kw("if")) {
        advance();
        clause.conditions.push_back(lambda_or_or());
      }
      node->clauses.push_back(std::move(clause));
    }
    return node;
  }

  ExprPtr atom() {
    const Token& t = peek();
    const int line = t.line;
    const int col = t.col;

    if (t.kind == TokenKind::kName) {
      advance();
      auto node = std::make_unique<NameExpr>(t.text);
      node->slot = slot(node->id);
      node->builtin = builtin_named(node->id);
      return locate(std::move(node), line, col);
    }
    if (t.kind == TokenKind::kNumber) {
      advance();
      auto node = std::make_unique<ConstantExpr>();
      node->const_kind =
          (t.text.find('.') != std::string::npos || t.text.find('e') != std::string::npos ||
           t.text.find('E') != std::string::npos)
              ? ConstantKind::kFloat
              : ConstantKind::kInt;
      // Hex floats like 0x1E are ints; recheck prefix.
      if (t.text.size() > 1 && t.text[0] == '0' &&
          (t.text[1] == 'x' || t.text[1] == 'X' || t.text[1] == 'o' || t.text[1] == 'O' ||
           t.text[1] == 'b' || t.text[1] == 'B')) {
        node->const_kind = ConstantKind::kInt;
      }
      node->text = t.text;
      if (node->const_kind == ConstantKind::kInt) {
        set_int_value(*node);
      } else {
        set_float_value(*node);
      }
      return locate(std::move(node), line, col);
    }
    if (t.kind == TokenKind::kString) {
      // Adjacent string literals concatenate; any f-prefixed part makes the
      // whole literal interpolated.
      auto node = std::make_unique<ConstantExpr>();
      node->const_kind = t.str_prefix.find('b') != std::string::npos ? ConstantKind::kBytes
                                                                     : ConstantKind::kStr;
      while (check(TokenKind::kString)) {
        if (peek().str_prefix.find('f') != std::string::npos) node->fstring = true;
        node->text += advance().text;
      }
      if (node->fstring) split_fstring(*node);
      return locate(std::move(node), line, col);
    }
    if (t.is_keyword("None") || t.is_keyword("True") || t.is_keyword("False")) {
      advance();
      auto node = std::make_unique<ConstantExpr>();
      if (t.text == "None") {
        node->const_kind = ConstantKind::kNone;
      } else {
        node->const_kind = ConstantKind::kBool;
        node->bool_value = t.text == "True";
      }
      return locate(std::move(node), line, col);
    }
    if (t.is_op("...")) {
      advance();
      auto node = std::make_unique<ConstantExpr>();
      node->const_kind = ConstantKind::kEllipsis;
      return locate(std::move(node), line, col);
    }
    if (t.is_op("(")) return paren_atom();
    if (t.is_op("[")) return list_atom();
    if (t.is_op("{")) return dict_or_set_atom();
    if (t.is_op("*")) {
      advance();
      return locate(std::make_unique<StarredExpr>(expression()), line, col);
    }
    if (t.is_keyword("lambda") || t.is_keyword("not") || t.is_keyword("await") ||
        t.is_keyword("yield")) {
      return expression();
    }
    fail("expected expression");
  }

  ExprPtr paren_atom() {
    const int line = peek().line;
    const int col = peek().col;
    expect_op("(");
    skip_newlines();
    if (match_op(")")) {
      return locate(std::make_unique<SequenceExpr>(ExprKind::kTuple), line, col);
    }
    ExprPtr first = expression();
    // Assignment expression (walrus): (name := value).
    if (check_op(":=")) {
      auto node = std::make_unique<BinOpExpr>();
      node->line = first->line;
      advance();
      node->op = Op::kWalrus;
      node->lhs = std::move(first);
      node->rhs = expression();
      first = std::move(node);
    }
    if (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
      ExprPtr comp = finish_comprehension("generator", std::move(first), nullptr);
      expect_op(")");
      return comp;
    }
    if (check_op(",")) {
      auto tuple = std::make_unique<SequenceExpr>(ExprKind::kTuple);
      tuple->elts.push_back(std::move(first));
      while (match_op(",")) {
        skip_newlines();
        if (check_op(")")) break;
        tuple->elts.push_back(expression());
        skip_newlines();
      }
      expect_op(")");
      return locate(std::move(tuple), line, col);
    }
    skip_newlines();
    expect_op(")");
    return first;  // plain parenthesized expression
  }

  ExprPtr list_atom() {
    const int line = peek().line;
    const int col = peek().col;
    expect_op("[");
    skip_newlines();
    auto list = std::make_unique<SequenceExpr>(ExprKind::kList);
    if (match_op("]")) return locate(std::move(list), line, col);
    ExprPtr first = expression();
    if (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
      ExprPtr comp = finish_comprehension("list", std::move(first), nullptr);
      expect_op("]");
      return comp;
    }
    list->elts.push_back(std::move(first));
    while (match_op(",")) {
      skip_newlines();
      if (check_op("]")) break;
      list->elts.push_back(expression());
      skip_newlines();
    }
    expect_op("]");
    return locate(std::move(list), line, col);
  }

  ExprPtr dict_or_set_atom() {
    const int line = peek().line;
    const int col = peek().col;
    expect_op("{");
    skip_newlines();
    if (match_op("}")) {
      return locate(std::make_unique<DictExpr>(), line, col);  // {} is a dict
    }
    if (match_op("**")) {
      auto dict = std::make_unique<DictExpr>();
      dict->items.emplace_back(nullptr, expression());
      finish_dict(*dict);
      return locate(std::move(dict), line, col);
    }
    ExprPtr first = expression();
    if (match_op(":")) {
      ExprPtr value = expression();
      if (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
        ExprPtr comp = finish_comprehension("dict", std::move(first), std::move(value));
        expect_op("}");
        return comp;
      }
      auto dict = std::make_unique<DictExpr>();
      dict->items.emplace_back(std::move(first), std::move(value));
      finish_dict(*dict);
      return locate(std::move(dict), line, col);
    }
    if (check_kw("for") || (check_kw("async") && peek(1).is_keyword("for"))) {
      ExprPtr comp = finish_comprehension("set", std::move(first), nullptr);
      expect_op("}");
      return comp;
    }
    auto set = std::make_unique<SequenceExpr>(ExprKind::kSet);
    set->elts.push_back(std::move(first));
    while (match_op(",")) {
      skip_newlines();
      if (check_op("}")) break;
      set->elts.push_back(expression());
      skip_newlines();
    }
    expect_op("}");
    return locate(std::move(set), line, col);
  }

  void finish_dict(DictExpr& dict) {
    while (match_op(",")) {
      skip_newlines();
      if (check_op("}")) break;
      if (match_op("**")) {
        dict.items.emplace_back(nullptr, expression());
      } else {
        ExprPtr key = expression();
        expect_op(":");
        dict.items.emplace_back(std::move(key), expression());
      }
      skip_newlines();
    }
    expect_op("}");
  }

  // Splits an f-string into literal text and parsed replacement fields.
  // What the scan or a field's parse throws is kept in `c.error`, raised
  // when the literal is evaluated after the fields before it.
  void split_fstring(ConstantExpr& c) {
    const std::string& text = c.text;
    std::string literal;
    try {
      size_t i = 0;
      while (i < text.size()) {
        const char ch = text[i];
        if (ch == '{' && i + 1 < text.size() && text[i + 1] == '{') {
          literal += '{';
          i += 2;
          continue;
        }
        if (ch == '}' && i + 1 < text.size() && text[i + 1] == '}') {
          literal += '}';
          i += 2;
          continue;
        }
        if (ch == '}') throw PyError("SyntaxError", "single '}' in f-string");
        if (ch != '{') {
          literal += ch;
          ++i;
          continue;
        }
        // Replacement field: find the matching close brace (nesting-aware
        // for dict literals / subscripts inside the expression).
        size_t depth = 1;
        size_t j = i + 1;
        while (j < text.size() && depth > 0) {
          if (text[j] == '{') ++depth;
          if (text[j] == '}') --depth;
          ++j;
        }
        if (depth != 0) throw PyError("SyntaxError", "unterminated f-string field");
        std::string field = text.substr(i + 1, j - i - 2);
        // Optional format spec after the LAST top-level ':'. Only numeric
        // specs of the form [.Nf] / [Nd] are honored; the rest is ignored.
        std::string spec;
        size_t colon = std::string::npos;
        size_t nesting = 0;
        for (size_t k = 0; k < field.size(); ++k) {
          if (field[k] == '[' || field[k] == '(' || field[k] == '{') ++nesting;
          if (field[k] == ']' || field[k] == ')' || field[k] == '}') --nesting;
          if (field[k] == ':' && nesting == 0) colon = k;
        }
        if (colon != std::string::npos) {
          spec = field.substr(colon + 1);
          field = field.substr(0, colon);
        }
        if (trim(field).empty()) throw PyError("SyntaxError", "empty f-string expression");
        FStringPart part;
        part.field = Parser(tokenize(trim(field)), names_).parse_single_expression();
        part.fixed = !spec.empty() && spec.back() == 'f';
        if (part.fixed && spec.size() >= 3 && spec[0] == '.') {
          part.precision = std::atoi(spec.substr(1, spec.size() - 2).c_str());
        }
        part.literal = std::move(literal);
        literal.clear();
        c.fstring_parts.push_back(std::move(part));
        i = j;
      }
      FStringPart tail;
      tail.literal = std::move(literal);
      c.fstring_parts.push_back(std::move(tail));
    } catch (...) {
      c.error = std::current_exception();
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  NameTable& names_;
};

}  // namespace

Module parse_module(std::string_view source) {
  NameTable names;
  Module module = Parser(tokenize(source), names).parse_module();
  module.names = names.release();
  return module;
}

ExprPtr parse_expression(std::string_view source) {
  NameTable names;
  return Parser(tokenize(source), names).parse_single_expression();
}

Module parse_expression_module(std::string_view source) {
  NameTable names;
  Module module;
  module.body.push_back(std::make_unique<ExprStmt>(
      Parser(tokenize(source), names).parse_single_expression()));
  module.names = names.release();
  return module;
}

}  // namespace lfm::pysrc
