// AST node definitions for the mini-Python front end.
//
// The tree intentionally mirrors the shape of CPython's `ast` module for the
// constructs the dependency analyzer cares about (imports, function/class
// structure, control flow) while keeping expression nodes simple. Ownership
// is strict: every child is a unique_ptr held by its parent.
//
// The parser also resolves what the interpreter would otherwise redo on
// every evaluation: operators are an `Op`, numeric literals carry their
// value, f-strings carry their parsed fields, and every identifier carries
// a slot into its module's `Module::names`. A tree is immutable once
// parsed, so the parse cache shares one resolved tree per source.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lfm::pysrc {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

// Operators of BinOp, AugAssign, UnaryOp, BoolOp and Compare nodes.
enum class Op : uint8_t {
  // Binary (BinOpExpr).
  kAdd, kSub, kMul, kMatMul, kDiv, kFloorDiv, kMod, kPow,
  kLShift, kRShift, kBitAnd, kBitOr, kBitXor,
  kWalrus,  // `(name := value)`, parsed as a BinOpExpr
  // Augmented assignment (AugAssignStmt), in the order of the binary ones.
  kAddAssign, kSubAssign, kMulAssign, kMatMulAssign, kDivAssign,
  kFloorDivAssign, kModAssign, kPowAssign, kLShiftAssign, kRShiftAssign,
  kBitAndAssign, kBitOrAssign, kBitXorAssign,
  // Unary (UnaryOpExpr).
  kNot, kNeg, kPos, kInvert,
  // Boolean (BoolOpExpr).
  kAnd, kOr,
  // Comparison (CompareExpr).
  kEq, kNe, kLt, kLe, kGt, kGe, kIn, kNotIn, kIs, kIsNot,
};

// The operator's source spelling ("+", "+=", "not in", ...): the one place
// unparse and error messages get it from.
std::string_view op_text(Op op);
// Compares by spelling, so `node.op == "+"` reads as it does in source.
inline bool operator==(Op op, std::string_view text) { return op_text(op) == text; }
std::ostream& operator<<(std::ostream& os, Op op);
// The binary operator an augmented assignment applies: kAdd for kAddAssign.
inline Op augmented_base(Op op) {
  return static_cast<Op>(static_cast<int>(op) - static_cast<int>(Op::kAddAssign) +
                         static_cast<int>(Op::kAdd));
}

// The interpreter's builtin functions. The parser tags each name that
// spells one, so a call reaches its builtin without comparing strings.
enum class Builtin : uint8_t {
  kNone, kLen, kRange, kPrint, kAbs, kMin, kMax, kSum, kSorted, kStr, kRepr,
  kInt, kFloat, kBool, kList, kDict, kEnumerate, kZip, kRound, kAny, kAll,
  kIsinstance,
};
Builtin builtin_named(std::string_view name);

// The str, list and dict methods the interpreter implements. Each
// AttributeExpr carries the one its name spells, so a method call
// dispatches without comparing strings.
enum class Method : uint8_t {
  kNone, kAppend, kExtend, kInsert, kPop, kRemove, kIndex, kCount, kSort,
  kReverse, kGet, kKeys, kValues, kItems, kUpdate, kSetdefault, kSplit, kJoin,
  kUpper, kLower, kStrip, kStartswith, kEndswith, kReplace, kFind, kIsdigit,
};
Method method_named(std::string_view name);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kName,
  kConstant,
  kAttribute,
  kCall,
  kBinOp,
  kUnaryOp,
  kBoolOp,
  kCompare,
  kSubscript,
  kTuple,
  kList,
  kSet,
  kDict,
  kLambda,
  kConditional,  // a if cond else b
  kStarred,
  kSlice,
  kComprehension,
  kAwait,
  kYield,
};

struct Expr {
  const ExprKind kind;
  int line = 0;
  int col = 0;
  virtual ~Expr() = default;

 protected:
  explicit Expr(ExprKind k) : kind(k) {}
};

struct NameExpr : Expr {
  explicit NameExpr(std::string id) : Expr(ExprKind::kName), id(std::move(id)) {}
  std::string id;
  uint32_t slot = 0;                  // index of `id` in Module::names
  Builtin builtin = Builtin::kNone;  // the builtin `id` spells, if any
};

enum class ConstantKind { kNone, kBool, kInt, kFloat, kStr, kBytes, kEllipsis };

// One replacement field of an f-string and the literal text before it.
struct FStringPart {
  std::string literal;  // text before the field, `{{` and `}}` unescaped
  ExprPtr field;        // null for the text after the last field
  bool fixed = false;   // a `:.Nf` spec: `precision` digits after the point
  int precision = 6;
};

struct ConstantExpr : Expr {
  ConstantExpr() : Expr(ExprKind::kConstant) {}
  ConstantKind const_kind = ConstantKind::kNone;
  bool bool_value = false;
  bool fstring = false;  // f-prefixed string: interpolated at evaluation
  std::string text;  // literal text for numbers, decoded value for strings
  int64_t int_value = 0;               // kInt
  double float_value = 0.0;            // kFloat
  std::vector<FStringPart> fstring_parts;  // fstring: fields in order
  // What evaluating the literal raises (an int that does not fit int64, a
  // malformed f-string field), after any fstring_parts. The parse itself
  // succeeds, so only code that reaches the literal fails.
  std::exception_ptr error;
};

struct AttributeExpr : Expr {
  AttributeExpr(ExprPtr value, std::string attr)
      : Expr(ExprKind::kAttribute),
        value(std::move(value)),
        attr(std::move(attr)),
        method(method_named(this->attr)) {}
  ExprPtr value;
  std::string attr;
  Method method;  // the method `attr` spells, if any
};

struct Keyword {
  std::string name;  // empty for **kwargs expansion
  ExprPtr value;
};

struct CallExpr : Expr {
  CallExpr() : Expr(ExprKind::kCall) {}
  ExprPtr func;
  std::vector<ExprPtr> args;
  std::vector<Keyword> keywords;
};

struct BinOpExpr : Expr {
  BinOpExpr() : Expr(ExprKind::kBinOp) {}
  Op op = Op::kAdd;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct UnaryOpExpr : Expr {
  UnaryOpExpr() : Expr(ExprKind::kUnaryOp) {}
  Op op = Op::kNot;
  ExprPtr operand;
};

struct BoolOpExpr : Expr {
  BoolOpExpr() : Expr(ExprKind::kBoolOp) {}
  Op op = Op::kAnd;  // kAnd | kOr
  std::vector<ExprPtr> values;
};

struct CompareExpr : Expr {
  CompareExpr() : Expr(ExprKind::kCompare) {}
  ExprPtr lhs;
  std::vector<std::pair<Op, ExprPtr>> rest;  // (op, operand)
};

struct SubscriptExpr : Expr {
  SubscriptExpr() : Expr(ExprKind::kSubscript) {}
  ExprPtr value;
  ExprPtr index;
  // Evaluating `index` may bind a name (it holds a call, a walrus or a
  // comprehension), so a read must copy `value` before evaluating it.
  bool index_binds = false;
};

struct SequenceExpr : Expr {  // tuple / list / set
  explicit SequenceExpr(ExprKind k) : Expr(k) {}
  std::vector<ExprPtr> elts;
};

struct DictExpr : Expr {
  DictExpr() : Expr(ExprKind::kDict) {}
  // key == nullptr marks a ** expansion entry.
  std::vector<std::pair<ExprPtr, ExprPtr>> items;
};

struct LambdaExpr : Expr {
  LambdaExpr() : Expr(ExprKind::kLambda) {}
  std::vector<std::string> params;
  std::vector<uint32_t> param_slots;
  ExprPtr body;
};

struct ConditionalExpr : Expr {
  ConditionalExpr() : Expr(ExprKind::kConditional) {}
  ExprPtr body;
  ExprPtr cond;
  ExprPtr orelse;
};

struct StarredExpr : Expr {
  explicit StarredExpr(ExprPtr v) : Expr(ExprKind::kStarred), value(std::move(v)) {}
  ExprPtr value;
};

struct SliceExpr : Expr {
  SliceExpr() : Expr(ExprKind::kSlice) {}
  ExprPtr lower;  // any of these may be null
  ExprPtr upper;
  ExprPtr step;
};

struct CompClause {
  ExprPtr target;
  ExprPtr iter;
  std::vector<ExprPtr> conditions;
  bool is_async = false;
};

struct ComprehensionExpr : Expr {
  ComprehensionExpr() : Expr(ExprKind::kComprehension) {}
  // 'list' | 'set' | 'dict' | 'generator'
  std::string comp_type;
  ExprPtr element;
  ExprPtr value;  // dict comprehensions only
  std::vector<CompClause> clauses;
};

struct AwaitExpr : Expr {
  explicit AwaitExpr(ExprPtr v) : Expr(ExprKind::kAwait), value(std::move(v)) {}
  ExprPtr value;
};

struct YieldExpr : Expr {
  YieldExpr() : Expr(ExprKind::kYield) {}
  bool is_from = false;
  ExprPtr value;  // may be null
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kExpr,
  kAssign,
  kAugAssign,
  kAnnAssign,
  kReturn,
  kPass,
  kBreak,
  kContinue,
  kImport,
  kImportFrom,
  kIf,
  kFor,
  kWhile,
  kTry,
  kWith,
  kFunctionDef,
  kClassDef,
  kRaise,
  kAssert,
  kGlobal,
  kNonlocal,
  kDelete,
};

struct Stmt {
  const StmtKind kind;
  int line = 0;
  virtual ~Stmt() = default;

 protected:
  explicit Stmt(StmtKind k) : kind(k) {}
};

struct ExprStmt : Stmt {
  explicit ExprStmt(ExprPtr v) : Stmt(StmtKind::kExpr), value(std::move(v)) {}
  ExprPtr value;
};

struct AssignStmt : Stmt {
  AssignStmt() : Stmt(StmtKind::kAssign) {}
  std::vector<ExprPtr> targets;  // a = b = value has two targets
  ExprPtr value;
};

struct AugAssignStmt : Stmt {
  AugAssignStmt() : Stmt(StmtKind::kAugAssign) {}
  ExprPtr target;
  Op op = Op::kAddAssign;  // kAddAssign .. kBitXorAssign
  ExprPtr value;
};

struct AnnAssignStmt : Stmt {
  AnnAssignStmt() : Stmt(StmtKind::kAnnAssign) {}
  ExprPtr target;
  ExprPtr annotation;
  ExprPtr value;  // may be null
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
  ExprPtr value;  // may be null
};

struct SimpleStmt : Stmt {  // pass / break / continue
  explicit SimpleStmt(StmtKind k) : Stmt(k) {}
};

// `import a.b.c as x, d` — one Alias per comma-separated item.
struct ImportAlias {
  std::string name;    // dotted module path
  std::string asname;  // empty when no `as` clause
  uint32_t slot = 0;   // the bound name: `asname`, else `name`
};

struct ImportStmt : Stmt {
  ImportStmt() : Stmt(StmtKind::kImport) {}
  std::vector<ImportAlias> names;
};

// `from .pkg.mod import a as x, b` / `from mod import *`
struct ImportFromStmt : Stmt {
  ImportFromStmt() : Stmt(StmtKind::kImportFrom) {}
  int level = 0;       // number of leading dots (relative import depth)
  std::string module;  // may be empty for `from . import x`
  std::vector<ImportAlias> names;
  bool star = false;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  ExprPtr cond;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;  // elif chains become nested IfStmt here
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(StmtKind::kFor) {}
  bool is_async = false;
  ExprPtr target;
  ExprPtr iter;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  ExprPtr cond;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;
};

struct ExceptHandler {
  ExprPtr type;        // may be null (bare except)
  std::string name;    // `except E as name`
  uint32_t slot = 0;   // of `name`
  std::vector<StmtPtr> body;
  int line = 0;
};

struct TryStmt : Stmt {
  TryStmt() : Stmt(StmtKind::kTry) {}
  std::vector<StmtPtr> body;
  std::vector<ExceptHandler> handlers;
  std::vector<StmtPtr> orelse;
  std::vector<StmtPtr> finally;
};

struct WithItem {
  ExprPtr context;
  ExprPtr target;  // may be null
};

struct WithStmt : Stmt {
  WithStmt() : Stmt(StmtKind::kWith) {}
  bool is_async = false;
  std::vector<WithItem> items;
  std::vector<StmtPtr> body;
};

struct Parameter {
  std::string name;
  uint32_t slot = 0;
  ExprPtr annotation;   // may be null
  ExprPtr default_val;  // may be null
  bool is_vararg = false;   // *args
  bool is_kwarg = false;    // **kwargs
};

struct FunctionDefStmt : Stmt {
  FunctionDefStmt() : Stmt(StmtKind::kFunctionDef) {}
  bool is_async = false;
  std::string name;
  uint32_t slot = 0;  // of `name`
  std::vector<Parameter> params;
  ExprPtr returns;  // may be null
  std::vector<ExprPtr> decorators;
  std::vector<StmtPtr> body;
};

struct ClassDefStmt : Stmt {
  ClassDefStmt() : Stmt(StmtKind::kClassDef) {}
  std::string name;
  std::vector<ExprPtr> bases;
  std::vector<Keyword> keywords;
  std::vector<ExprPtr> decorators;
  std::vector<StmtPtr> body;
};

struct RaiseStmt : Stmt {
  RaiseStmt() : Stmt(StmtKind::kRaise) {}
  ExprPtr exc;    // may be null
  ExprPtr cause;  // `raise X from Y`
};

struct AssertStmt : Stmt {
  AssertStmt() : Stmt(StmtKind::kAssert) {}
  ExprPtr test;
  ExprPtr message;  // may be null
};

struct ScopeDeclStmt : Stmt {  // global / nonlocal
  explicit ScopeDeclStmt(StmtKind k) : Stmt(k) {}
  std::vector<std::string> names;
  std::vector<uint32_t> slots;
};

struct DeleteStmt : Stmt {
  DeleteStmt() : Stmt(StmtKind::kDelete) {}
  std::vector<ExprPtr> targets;
};

struct Module {
  std::vector<StmtPtr> body;
  // Every identifier the module reads or binds, once each. The `slot`
  // fields of its nodes index this table.
  std::vector<std::string> names;
};

// The def named `name` in `body`, looking inside class and `if` bodies (a
// def under a module-level `if` is still the module's function); nullptr
// when there is none.
const FunctionDefStmt* find_function(const std::vector<StmtPtr>& body,
                                     const std::string& name);

// Invoke `fn` on `expr` and on every expression nested in it, depth first.
void walk_expressions(const Expr& expr, const std::function<void(const Expr&)>& fn);

// Invoke `fn`, through walk_expressions, on every expression that statement
// `s` itself holds: its value, targets, header (an `if`, `for`, `while` or
// `with`), defaults, annotations, decorators, bases and handler types. The
// statements of its bodies are not visited; the caller recurses into them.
void stmt_expressions(const Stmt& s, const std::function<void(const Expr&)>& fn);

}  // namespace lfm::pysrc
