// Unit tests for the mini-Python parser: statement forms, expression
// precedence, and error handling.
#include <gtest/gtest.h>

#include "pysrc/parser.h"

namespace lfm::pysrc {
namespace {

Module parse(const std::string& src) { return parse_module(src); }

const FunctionDefStmt& as_fn(const StmtPtr& s) {
  EXPECT_EQ(s->kind, StmtKind::kFunctionDef);
  return static_cast<const FunctionDefStmt&>(*s);
}

TEST(Parser, EmptyModule) {
  EXPECT_TRUE(parse("").body.empty());
  EXPECT_TRUE(parse("\n\n# comments\n").body.empty());
}

TEST(Parser, ImportForms) {
  const Module m = parse(
      "import os\n"
      "import numpy as np\n"
      "import os.path, sys\n");
  ASSERT_EQ(m.body.size(), 3u);
  const auto& i1 = static_cast<const ImportStmt&>(*m.body[0]);
  EXPECT_EQ(i1.names[0].name, "os");
  EXPECT_TRUE(i1.names[0].asname.empty());
  const auto& i2 = static_cast<const ImportStmt&>(*m.body[1]);
  EXPECT_EQ(i2.names[0].name, "numpy");
  EXPECT_EQ(i2.names[0].asname, "np");
  const auto& i3 = static_cast<const ImportStmt&>(*m.body[2]);
  ASSERT_EQ(i3.names.size(), 2u);
  EXPECT_EQ(i3.names[0].name, "os.path");
  EXPECT_EQ(i3.names[1].name, "sys");
}

TEST(Parser, ImportFromForms) {
  const Module m = parse(
      "from os import path\n"
      "from numpy import array as arr, zeros\n"
      "from . import sibling\n"
      "from ..pkg import mod\n"
      "from typing import *\n"
      "from collections import (\n    OrderedDict,\n    defaultdict,\n)\n");
  ASSERT_EQ(m.body.size(), 6u);
  const auto& f1 = static_cast<const ImportFromStmt&>(*m.body[0]);
  EXPECT_EQ(f1.module, "os");
  EXPECT_EQ(f1.names[0].name, "path");
  const auto& f2 = static_cast<const ImportFromStmt&>(*m.body[1]);
  EXPECT_EQ(f2.names[0].asname, "arr");
  EXPECT_EQ(f2.names[1].name, "zeros");
  const auto& f3 = static_cast<const ImportFromStmt&>(*m.body[2]);
  EXPECT_EQ(f3.level, 1);
  EXPECT_TRUE(f3.module.empty());
  const auto& f4 = static_cast<const ImportFromStmt&>(*m.body[3]);
  EXPECT_EQ(f4.level, 2);
  EXPECT_EQ(f4.module, "pkg");
  const auto& f5 = static_cast<const ImportFromStmt&>(*m.body[4]);
  EXPECT_TRUE(f5.star);
  const auto& f6 = static_cast<const ImportFromStmt&>(*m.body[5]);
  ASSERT_EQ(f6.names.size(), 2u);
  EXPECT_EQ(f6.names[1].name, "defaultdict");
}

TEST(Parser, FunctionDefFull) {
  const Module m = parse(
      "@decorator\n"
      "@mod.attr(arg=1)\n"
      "def f(a, b: int = 2, *args, c, **kwargs) -> str:\n"
      "    return a\n");
  const auto& fn = as_fn(m.body[0]);
  EXPECT_EQ(fn.name, "f");
  EXPECT_EQ(fn.decorators.size(), 2u);
  ASSERT_EQ(fn.params.size(), 5u);
  EXPECT_EQ(fn.params[0].name, "a");
  EXPECT_EQ(fn.params[1].name, "b");
  EXPECT_NE(fn.params[1].annotation, nullptr);
  EXPECT_NE(fn.params[1].default_val, nullptr);
  EXPECT_TRUE(fn.params[2].is_vararg);
  EXPECT_EQ(fn.params[3].name, "c");
  EXPECT_TRUE(fn.params[4].is_kwarg);
  EXPECT_NE(fn.returns, nullptr);
  EXPECT_EQ(fn.body.size(), 1u);
}

TEST(Parser, AsyncDef) {
  const Module m = parse("async def f():\n    await g()\n");
  EXPECT_TRUE(as_fn(m.body[0]).is_async);
}

TEST(Parser, ClassDef) {
  const Module m = parse(
      "class C(Base, metaclass=Meta):\n"
      "    x = 1\n"
      "    def method(self):\n"
      "        pass\n");
  const auto& cls = static_cast<const ClassDefStmt&>(*m.body[0]);
  EXPECT_EQ(cls.name, "C");
  EXPECT_EQ(cls.bases.size(), 1u);
  EXPECT_EQ(cls.keywords.size(), 1u);
  EXPECT_EQ(cls.body.size(), 2u);
}

TEST(Parser, IfElifElse) {
  const Module m = parse(
      "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
  const auto& i = static_cast<const IfStmt&>(*m.body[0]);
  EXPECT_EQ(i.body.size(), 1u);
  ASSERT_EQ(i.orelse.size(), 1u);
  const auto& elif = static_cast<const IfStmt&>(*i.orelse[0]);
  EXPECT_EQ(elif.orelse.size(), 1u);  // final else
}

TEST(Parser, LoopsWithElse) {
  const Module m = parse(
      "for i in range(10):\n    pass\nelse:\n    done()\n"
      "while cond:\n    break\n");
  const auto& f = static_cast<const ForStmt&>(*m.body[0]);
  EXPECT_EQ(f.orelse.size(), 1u);
  const auto& w = static_cast<const WhileStmt&>(*m.body[1]);
  EXPECT_EQ(w.body.size(), 1u);
  EXPECT_EQ(w.body[0]->kind, StmtKind::kBreak);
}

TEST(Parser, ForTupleTarget) {
  const Module m = parse("for k, v in items:\n    pass\n");
  const auto& f = static_cast<const ForStmt&>(*m.body[0]);
  EXPECT_EQ(f.target->kind, ExprKind::kTuple);
}

TEST(Parser, TryExceptFinally) {
  const Module m = parse(
      "try:\n    risky()\n"
      "except ImportError as e:\n    handle(e)\n"
      "except (TypeError, ValueError):\n    pass\n"
      "except:\n    pass\n"
      "else:\n    ok()\n"
      "finally:\n    cleanup()\n");
  const auto& t = static_cast<const TryStmt&>(*m.body[0]);
  ASSERT_EQ(t.handlers.size(), 3u);
  EXPECT_EQ(t.handlers[0].name, "e");
  EXPECT_EQ(t.handlers[1].type->kind, ExprKind::kTuple);
  EXPECT_EQ(t.handlers[2].type, nullptr);
  EXPECT_EQ(t.orelse.size(), 1u);
  EXPECT_EQ(t.finally.size(), 1u);
}

TEST(Parser, TryWithoutHandlersThrows) {
  EXPECT_THROW(parse("try:\n    pass\n"), SyntaxError);
}

TEST(Parser, WithStatement) {
  const Module m = parse("with open(f) as fh, lock:\n    pass\n");
  const auto& w = static_cast<const WithStmt&>(*m.body[0]);
  ASSERT_EQ(w.items.size(), 2u);
  EXPECT_NE(w.items[0].target, nullptr);
  EXPECT_EQ(w.items[1].target, nullptr);
}

TEST(Parser, Assignments) {
  const Module m = parse(
      "x = 1\n"
      "a = b = 2\n"
      "x += 3\n"
      "y: int = 4\n"
      "z: str\n"
      "p, q = 1, 2\n");
  EXPECT_EQ(m.body[0]->kind, StmtKind::kAssign);
  const auto& chain = static_cast<const AssignStmt&>(*m.body[1]);
  EXPECT_EQ(chain.targets.size(), 2u);
  const auto& aug = static_cast<const AugAssignStmt&>(*m.body[2]);
  EXPECT_EQ(aug.op, "+=");
  EXPECT_EQ(m.body[3]->kind, StmtKind::kAnnAssign);
  const auto& bare_ann = static_cast<const AnnAssignStmt&>(*m.body[4]);
  EXPECT_EQ(bare_ann.value, nullptr);
  const auto& unpack = static_cast<const AssignStmt&>(*m.body[5]);
  EXPECT_EQ(unpack.targets[0]->kind, ExprKind::kTuple);
}

TEST(Parser, SimpleStatements) {
  const Module m = parse(
      "pass\nbreak\ncontinue\nreturn\nraise\nraise E from cause\n"
      "assert x, 'msg'\nglobal g1, g2\nnonlocal n\ndel a, b\n");
  EXPECT_EQ(m.body[0]->kind, StmtKind::kPass);
  EXPECT_EQ(m.body[1]->kind, StmtKind::kBreak);
  EXPECT_EQ(m.body[2]->kind, StmtKind::kContinue);
  EXPECT_EQ(m.body[3]->kind, StmtKind::kReturn);
  EXPECT_EQ(m.body[4]->kind, StmtKind::kRaise);
  const auto& r = static_cast<const RaiseStmt&>(*m.body[5]);
  EXPECT_NE(r.cause, nullptr);
  const auto& a = static_cast<const AssertStmt&>(*m.body[6]);
  EXPECT_NE(a.message, nullptr);
  const auto& g = static_cast<const ScopeDeclStmt&>(*m.body[7]);
  EXPECT_EQ(g.names.size(), 2u);
  EXPECT_EQ(m.body[8]->kind, StmtKind::kNonlocal);
  const auto& d = static_cast<const DeleteStmt&>(*m.body[9]);
  EXPECT_EQ(d.targets.size(), 2u);
}

// --- expressions -----------------------------------------------------------

const Expr& single_expr(const Module& m) {
  EXPECT_EQ(m.body[0]->kind, StmtKind::kExpr);
  return *static_cast<const ExprStmt&>(*m.body[0]).value;
}

TEST(Parser, ArithmeticPrecedence) {
  const Module m = parse("1 + 2 * 3\n");
  const auto& e = static_cast<const BinOpExpr&>(single_expr(m));
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(static_cast<const BinOpExpr&>(*e.rhs).op, "*");
}

TEST(Parser, PowerRightAssociative) {
  const Module m = parse("2 ** 3 ** 2\n");
  const auto& e = static_cast<const BinOpExpr&>(single_expr(m));
  EXPECT_EQ(e.op, "**");
  EXPECT_EQ(e.rhs->kind, ExprKind::kBinOp);
}

TEST(Parser, ComparisonChain) {
  const Module m = parse("a < b <= c\n");
  const auto& e = static_cast<const CompareExpr&>(single_expr(m));
  ASSERT_EQ(e.rest.size(), 2u);
  EXPECT_EQ(e.rest[0].first, "<");
  EXPECT_EQ(e.rest[1].first, "<=");
}

TEST(Parser, MembershipAndIdentity) {
  const Module m = parse("a not in b is not c\n");
  const auto& e = static_cast<const CompareExpr&>(single_expr(m));
  EXPECT_EQ(e.rest[0].first, "not in");
  EXPECT_EQ(e.rest[1].first, "is not");
}

TEST(Parser, BoolOpsCollapse) {
  const Module m = parse("a or b or c and d\n");
  const auto& e = static_cast<const BoolOpExpr&>(single_expr(m));
  EXPECT_EQ(e.op, "or");
  EXPECT_EQ(e.values.size(), 3u);
  EXPECT_EQ(e.values[2]->kind, ExprKind::kBoolOp);  // and-group
}

TEST(Parser, Ternary) {
  const Module m = parse("a if cond else b\n");
  EXPECT_EQ(single_expr(m).kind, ExprKind::kConditional);
}

TEST(Parser, Lambda) {
  const Module m = parse("lambda x, y=1: x + y\n");
  const auto& l = static_cast<const LambdaExpr&>(single_expr(m));
  EXPECT_EQ(l.params.size(), 2u);
  EXPECT_NE(l.body, nullptr);
}

TEST(Parser, CallForms) {
  const Module m = parse("f(1, x, *rest, key=2, **kw)\n");
  const auto& c = static_cast<const CallExpr&>(single_expr(m));
  EXPECT_EQ(c.args.size(), 3u);
  EXPECT_EQ(c.args[2]->kind, ExprKind::kStarred);
  ASSERT_EQ(c.keywords.size(), 2u);
  EXPECT_EQ(c.keywords[0].name, "key");
  EXPECT_TRUE(c.keywords[1].name.empty());
}

TEST(Parser, AttributeAndSubscriptChains) {
  const Module m = parse("a.b.c[0][1:2].d(x)\n");
  const auto& call = static_cast<const CallExpr&>(single_expr(m));
  EXPECT_EQ(call.func->kind, ExprKind::kAttribute);
}

TEST(Parser, SliceForms) {
  const Module m = parse("a[1:2:3]\n");
  const auto& s = static_cast<const SubscriptExpr&>(single_expr(m));
  const auto& sl = static_cast<const SliceExpr&>(*s.index);
  EXPECT_NE(sl.lower, nullptr);
  EXPECT_NE(sl.upper, nullptr);
  EXPECT_NE(sl.step, nullptr);

  const Module m2 = parse("a[:]\n");
  const auto& s2 = static_cast<const SubscriptExpr&>(single_expr(m2));
  const auto& sl2 = static_cast<const SliceExpr&>(*s2.index);
  EXPECT_EQ(sl2.lower, nullptr);
  EXPECT_EQ(sl2.upper, nullptr);
}

TEST(Parser, Displays) {
  EXPECT_EQ(single_expr(parse("[1, 2, 3]\n")).kind, ExprKind::kList);
  EXPECT_EQ(single_expr(parse("(1, 2)\n")).kind, ExprKind::kTuple);
  EXPECT_EQ(single_expr(parse("{1, 2}\n")).kind, ExprKind::kSet);
  EXPECT_EQ(single_expr(parse("{'a': 1}\n")).kind, ExprKind::kDict);
  EXPECT_EQ(single_expr(parse("{}\n")).kind, ExprKind::kDict);
  EXPECT_EQ(single_expr(parse("()\n")).kind, ExprKind::kTuple);
}

TEST(Parser, DictWithExpansion) {
  const Module m = parse("{'a': 1, **extra}\n");
  const auto& d = static_cast<const DictExpr&>(single_expr(m));
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_EQ(d.items[1].first, nullptr);
}

TEST(Parser, Comprehensions) {
  EXPECT_EQ(single_expr(parse("[x for x in y if x > 0]\n")).kind,
            ExprKind::kComprehension);
  const Module dict_module = parse("{k: v for k, v in items}\n");
  const auto& c = static_cast<const ComprehensionExpr&>(single_expr(dict_module));
  EXPECT_EQ(c.comp_type, "dict");
  EXPECT_NE(c.value, nullptr);
  const Module generator_module = parse("sum(x*x for x in xs)\n");
  const auto& g = static_cast<const ComprehensionExpr&>(single_expr(generator_module));
  (void)g;
  const Module nested_module = parse("[i*j for i in a for j in b]\n");
  const auto& nested = static_cast<const ComprehensionExpr&>(single_expr(nested_module));
  EXPECT_EQ(nested.clauses.size(), 2u);
}

TEST(Parser, GeneratorArgument) {
  const Module m = parse("any(v > 0 for v in vals)\n");
  const auto& call = static_cast<const CallExpr&>(single_expr(m));
  ASSERT_EQ(call.args.size(), 1u);
  EXPECT_EQ(call.args[0]->kind, ExprKind::kComprehension);
}

TEST(Parser, StringConcatenation) {
  const Module m = parse("'a' 'b' 'c'\n");
  const auto& c = static_cast<const ConstantExpr&>(single_expr(m));
  EXPECT_EQ(c.text, "abc");
}

TEST(Parser, Constants) {
  EXPECT_EQ(static_cast<const ConstantExpr&>(single_expr(parse("None\n"))).const_kind,
            ConstantKind::kNone);
  EXPECT_EQ(static_cast<const ConstantExpr&>(single_expr(parse("True\n"))).bool_value,
            true);
  EXPECT_EQ(static_cast<const ConstantExpr&>(single_expr(parse("...\n"))).const_kind,
            ConstantKind::kEllipsis);
  EXPECT_EQ(static_cast<const ConstantExpr&>(single_expr(parse("0x1F\n"))).const_kind,
            ConstantKind::kInt);
  EXPECT_EQ(static_cast<const ConstantExpr&>(single_expr(parse("1.5e3\n"))).const_kind,
            ConstantKind::kFloat);
}

TEST(Parser, WalrusInCondition) {
  // := parses as an operator token; we accept it in expressions.
  EXPECT_NO_THROW(parse("while (n := next(it)) > 0:\n    pass\n"));
}

TEST(Parser, SingleLineSuite) {
  const Module m = parse("if x: y = 1\n");
  const auto& i = static_cast<const IfStmt&>(*m.body[0]);
  EXPECT_EQ(i.body.size(), 1u);
}

TEST(Parser, ParseExpressionEntryPoint) {
  const ExprPtr e = parse_expression("1 + 2");
  EXPECT_EQ(e->kind, ExprKind::kBinOp);
  EXPECT_THROW(parse_expression("1 +"), SyntaxError);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_THROW(parse("def f(:\n    pass\n"), SyntaxError);
  EXPECT_THROW(parse("import\n"), SyntaxError);
  EXPECT_THROW(parse("from import x\n"), SyntaxError);
  EXPECT_THROW(parse("x = = 2\n"), SyntaxError);
  EXPECT_THROW(parse("if x\n    pass\n"), SyntaxError);
  EXPECT_THROW(parse("def f():\n"), SyntaxError);  // missing body
}

TEST(Parser, LineNumbersOnStatements) {
  const Module m = parse("x = 1\n\n\ny = 2\n");
  EXPECT_EQ(m.body[0]->line, 1);
  EXPECT_EQ(m.body[1]->line, 4);
}

TEST(Parser, RealisticParslSnippet) {
  const char* src = R"(
import parsl
from parsl import python_app

@python_app
def process(data, threshold=0.5):
    import numpy as np
    from sklearn.cluster import KMeans
    arr = np.asarray(data)
    model = KMeans(n_clusters=2)
    labels = model.fit_predict(arr.reshape(-1, 1))
    return [int(l) for l in labels if l >= threshold]

futures = [process(chunk) for chunk in chunks]
results = [f.result() for f in futures]
)";
  const Module m = parse(src);
  EXPECT_EQ(m.body.size(), 5u);
  const auto& fn = as_fn(m.body[2]);
  EXPECT_EQ(fn.name, "process");
  EXPECT_EQ(fn.decorators.size(), 1u);
}

}  // namespace
}  // namespace lfm::pysrc
