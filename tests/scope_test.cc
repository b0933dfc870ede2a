// Tests for scope analysis and the self-containment check.
#include <gtest/gtest.h>

#include "pysrc/parser.h"
#include "pysrc/scope.h"
#include "util/error.h"

namespace lfm::pysrc {
namespace {

ScopeReport analyze(const char* src, const char* fn = "f") {
  return analyze_function_scope(parse_module(src), fn);
}

TEST(Scope, ParametersAreBound) {
  const auto report = analyze("def f(a, b=1, *args, **kw):\n    return a + b\n");
  EXPECT_TRUE(report.bound.count("a"));
  EXPECT_TRUE(report.bound.count("b"));
  EXPECT_TRUE(report.bound.count("args"));
  EXPECT_TRUE(report.bound.count("kw"));
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, AssignmentsBind) {
  const auto report = analyze("def f():\n    x = 1\n    y, z = 2, 3\n    return x + y + z\n");
  EXPECT_TRUE(report.bound.count("x"));
  EXPECT_TRUE(report.bound.count("y"));
  EXPECT_TRUE(report.bound.count("z"));
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, ImportsBindVisibleName) {
  const auto report = analyze(
      "def f():\n"
      "    import numpy as np\n"
      "    import os.path\n"
      "    from math import sqrt\n"
      "    return np, os, sqrt\n");
  EXPECT_TRUE(report.bound.count("np"));
  EXPECT_TRUE(report.bound.count("os"));     // import os.path binds 'os'
  EXPECT_TRUE(report.bound.count("sqrt"));
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, FreeNamesDetected) {
  const auto report = analyze("def f(x):\n    return x + MODULE_CONSTANT\n");
  const auto free = report.free_names(default_builtins());
  EXPECT_EQ(free, (std::set<std::string>{"MODULE_CONSTANT"}));
}

TEST(Scope, BuiltinsNotFree) {
  const auto report = analyze("def f(xs):\n    return [len(x) for x in sorted(xs)]\n");
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, ForAndWithTargetsBind) {
  const auto report = analyze(
      "def f(items, path):\n"
      "    total = 0\n"
      "    for k, v in items:\n"
      "        total += v\n"
      "    with open(path) as fh:\n"
      "        data = fh.read()\n"
      "    return total, data\n");
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, ExceptionNameBinds) {
  const auto report = analyze(
      "def f():\n    try:\n        pass\n    except ValueError as e:\n        return e\n");
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, ComprehensionTargetsBind) {
  const auto report = analyze("def f(rows):\n    return {k: v for k, v in rows}\n");
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, LambdaParamsDoNotLeakAsFree) {
  const auto report = analyze("def f(xs):\n    return sorted(xs, key=lambda p: p[1])\n");
  EXPECT_TRUE(report.free_names(default_builtins()).empty());
}

TEST(Scope, GlobalDeclarationIsFree) {
  const auto report = analyze("def f():\n    global counter\n    counter = 1\n");
  const auto free = report.free_names(default_builtins());
  EXPECT_TRUE(free.count("counter"));
}

TEST(Scope, NestedFunctionFreeNamesPropagate) {
  const auto report = analyze(
      "def f(x):\n"
      "    def inner(y):\n"
      "        return y + x + OUTSIDE\n"
      "    return inner\n");
  const auto free = report.free_names(default_builtins());
  // x is bound by f; OUTSIDE is genuinely free.
  EXPECT_TRUE(free.count("OUTSIDE"));
  EXPECT_FALSE(free.count("y"));
  // NOTE: our conservative nested handling re-reports x as referenced but
  // it is bound in f, so it must not be free.
  EXPECT_FALSE(free.count("x"));
}

TEST(Scope, AugmentedAssignReadsFirst) {
  const auto report = analyze("def f():\n    acc += 1\n    return acc\n");
  // acc is read before any binding: referenced; it IS also bound (by the
  // augassign), so strictly it is a local-used-before-assignment bug.
  // We at least record the reference.
  EXPECT_TRUE(report.referenced.count("acc"));
}

TEST(SelfContained, AcceptsProperParslApp) {
  const char* src = R"(
def process(data, threshold=0.5):
    import numpy as np
    arr = np.asarray(data)
    return [float(v) for v in arr if v > threshold]
)";
  std::set<std::string> offenders;
  EXPECT_TRUE(is_self_contained(parse_module(src), "process", &offenders));
  EXPECT_TRUE(offenders.empty());
}

TEST(SelfContained, RejectsGlobalDependence) {
  const char* src = R"(
MODEL = load_model()

def predict(batch):
    import numpy as np
    return MODEL.run(np.asarray(batch))
)";
  std::set<std::string> offenders;
  EXPECT_FALSE(is_self_contained(parse_module(src), "predict", &offenders));
  EXPECT_TRUE(offenders.count("MODEL"));
}

TEST(SelfContained, HelperFunctionReferenceCaught) {
  const char* src = R"(
def helper(x):
    return x * 2

def target(x):
    return helper(x) + 1
)";
  std::set<std::string> offenders;
  EXPECT_FALSE(is_self_contained(parse_module(src), "target", &offenders));
  EXPECT_TRUE(offenders.count("helper"));
}

TEST(Scope, MissingFunctionThrows) {
  EXPECT_THROW(analyze_function_scope(parse_module("x = 1\n"), "nope"), Error);
}

TEST(Scope, MethodInsideClassFound) {
  const char* src = R"(
class Pipeline:
    def stage(self, data):
        import json
        return json.dumps(data)
)";
  std::set<std::string> offenders;
  EXPECT_TRUE(is_self_contained(parse_module(src), "stage", &offenders)) <<
      [&] { std::string s; for (const auto& o : offenders) s += o + " "; return s; }();
}

TEST(Scope, DefUnderModuleLevelIfFound) {
  const char* src = R"(
X = 3
if True:
    def f(a):
        return a + X
else:
    def g(a):
        return a
)";
  std::set<std::string> offenders;
  EXPECT_FALSE(is_self_contained(parse_module(src), "f", &offenders));
  EXPECT_EQ(offenders, std::set<std::string>{"X"});
  EXPECT_TRUE(is_self_contained(parse_module(src), "g", &offenders));
}

}  // namespace
}  // namespace lfm::pysrc
