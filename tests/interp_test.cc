// Tests for the mini-Python interpreter: Python semantics of the supported
// subset, error behaviour, and the function-shipping use case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <random>
#include <thread>

#include "monitor/lfm.h"
#include "pysrc/interp.h"
#include "pysrc/parse_cache.h"
#include "pysrc/unparse.h"
#include "util/hash.h"

namespace lfm::pysrc {
namespace {

using serde::Value;
using serde::ValueDict;
using serde::ValueList;

// Evaluate one expression in a fresh interpreter.
Value ev(const std::string& expr) {
  Interpreter interp;
  return interp.eval_expression_source(expr);
}

// Run a module then return the global `result`.
Value run(const std::string& source) {
  Interpreter interp;
  interp.exec_source(source);
  return interp.global("result");
}

TEST(Interp, ArithmeticSemantics) {
  EXPECT_EQ(ev("1 + 2 * 3").as_int(), 7);
  EXPECT_EQ(ev("2 ** 10").as_int(), 1024);
  EXPECT_DOUBLE_EQ(ev("7 / 2").as_real(), 3.5);       // true division
  EXPECT_EQ(ev("7 // 2").as_int(), 3);                // floor division
  EXPECT_EQ(ev("-7 // 2").as_int(), -4);              // floors toward -inf
  EXPECT_EQ(ev("-7 % 3").as_int(), 2);                // sign of divisor
  EXPECT_EQ(ev("7 % -3").as_int(), -2);
  EXPECT_DOUBLE_EQ(ev("2 ** -1").as_real(), 0.5);
  EXPECT_EQ(ev("0x1F + 0b101 + 0o17").as_int(), 31 + 5 + 15);
  EXPECT_EQ(ev("10_000 + 1").as_int(), 10001);
  EXPECT_EQ(ev("5 & 3").as_int(), 1);
  EXPECT_EQ(ev("1 << 10").as_int(), 1024);
}

TEST(Interp, DivisionByZeroRaises) {
  EXPECT_THROW(ev("1 / 0"), PyError);
  EXPECT_THROW(ev("1 // 0"), PyError);
  EXPECT_THROW(ev("1 % 0"), PyError);
}

TEST(Interp, StringOperations) {
  EXPECT_EQ(ev("'ab' + 'cd'").as_str(), "abcd");
  EXPECT_EQ(ev("'ab' * 3").as_str(), "ababab");
  EXPECT_EQ(ev("'hello'[1]").as_str(), "e");
  EXPECT_EQ(ev("'hello'[-1]").as_str(), "o");
  EXPECT_EQ(ev("'hello'[1:4]").as_str(), "ell");
  EXPECT_EQ(ev("'hello'[::-1]").as_str(), "olleh");
  EXPECT_TRUE(ev("'ell' in 'hello'").as_bool());
  EXPECT_TRUE(ev("'a' < 'b'").as_bool());
}

TEST(Interp, ComparisonChainsAndBoolOps) {
  EXPECT_TRUE(ev("1 < 2 < 3").as_bool());
  EXPECT_FALSE(ev("1 < 2 > 3").as_bool());
  EXPECT_EQ(ev("0 or 'fallback'").as_str(), "fallback");  // returns operand
  EXPECT_EQ(ev("1 and 2").as_int(), 2);
  EXPECT_FALSE(ev("not 1").as_bool());
  EXPECT_TRUE(ev("None is None").as_bool());
  EXPECT_TRUE(ev("1 == 1.0").as_bool());  // numeric cross-type equality
}

TEST(Interp, ListsAndSlices) {
  EXPECT_EQ(ev("[1, 2] + [3]").repr(), "[1, 2, 3]");
  EXPECT_EQ(ev("[0] * 3").repr(), "[0, 0, 0]");
  EXPECT_EQ(ev("[1, 2, 3][-1]").as_int(), 3);
  EXPECT_EQ(ev("[1, 2, 3, 4][1:3]").repr(), "[2, 3]");
  EXPECT_EQ(ev("[1, 2, 3, 4][::2]").repr(), "[1, 3]");
  EXPECT_TRUE(ev("2 in [1, 2]").as_bool());
  EXPECT_THROW(ev("[1][5]"), PyError);  // IndexError
}

TEST(Interp, DictOperations) {
  EXPECT_EQ(ev("{'a': 1}['a']").as_int(), 1);
  EXPECT_TRUE(ev("'a' in {'a': 1}").as_bool());
  EXPECT_THROW(ev("{'a': 1}['b']"), PyError);  // KeyError
  EXPECT_EQ(ev("{'a': 1, **{'b': 2}}").as_dict().size(), 2u);
}

TEST(Interp, VariablesAndAssignment) {
  EXPECT_EQ(run("x = 1\ny = x + 1\nresult = x * 10 + y\n").as_int(), 12);
  EXPECT_EQ(run("a = b = 5\nresult = a + b\n").as_int(), 10);
  EXPECT_EQ(run("a, b = 1, 2\na, b = b, a\nresult = [a, b]\n").repr(), "[2, 1]");
  EXPECT_EQ(run("x = 10\nx += 5\nx *= 2\nresult = x\n").as_int(), 30);
  EXPECT_EQ(run("xs = [1, 2, 3]\nxs[1] = 99\nresult = xs\n").repr(), "[1, 99, 3]");
  EXPECT_EQ(run("d = {}\nd['k'] = 7\nd['k'] += 1\nresult = d['k']\n").as_int(), 8);
}

TEST(Interp, ControlFlow) {
  EXPECT_EQ(run(R"(
total = 0
for i in range(10):
    if i % 2 == 0:
        continue
    if i > 7:
        break
    total += i
result = total
)").as_int(), 1 + 3 + 5 + 7);

  EXPECT_EQ(run(R"(
n = 0
while n < 100:
    n = n * 2 + 1
result = n
)").as_int(), 127);

  EXPECT_EQ(run(R"(
found = False
for x in [1, 2, 3]:
    if x == 99:
        found = True
        break
else:
    found = 'exhausted'
result = found
)").as_str(), "exhausted");
}

TEST(Interp, FunctionsAndRecursion) {
  Interpreter interp;
  interp.exec_source(R"(
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def greet(name, punct='!'):
    return 'hello ' + name + punct

def total(*values):
    acc = 0
    for v in values:
        acc += v
    return acc
)");
  EXPECT_EQ(interp.call("fib", {Value(15)}).as_int(), 610);
  EXPECT_EQ(interp.call("greet", {Value("world")}).as_str(), "hello world!");
  EXPECT_EQ(interp.call("greet", {Value("x"), Value("?")}).as_str(), "hello x?");
  EXPECT_EQ(interp.call("total", {Value(1), Value(2), Value(3)}).as_int(), 6);
  EXPECT_THROW(interp.call("fib", {}), PyError);  // missing argument
  EXPECT_THROW(interp.call("nope", {}), PyError);
}

TEST(Interp, RecursionLimit) {
  InterpOptions options;
  options.max_recursion_depth = 16;
  Interpreter interp(options);
  interp.exec_source("def loop(n):\n    return loop(n + 1)\n");
  try {
    interp.call("loop", {Value(0)});
    FAIL() << "expected RecursionError";
  } catch (const PyError& e) {
    EXPECT_EQ(e.type_name, "RecursionError");
  }
}

TEST(Interp, StepBudgetStopsInfiniteLoop) {
  InterpOptions options;
  options.max_steps = 10000;
  Interpreter interp(options);
  EXPECT_THROW(interp.exec_source("while True:\n    pass\n"), PyError);
}

TEST(Interp, Comprehensions) {
  EXPECT_EQ(ev("[x * x for x in range(5)]").repr(), "[0, 1, 4, 9, 16]");
  EXPECT_EQ(ev("[x for x in range(10) if x % 3 == 0]").repr(), "[0, 3, 6, 9]");
  EXPECT_EQ(ev("[i * j for i in [1, 2] for j in [10, 20]]").repr(),
            "[10, 20, 20, 40]");
  EXPECT_EQ(ev("{str(x): x * 2 for x in range(3)}").repr(),
            "{'0': 0, '1': 2, '2': 4}");
  EXPECT_EQ(ev("sum(x for x in range(101))").as_int(), 5050);
}

TEST(Interp, LambdasAndSortedKey) {
  EXPECT_EQ(ev("(lambda a, b: a * b)(6, 7)").as_int(), 42);
  Interpreter interp;
  interp.exec_source(R"(
pairs = [['b', 2], ['a', 3], ['c', 1]]
by_name = sorted(pairs, key=lambda p: p[0])
by_count = sorted(pairs, key=lambda p: p[1], reverse=True)
result = [by_name[0][0], by_count[0][0]]
)");
  EXPECT_EQ(interp.global("result").repr(), "['a', 'a']");
}

TEST(Interp, ClosuresCaptureByValue) {
  EXPECT_EQ(run(R"(
def make_adder(k):
    return lambda x: x + k

add5 = make_adder(5)
result = add5(37)
)").as_int(), 42);
}

TEST(Interp, Builtins) {
  EXPECT_EQ(ev("len('hello')").as_int(), 5);
  EXPECT_EQ(ev("len([1, 2])").as_int(), 2);
  EXPECT_EQ(ev("min(3, 1, 2)").as_int(), 1);
  EXPECT_EQ(ev("max([3, 1, 2])").as_int(), 3);
  EXPECT_EQ(ev("sum([1, 2, 3])").as_int(), 6);
  EXPECT_EQ(ev("sorted([3, 1, 2])").repr(), "[1, 2, 3]");
  EXPECT_EQ(ev("abs(-5)").as_int(), 5);
  EXPECT_EQ(ev("int('42')").as_int(), 42);
  EXPECT_EQ(ev("int('ff', 16)").as_int(), 255);
  EXPECT_DOUBLE_EQ(ev("float('2.5')").as_real(), 2.5);
  EXPECT_EQ(ev("str(42)").as_str(), "42");
  EXPECT_EQ(ev("round(2.675, 2)").as_real(), 2.68);
  EXPECT_EQ(ev("round(2.5)").as_int(), 3);
  EXPECT_TRUE(ev("any([0, 0, 1])").as_bool());
  EXPECT_FALSE(ev("all([1, 0])").as_bool());
  EXPECT_EQ(ev("list(enumerate(['a', 'b']))").repr(), "[[0, 'a'], [1, 'b']]");
  EXPECT_EQ(ev("list(zip([1, 2], ['a', 'b', 'c']))").repr(), "[[1, 'a'], [2, 'b']]");
  EXPECT_THROW(ev("int('nope')"), PyError);
}

TEST(Interp, UserFunctionShadowsBuiltin) {
  EXPECT_EQ(run("def len(x):\n    return 99\nresult = len('abc')\n").as_int(), 99);
}

TEST(Interp, MethodsMutateInPlace) {
  EXPECT_EQ(run(R"(
xs = [3, 1]
xs.append(2)
xs.sort()
xs.extend([10])
xs.insert(0, 0)
popped = xs.pop()
result = [xs, popped]
)").repr(), "[[0, 1, 2, 3], 10]");

  EXPECT_EQ(run(R"(
d = {'a': 1}
d.update({'b': 2})
d.setdefault('c', 3)
result = [d.get('b'), d.get('zz', -1), sorted(d.keys())]
)").repr(), "[2, -1, ['a', 'b', 'c']]");
}

TEST(Interp, StringMethods) {
  EXPECT_EQ(ev("'a,b,,c'.split(',')").repr(), "['a', 'b', '', 'c']");
  EXPECT_EQ(ev("'  a b  c '.split()").repr(), "['a', 'b', 'c']");
  EXPECT_EQ(ev("'-'.join(['a', 'b'])").as_str(), "a-b");
  EXPECT_EQ(ev("'MiXeD'.lower()").as_str(), "mixed");
  EXPECT_EQ(ev("' pad '.strip()").as_str(), "pad");
  EXPECT_TRUE(ev("'conda-pack'.startswith('conda')").as_bool());
  EXPECT_EQ(ev("'aXbXc'.replace('X', '-')").as_str(), "a-b-c");
  EXPECT_EQ(ev("'hello'.find('ll')").as_int(), 2);
  EXPECT_EQ(ev("'banana'.count('an')").as_int(), 2);
  EXPECT_TRUE(ev("'123'.isdigit()").as_bool());
}

TEST(Interp, ExceptionsRaiseAndCatch) {
  EXPECT_EQ(run(R"(
def checked_div(a, b):
    if b == 0:
        raise ValueError('b must not be zero')
    return a / b

try:
    checked_div(1, 0)
    result = 'no error'
except ValueError as e:
    result = 'caught'
except:
    result = 'wrong handler'
)").as_str(), "caught");

  EXPECT_EQ(run(R"(
log = []
try:
    log.append('body')
    raise KeyError('k')
except (TypeError, KeyError):
    log.append('handler')
finally:
    log.append('finally')
result = log
)").repr(), "['body', 'handler', 'finally']");

  // Uncaught in-language exceptions surface as PyError.
  Interpreter interp;
  try {
    interp.exec_source("raise RuntimeError('boom')\n");
    FAIL();
  } catch (const PyError& e) {
    EXPECT_EQ(e.type_name, "RuntimeError");
  }
}

TEST(Interp, TryExceptImportErrorFallback) {
  // The exact §V.B pattern: optional dependency with a fallback.
  EXPECT_EQ(run(R"(
try:
    import ujson as json_mod
    result = 'ujson'
except ImportError:
    import json as json_mod
    result = 'stdlib json'
)").as_str(), "stdlib json");
}

TEST(Interp, MathAndJsonModules) {
  Interpreter interp;
  interp.exec_source(R"(
import math
from math import sqrt
root = sqrt(16)
area = math.pi * 2 ** 2
floored = math.floor(3.9)
import json
encoded = json.dumps({'a': [1, 2]})
)");
  EXPECT_DOUBLE_EQ(interp.global("root").as_real(), 4.0);
  EXPECT_NEAR(interp.global("area").as_real(), 12.566, 1e-3);
  EXPECT_EQ(interp.global("floored").as_int(), 3);
  EXPECT_EQ(interp.global("encoded").as_str(), "{\"a\":[1,2]}");
}

TEST(Interp, PrintCaptured) {
  Interpreter interp;
  interp.exec_source("print('hello', 42, [1])\nprint('next')\n");
  EXPECT_EQ(interp.output(), "hello 42 [1]\nnext\n");
  interp.clear_output();
  EXPECT_TRUE(interp.output().empty());
}

TEST(Interp, GlobalStatement) {
  EXPECT_EQ(run(R"(
counter = 0

def bump():
    global counter
    counter += 1

bump()
bump()
result = counter
)").as_int(), 2);
}

TEST(Interp, AssertStatement) {
  EXPECT_NO_THROW(run("assert 1 + 1 == 2\nresult = 1\n"));
  try {
    run("assert 1 == 2, 'math is broken'\nresult = 1\n");
    FAIL();
  } catch (const PyError& e) {
    EXPECT_EQ(e.type_name, "AssertionError");
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
  }
}

TEST(Interp, DelStatement) {
  EXPECT_EQ(run(R"(
xs = [1, 2, 3]
del xs[1]
d = {'a': 1, 'b': 2}
del d['a']
result = [xs, sorted(d.keys())]
)").repr(), "[[1, 3], ['b']]");
  EXPECT_THROW(run("x = 1\ndel x\nresult = x\n"), PyError);
}

TEST(Interp, UnsupportedConstructsRaiseCleanly) {
  EXPECT_THROW(run("class C:\n    pass\nresult = 1\n"), PyError);
  EXPECT_THROW(run("with open('f') as fh:\n    pass\nresult = 1\n"), PyError);
  EXPECT_THROW(run("def g():\n    yield 1\nresult = g()\n"), PyError);
}

TEST(Interp, ValueSemanticsDocumentedDivergence) {
  // ys = xs copies (unlike CPython); mutation of ys leaves xs alone.
  EXPECT_EQ(run(R"(
xs = [1]
ys = xs
ys.append(2)
result = [len(xs), len(ys)]
)").repr(), "[1, 2]");
}

TEST(Interp, RunShippedFunctionSource) {
  // The function-shipping flow: extract a def from "user code", run it in a
  // fresh interpreter with pickled-style args.
  const char* user_module = R"(
import parsl

def process(values, threshold):
    kept = [v for v in values if v >= threshold]
    return {'count': len(kept), 'total': sum(kept)}

def other():
    return 0
)";
  const std::string shipped = extract_function_source(user_module, "process");
  const Value result = run_python_function(
      shipped, "process",
      {Value(ValueList{Value(1), Value(5), Value(10)}), Value(4)});
  EXPECT_EQ(result.at("count").as_int(), 2);
  EXPECT_EQ(result.at("total").as_int(), 15);
}

TEST(Interp, WalrusOperator) {
  EXPECT_EQ(run(R"(
total = 0
values = [1, 2, 3, 4]
i = 0
while (n := len(values) - i) > 0:
    total += n
    i += 1
result = total
)").as_int(), 10);
}

TEST(Interp, StarArgsSpread) {
  Interpreter interp;
  interp.exec_source(R"(
def add3(a, b, c):
    return a + b + c

args = [1, 2, 3]
result = add3(*args)
)");
  EXPECT_EQ(interp.global("result").as_int(), 6);
}

TEST(Interp, SetLiteralDeduplicates) {
  EXPECT_EQ(ev("sorted({3, 1, 3, 2, 1})").repr(), "[1, 2, 3]");
}


TEST(Interp, FStrings) {
  Interpreter interp;
  interp.exec_source(R"(
name = 'theta'
cores = 64
usage = 0.8567
msg = f'site {name} has {cores} cores'
math_field = f'{cores * 2} total'
pct = f'{usage:.1f} load'
braces = f'{{literal}} and {name}'
nested = f'first {sorted([3, 1])[0]}'
)");
  EXPECT_EQ(interp.global("msg").as_str(), "site theta has 64 cores");
  EXPECT_EQ(interp.global("math_field").as_str(), "128 total");
  EXPECT_EQ(interp.global("pct").as_str(), "0.9 load");
  EXPECT_EQ(interp.global("braces").as_str(), "{literal} and theta");
  EXPECT_EQ(interp.global("nested").as_str(), "first 1");
}

TEST(Interp, FStringErrors) {
  EXPECT_THROW(run("result = f'broken {x'\n"), Error);  // unterminated field
  EXPECT_THROW(run("result = f'}'\n"), Error);          // stray close
  EXPECT_THROW(run("result = f'{}'\n"), Error);         // empty expression
}

TEST(Interp, FStringInFunction) {
  const Value v = run(R"(
def report(task, mem):
    return f'task {task}: {mem / 1000000:.1f} MB'

result = report('hep-001', 84000000)
)");
  EXPECT_EQ(v.as_str(), "task hep-001: 84.0 MB");
}

// --- int64 arithmetic ------------------------------------------------------------

// Expressions whose int result leaves int64: each raises OverflowError.
const char* const kOverflows[] = {
    "(-9223372036854775807 - 1) // -1",
    "9223372036854775807 + 1",
    "-9223372036854775807 - 2",
    "3037000500 * 3037000500",
    "sum([9223372036854775807, 1])",
    "-(-9223372036854775807 - 1)",
    "abs(-9223372036854775807 - 1)",
    "2 ** 64",
    "1 << 64",
    "1 << 63",
    "int(1e30)",
    "round(1e30)",
    "int('99999999999999999999')",
    "99999999999999999999",
};

TEST(Interp, IntOverflowRaisesOverflowError) {
  for (const char* expr : kOverflows) {
    SCOPED_TRACE(expr);
    try {
      ev(expr);
      FAIL() << "expected OverflowError";
    } catch (const PyError& e) {
      EXPECT_EQ(e.type_name, "OverflowError");
    }
  }
}

TEST(Interp, IntOverflowIsCatchableInLanguage) {
  for (const char* expr : kOverflows) {
    SCOPED_TRACE(expr);
    EXPECT_EQ(run(std::string("try:\n    result = ") + expr +
                  "\nexcept OverflowError:\n    result = 'caught'\n")
                  .as_str(),
              "caught");
  }
}

TEST(Interp, IntArithmeticAtTheInt64Edges) {
  EXPECT_EQ(ev("(-9223372036854775807 - 1) % -1").as_int(), 0);  // as in Python
  EXPECT_EQ(ev("-9223372036854775807 - 1").as_int(), INT64_MIN);
  EXPECT_EQ(ev("(-2) ** 63").as_int(), INT64_MIN);
  EXPECT_EQ(ev("2 ** 62").as_int(), int64_t{1} << 62);
  EXPECT_EQ(ev("1 << 62").as_int(), int64_t{1} << 62);
  EXPECT_EQ(ev("-1 << 63").as_int(), INT64_MIN);
  EXPECT_EQ(ev("0 << 100").as_int(), 0);
  EXPECT_EQ(ev("-1 >> 100").as_int(), -1);
  EXPECT_EQ(ev("5 >> 64").as_int(), 0);
  EXPECT_EQ(ev("abs(-9223372036854775807)").as_int(), INT64_MAX);
  for (const char* expr : {"1 << -1", "1 >> -1"}) {
    SCOPED_TRACE(expr);
    try {
      ev(expr);
      FAIL() << "expected ValueError";
    } catch (const PyError& e) {
      EXPECT_EQ(e.type_name, "ValueError");
    }
  }
}

// fib(27) makes 832,039 calls by name. Under the LFM, as a worker runs it,
// it may grow the task by no more than 32 MiB over fib(1): the LFM charges
// a function for its memory, not for how many calls it made. Under
// Address- or ThreadSanitizer the runtime's allocator (ASan's quarantine
// keeps freed blocks resident) and shadow memory make RSS track bytes
// allocated rather than live, so the limit is not applied there.
TEST(Interp, RecursiveCallsByNameKeepMemoryFlat) {
  const auto module = parse_module_shared(R"(
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
)");
  const monitor::TaskFn fib = [&module](const Value& args) {
    return run_python_function(module, "fib", args.as_list());
  };
  const monitor::TaskOutcome small = monitor::run_monitored(fib, Value(ValueList{Value(1)}));
  ASSERT_TRUE(small.ok()) << small.error;
  monitor::MonitorOptions options;
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  options.limits.memory_bytes = small.usage.max_rss_bytes + (int64_t{32} << 20);
#endif
  const monitor::TaskOutcome outcome =
      monitor::run_monitored(fib, Value(ValueList{Value(27)}), options);
  ASSERT_TRUE(outcome.ok()) << monitor::task_status_name(outcome.status) << ": "
                            << outcome.error;
  EXPECT_EQ(outcome.result.as_int(), 196418);
}

// The parse cache gives every thread the same resolved tree, including the
// error an oversized literal raises; evaluating it concurrently must agree.
TEST(Interp, SharedModuleEvaluatesOnManyThreads) {
  const auto module = parse_module_shared(R"(
def f(n):
    total = 0
    for i in range(n):
        total += i
    try:
        return [total, 99999999999999999999]
    except OverflowError:
        return [total, 'overflow']
)");
  std::atomic<int> agreed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&module, &agreed] {
      for (int k = 0; k < 200; ++k) {
        if (run_python_function(module, "f", {Value(10)}).repr() == "[45, 'overflow']") {
          ++agreed;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(agreed.load(), 800);
}

// --- names, frames and loops ---------------------------------------------------------

TEST(Interp, WalrusInSubscriptKeepsTheFrameIntact) {
  EXPECT_EQ(run(R"(
def f():
    xs = [0, 0, 0]
    xs[(k := 2)] = 7
    xs[(j := 1)] += 5
    return [xs, k, j]

result = f()
)").repr(), "[[0, 5, 7], 2, 1]");
}

TEST(Interp, NameScopes) {
  // A global counter updated with += inside a function.
  EXPECT_EQ(run(R"(
count = 0

def bump(n):
    global count
    for i in range(n):
        count += 1

bump(3)
bump(4)
result = count
)").as_int(), 7);
  // A local shadows a global of the same name.
  EXPECT_EQ(run(R"(
x = 'global'

def f():
    x = 'local'
    return x

result = [f(), x]
)").repr(), "['local', 'global']");
  // del of a local: later reads fall back to the global, or raise.
  EXPECT_EQ(run(R"(
y = 'global'

def f():
    y = 'local'
    z = 1
    del y
    del z
    try:
        return [y, z]
    except NameError:
        return [y, 'no z']

result = f()
)").repr(), "['global', 'no z']");
}

// Each module numbers its names on its own; one interpreter running two
// modules and an expression still finds each name's one binding.
TEST(Interp, ModulesShareGlobalsAcrossExecs) {
  Interpreter interp;
  interp.exec_source("def double(x):\n    return 2 * x\nbase = 5\n");
  interp.exec_source("def quad(y):\n    return double(double(y)) + base\n");
  EXPECT_EQ(interp.call("quad", {Value(3)}).as_int(), 17);
  interp.set_global("extra", Value(100));
  EXPECT_EQ(interp.eval_expression_source("quad(base) + extra").as_int(), 125);
}

TEST(Interp, BindingsShadowDefsOfTheSameName) {
  EXPECT_EQ(run(R"(
def f():
    return 1

f = lambda: 2
result = f()
)").as_int(), 2);
  EXPECT_EQ(run(R"(
def g():
    return 1

def f():
    g = lambda: 3
    return g()

result = [f(), g()]
)").repr(), "[3, 1]");
}

TEST(Interp, ForOverRange) {
  EXPECT_EQ(run(R"(
out = []
for i in range(3):
    out.append(i)
for i in range(2, 5):
    out.append(i)
for i in range(1, 10, 4):
    out.append(i)
for i in range(5, 0, -2):
    out.append(i)
for i in range(0):
    out.append('body')
else:
    out.append('else')
for i in range(10):
    if i == 1:
        break
else:
    out.append('not reached')
result = out
)").repr(), "[0, 1, 2, 2, 3, 4, 1, 5, 9, 5, 3, 1, 'else']");
  EXPECT_EQ(run(R"(
try:
    for i in range(1, 5, 0):
        pass
    result = 'no error'
except ValueError:
    result = 'ValueError'
)").as_str(), "ValueError");
  // The bounds are evaluated once.
  EXPECT_EQ(run(R"(
n = 3
trips = 0
for i in range(n):
    n = 100
    trips += 1
result = [trips, n]
)").repr(), "[3, 100]");
  // A def named range replaces the builtin.
  EXPECT_EQ(run(R"(
def range(n):
    return [7]

result = []
for x in range(3):
    result.append(x)
)").repr(), "[7]");
}

TEST(Interp, StepBudgetStopsCountedLoop) {
  InterpOptions options;
  options.max_steps = 10000;
  Interpreter interp(options);
  try {
    interp.exec_source("for i in range(10 ** 12):\n    pass\n");
    FAIL() << "expected the step budget to stop the loop";
  } catch (const PyError& e) {
    EXPECT_EQ(e.type_name, "RuntimeError");
  }
}

// --- differential: the benchmark's functions against the same arithmetic in C++ ---

// The three functions of the py-short benchmark workload.
const char* const kPyShortModule = R"(
def mix(a, b, n):
    acc = 0
    for i in range(n):
        acc = (acc * 31 + a + i * b) % 1000003
    return {'sum': a + b, 'prod': a * b, 'acc': acc}

def stats(xs, reps):
    s = sorted(xs)
    total = 0
    for r in range(reps):
        for x in s:
            total = (total + x * x + r) % 1000003
    return {'n': len(s), 'lo': s[0], 'hi': s[len(s) - 1], 'sumsq': total}

def horner(coeffs, x, reps):
    acc = 0
    for r in range(reps):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c + r) % 1000003
    return {'x': x, 'value': acc, 'terms': len(coeffs)}
)";

int64_t py_mod(int64_t a, int64_t m) {
  const int64_t r = a % m;
  return r != 0 && ((r < 0) != (m < 0)) ? r + m : r;
}

TEST(Interp, PyShortFunctionsMatchNativeArithmetic) {
  constexpr int64_t kM = 1000003;
  const auto module = parse_module_shared(kPyShortModule);
  std::mt19937_64 rng(20261017);
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE(trial);
    std::string function;
    ValueList args;
    ValueDict expected;
    switch (trial % 3) {
      case 0: {
        const int64_t a = uniform(0, 999999), b = uniform(0, 999999), n = uniform(0, 600);
        int64_t acc = 0;
        for (int64_t i = 0; i < n; ++i) acc = py_mod(acc * 31 + a + i * b, kM);
        function = "mix";
        args = {Value(a), Value(b), Value(n)};
        expected = {{"sum", Value(a + b)}, {"prod", Value(a * b)}, {"acc", Value(acc)}};
        break;
      }
      case 1: {
        std::vector<int64_t> xs(static_cast<size_t>(uniform(16, 32)));
        for (auto& x : xs) x = uniform(-1000, 1000);
        const int64_t reps = uniform(0, 30);
        ValueList values;
        for (const int64_t x : xs) values.push_back(Value(x));
        std::sort(xs.begin(), xs.end());
        int64_t total = 0;
        for (int64_t r = 0; r < reps; ++r) {
          for (const int64_t x : xs) total = py_mod(total + x * x + r, kM);
        }
        function = "stats";
        args = {Value(std::move(values)), Value(reps)};
        expected = {{"n", Value(static_cast<int64_t>(xs.size()))},
                    {"lo", Value(xs.front())},
                    {"hi", Value(xs.back())},
                    {"sumsq", Value(total)}};
        break;
      }
      default: {
        std::vector<int64_t> coeffs(static_cast<size_t>(uniform(4, 10)));
        for (auto& c : coeffs) c = uniform(-9, 9);
        const int64_t x = uniform(-5, 5), reps = uniform(0, 90);
        ValueList values;
        for (const int64_t c : coeffs) values.push_back(Value(c));
        int64_t acc = 0;
        for (int64_t r = 0; r < reps; ++r) {
          acc = 0;
          for (const int64_t c : coeffs) acc = py_mod(acc * x + c + r, kM);
        }
        function = "horner";
        args = {Value(std::move(values)), Value(x), Value(reps)};
        expected = {{"x", Value(x)},
                    {"value", Value(acc)},
                    {"terms", Value(static_cast<int64_t>(coeffs.size()))}};
        break;
      }
    }
    EXPECT_EQ(run_python_function(module, function, args).repr(),
              Value(std::move(expected)).repr())
        << function;
  }
}


// --- the int path: the same results, errors and steps as boxed evaluation -------

// What calling `function` of `source` gives: the result's repr, or the
// error's text.
std::string outcome(const std::string& source, const std::string& function = "f",
                    std::vector<Value> args = {}) {
  Interpreter interp;
  interp.exec_source(source);
  try {
    return interp.call(function, std::move(args)).repr();
  } catch (const PyError& e) {
    return e.what();
  }
}

TEST(Interp, OverflowInsideAnIntExpressionNamesItsOperator) {
  const char* const source = "def f(a, b, c):\n    return a * b + c\n";
  const Value big(int64_t{3037000500});  // big * big > INT64_MAX
  EXPECT_EQ(outcome(source, "f", {big, big, Value(1)}),
            "OverflowError: result of '*' does not fit in int64");
  EXPECT_EQ(outcome(source, "f", {Value(1), Value(INT64_MAX), Value(1)}),
            "OverflowError: result of '+' does not fit in int64");
  EXPECT_EQ(outcome("def f(a):\n    return 1 + -(a - 1)\n", "f", {Value(-INT64_MAX)}),
            "OverflowError: result of unary '-' does not fit in int64");
  EXPECT_EQ(outcome("def f(a):\n    x = a\n    x *= a\n    return x\n", "f", {big}),
            "OverflowError: result of '*' does not fit in int64");
}

TEST(Interp, DivisionRulesHoldMidExpression) {
  const char* const source = "def f(a, b):\n    return [1 + a // b, 1 + a % b]\n";
  EXPECT_EQ(outcome(source, "f", {Value(7), Value(0)}),
            "ZeroDivisionError: integer division by zero");
  EXPECT_EQ(outcome("def f(a, b):\n    return 1 + a % b\n", "f", {Value(7), Value(0)}),
            "ZeroDivisionError: modulo by zero");
  EXPECT_EQ(outcome("def f(a, b):\n    x = 2\n    x //= b\n    return x\n", "f",
                    {Value(7), Value(0)}),
            "ZeroDivisionError: integer division by zero");
  EXPECT_EQ(outcome("def f(a, b):\n    return (a - 1) % b + 5\n", "f",
                    {Value(-INT64_MAX), Value(-1)}),
            "5");
  EXPECT_EQ(outcome("def f(a, b):\n    return (a - 1) // b\n", "f",
                    {Value(-INT64_MAX), Value(-1)}),
            "OverflowError: result of '//' does not fit in int64");
}

// `expr`'s value as the interpreter's repr() spells it, which tells 1.0
// from 1 and True from 1.
std::string py(const std::string& expr) { return ev("repr(" + expr + ")").as_str(); }

TEST(Interp, OperandsLeaveTheIntPathMidExpression) {
  EXPECT_EQ(py("True + True"), "2");
  EXPECT_EQ(py("+True"), "True");
  EXPECT_EQ(py("-True + 0"), "-1");
  EXPECT_EQ(py("~False"), "-1");
  EXPECT_EQ(py("not 0"), "True");
  EXPECT_EQ(py("(1 < 2) + 1"), "2");
  EXPECT_EQ(py("True * 3.5"), "3.5");
  EXPECT_EQ(py("True / 2"), "0.5");
  EXPECT_EQ(py("2 ** -1 + 1"), "1.5");
  EXPECT_EQ(py("7 / 7"), "1.0");
  EXPECT_EQ(py("[3 // 2.0, 2.0 * 3, 1 + True, 1 < 1.5 < 2]"), "[1.0, 6.0, 2, True]");
  EXPECT_EQ(run("x = True\nx += 1\nresult = repr(x)\n").as_str(), "2");
  EXPECT_EQ(run("x = True\ny = x\nresult = repr([x, y, x + 0])\n").as_str(),
            "[True, True, 1]");
  EXPECT_EQ(outcome("def f(a):\n    return repr([a * 2 + 0.5, a // 2.0, 1 < a < 2.5])\n",
                    "f", {Value(2)}),
            "'[4.5, 1.0, True]'");
  EXPECT_EQ(outcome("def f(a):\n    return ['ab' * (a + 1), (a - 1) * 'cd', 'x' * True]\n",
                    "f", {Value(2)}),
            "['ababab', 'cd', 'x']");
  EXPECT_EQ(outcome("def f(a):\n    return a + 1 < 'x'\n", "f", {Value(2)}),
            "TypeError: '<' not supported between int and str");
  EXPECT_EQ(outcome("def f(a):\n    return a @ 1\n", "f", {Value(2)}),
            "TypeError: unsupported operand type(s) for @: int and int");
  EXPECT_EQ(outcome("def f(a):\n    return True @ a\n", "f", {Value(2)}),
            "TypeError: unsupported operand type(s) for @: bool and int");
}

// A `for x in xs` walks the list as it was when the loop started, whatever
// the body does to `xs`.
TEST(Interp, ForOverAListIteratesItsSnapshot) {
  EXPECT_EQ(outcome(R"(
def f():
    xs = [1, 2, 3]
    seen = []
    for x in xs:
        xs.append(x * 10)
        seen.append(x)
    return [seen, xs]
)"),
            "[[1, 2, 3], [1, 2, 3, 10, 20, 30]]");
  EXPECT_EQ(outcome(R"(
def f():
    xs = [1, 2, 3]
    total = 0
    for x in xs:
        total = total * 10 + x
        xs = [7]
    return [total, xs]
)"),
            "[123, [7]]");
  EXPECT_EQ(outcome(R"(
def f():
    xs = [1, 2, 3]
    total = 0
    for x in xs:
        total = total * 10 + x
        if x == 1:
            del xs
    try:
        return [total, xs]
    except NameError:
        return [total, 'deleted']
)"),
            "[123, 'deleted']");
  EXPECT_EQ(outcome(R"(
def f():
    xs = [1, 2, 3]
    total = 0
    for x in xs:
        total = total * 10 + x
        del xs[0]
    return [total, xs]
)"),
            "[123, []]");
  EXPECT_EQ(outcome(R"(
xs = [1, 2, 3]

def rebind():
    global xs
    xs = [9, 9]

def f():
    total = 0
    for x in xs:
        total = total * 10 + x
        rebind()
    return [total, xs]
)"),
            "[123, [9, 9]]");
  EXPECT_EQ(outcome(R"(
def f():
    xs = [1, 2, 3]
    total = 0
    for x in xs:
        total = total * 10 + x
        xs[2] = 0
        xs += [4]
    return [total, xs]
)"),
            "[123, [1, 2, 0, 4, 4, 4]]");
  // The loop variable may be the list's own name, or a subscript of it.
  EXPECT_EQ(outcome("def f():\n    xs = [1, 2, 3]\n    for xs in xs:\n        pass\n"
                    "    return xs\n"),
            "3");
  EXPECT_EQ(outcome("def f():\n    xs = [1, 2, 3]\n    for xs[0] in xs:\n        pass\n"
                    "    return xs\n"),
            "[3, 2, 3]");
  // The loop target's index is evaluated every round, and may call a def
  // that rebinds the global list.
  EXPECT_EQ(run(R"(
xs = [1, 2, 3]
ys = [0, 0]

def g():
    global xs
    xs = None
    return 0

for ys[g()] in xs:
    pass
result = [ys, xs]
)").repr(),
            "[[3, 0], None]");
  EXPECT_EQ(run(R"(
xs = [1, 2, 3]
ys = [0, 0]
seen = []

def g():
    global xs
    xs = [7]
    seen.append(ys[0])
    return 0

for ys[g()] in xs:
    pass
result = [ys, xs, seen]
)").repr(),
            "[[3, 0], [7], [0, 1, 2]]");
  // A body that leaves `xs` alone, at module scope and nested.
  EXPECT_EQ(run(R"(
xs = [[1, 2], [3, 4]]
total = 0
for row in xs:
    for x in row:
        for y in row:
            total = total + x * y + xs[0][0]
result = [total, xs]
)").repr(),
            "[66, [[1, 2], [3, 4]]]");
  EXPECT_EQ(run(R"(
xs = 'ab'
out = []
for c in xs:
    out.append(c)
d = {'k': 1}
for key in d:
    out.append(key)
result = out
)").repr(),
            "['a', 'b', 'k']");
}

// The three functions of the py-short workload take as many interpreter
// steps as they did before ints were evaluated unboxed.
TEST(Interp, PyShortFunctionsKeepTheirStepCounts) {
  const auto module = parse_module_shared(kPyShortModule);
  const auto steps = [&module](const std::string& function, ValueList args) {
    Interpreter interp;
    interp.exec(*module);
    interp.call(function, std::move(args));
    return interp.steps_executed();
  };
  ValueList xs;
  for (const int64_t x : {5, -3, 17, 0, 900, -1000, 42, 8, -8, 13, 21, 34, -55, 89, 144, 2}) {
    xs.push_back(Value(x));
  }
  EXPECT_EQ(steps("mix", {Value(123457), Value(98765), Value(400)}), 5220);
  EXPECT_EQ(steps("stats", {Value(xs), Value(25)}), 4503);
  EXPECT_EQ(steps("horner", {Value(ValueList{Value(3), Value(-1), Value(4), Value(1),
                                             Value(-5), Value(9), Value(2)}),
                             Value(-4), Value(57)}),
            4691);
}

// A platform-independent random stream (splitmix64) for the corpus below.
struct Gen {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  template <size_t N>
  std::string pick(const char* const (&options)[N]) {
    return options[below(N)];
  }
};

// A random int/bool/float expression over the corpus program's names.
std::string gen_expr(Gen& g, int depth) {
  static const char* const kNames[] = {"a", "b", "c", "x", "y", "z", "t", "i", "v"};
  static const char* const kLiterals[] = {
      "0", "1", "2", "3", "7", "-1", "31", "1000003", "3037000499", "3037000500",
      "9223372036854775807", "True", "False", "0.5", "2.0", "-1.5", "1.5e10"};
  static const char* const kBinOps[] = {"+", "-", "*", "/", "//", "%", "**", "<<",
                                        ">>", "&", "|", "^", "+", "-", "*", "%"};
  static const char* const kUnaryOps[] = {"-", "+", "~", "not "};
  static const char* const kCmpOps[] = {"==", "!=", "<", "<=", ">", ">=", "is", "is not"};
  if (depth == 0 || g.below(4) == 0) {
    if (g.below(200) == 0) return "99999999999999999999";  // raises when evaluated
    return g.below(2) == 0 ? g.pick(kNames) : g.pick(kLiterals);
  }
  const auto sub = [&g, depth] { return gen_expr(g, depth - 1); };
  switch (g.below(9)) {
    case 0:
    case 1:
    case 2: {
      const std::string op = g.pick(kBinOps);
      const bool small_rhs = (op == "**" || op == "<<" || op == ">>") && g.below(4) != 0;
      const std::string lhs = sub();
      return "(" + lhs + " " + op + " " + (small_rhs ? std::to_string(g.below(5)) : sub()) +
             ")";
    }
    case 3:
      return "(" + g.pick(kUnaryOps) + sub() + ")";
    case 4: {
      std::string out = "(" + sub() + " " + g.pick(kCmpOps) + " " + sub();
      if (g.below(3) == 0) out += " " + g.pick(kCmpOps) + " " + sub();
      return out + ")";
    }
    case 5:
      return "(" + sub() + (g.below(2) == 0 ? " and " : " or ") + sub() + ")";
    case 6:
      return "(" + sub() + " if " + sub() + " else " + sub() + ")";
    case 7: {
      static const char* const kIndices[] = {"0", "1", "-1", "len(xs) - 1"};
      return "xs[" + g.pick(kIndices) + "]";
    }
    default: {
      static const char* const kCalls[] = {"abs", "int", "float", "bool"};
      if (g.below(3) == 0) return "len(xs)";
      return g.pick(kCalls) + "(" + sub() + ")";
    }
  }
}

void gen_block(Gen& g, int depth, const std::string& indent, std::string& out);

void gen_statement(Gen& g, int depth, const std::string& indent, std::string& out) {
  static const char* const kTargets[] = {"x", "y", "z", "t"};
  static const char* const kAugOps[] = {"+=", "-=", "*=", "//=", "%=", "/=", "&=", "^="};
  const std::string inner = indent + "    ";
  switch (g.below(depth > 0 ? 10 : 6)) {
    case 0:
    case 1:
    case 2:
      out += indent + g.pick(kTargets) + " = " + gen_expr(g, 3) + "\n";
      return;
    case 3:
    case 4:
      out += indent + g.pick(kTargets) + " " + g.pick(kAugOps) + " " + gen_expr(g, 2) + "\n";
      return;
    case 5:
      switch (g.below(6)) {
        case 0: out += indent + "xs.append(" + gen_expr(g, 1) + ")\n"; return;
        case 1: out += indent + "xs = [" + gen_expr(g, 1) + ", " + gen_expr(g, 1) + "]\n"; return;
        case 2: out += indent + "xs[0] = " + gen_expr(g, 1) + "\n"; return;
        case 3: out += indent + "xs += [" + gen_expr(g, 1) + "]\n"; return;
        case 4: out += indent + "z = sum([" + gen_expr(g, 2) + " for v in xs])\n"; return;
        default:
          out += indent + "y = len([i for i in range(" + std::to_string(g.below(6)) +
                 ") if " + gen_expr(g, 2) + "])\n";
          return;
      }
    case 6:
      out += indent + "if " + gen_expr(g, 2) + ":\n";
      gen_block(g, depth - 1, inner, out);
      out += indent + "else:\n";
      gen_block(g, depth - 1, inner, out);
      return;
    case 7:
      out += indent + "for i in range(" +
             (g.below(4) == 0 ? gen_expr(g, 1) : std::to_string(g.below(7))) + "):\n";
      gen_block(g, depth - 1, inner, out);
      return;
    default:
      out += indent + "for v in xs:\n";
      gen_block(g, depth - 1, inner, out);
      return;
  }
}

void gen_block(Gen& g, int depth, const std::string& indent, std::string& out) {
  const size_t n = 1 + g.below(3);
  for (size_t k = 0; k < n; ++k) gen_statement(g, depth, indent, out);
}

// A function of (a, b, c) whose statements each log the error they raise,
// so one error does not end the program.
std::string gen_program(Gen& g) {
  std::string out =
      "def f(a, b, c):\n"
      "    x = 0\n    y = 1\n    z = 2\n    t = True\n    i = 0\n    v = 0\n"
      "    errors = []\n"
      "    xs = [" + gen_expr(g, 0) + ", " + gen_expr(g, 0) + ", " + gen_expr(g, 0) + "]\n";
  const size_t n = 3 + g.below(5);
  for (size_t k = 0; k < n; ++k) {
    out += "    try:\n";
    gen_statement(g, 2, "        ", out);
    out += "    except Exception as e:\n        errors.append(e)\n";
  }
  out += "    return repr([x, y, z, t, i, v, errors, " + gen_expr(g, 3) + "])\n";
  return out;
}

// 1,200 random programs over ints, bools and floats, each run with
// arguments drawn from the int64 edges, bools and a float. The digest
// covers every result or error text and every step count, and was
// recorded when every value was boxed: the int path must not change any.
TEST(Interp, RandomIntProgramsMatchTheBoxedDigest) {
  static const Value kArgs[] = {Value(0), Value(1), Value(-3), Value(12),
                                Value(int64_t{3037000500}), Value(-INT64_MAX),
                                Value(true), Value(2.5)};
  Gen g{20261017};
  std::string log;
  for (int p = 0; p < 1200; ++p) {
    const std::string source = gen_program(g);
    std::vector<Value> args;
    for (int k = 0; k < 3; ++k) args.push_back(kArgs[g.below(std::size(kArgs))]);
    InterpOptions options;
    options.max_steps = 20000;
    Interpreter interp(options);
    interp.exec_source(source);
    std::string line;
    try {
      line = interp.call("f", args).repr();
    } catch (const std::exception& e) {
      line = e.what();
    }
    log += line + " #" + std::to_string(interp.steps_executed()) + "\n";
  }
  EXPECT_EQ(hash64(log), uint64_t{222994907496348872}) << log.substr(0, 2000);
}
}  // namespace
}  // namespace lfm::pysrc
