// A mini-Python interpreter over the pysrc AST.
//
// This is the worker-side "Python embedding": a function shipped as source
// (extract_function_source) is parsed, its defs registered, and invoked with
// pickled arguments — inside a real LFM when run through flow::python_app.
// The value domain is serde::Value (the same values that cross the wire),
// so results pickle without conversion.
//
// Supported subset (errors are thrown as PyError, catchable in-language):
//   * ints (incl. hex/octal/binary literals), floats, bools, None, strings,
//     lists, dicts; tuples evaluate to lists
//   * arithmetic / comparison / boolean operators with Python semantics
//     (true division, floor division, modulo sign, chained comparisons,
//     short-circuit and/or returning operands, string repetition, ...)
//   * if/elif/else, while/for (+break/continue/else), range/enumerate/zip
//   * def (incl. nested + recursion), return, default parameters, *args,
//     lambdas, list/dict comprehensions with conditions
//   * assignment (chained, unpacking, subscript/augmented), del
//   * try/except (by exception name)/else/finally, raise, assert
//   * method calls on str/list/dict (split, join, append, get, items, ...)
//   * builtins: len, range, print (captured), abs, min, max, sum, sorted,
//     str, int, float, bool, list, dict, enumerate, zip, round, any, all
//   * `import math` / `import json` map to builtin modules; other imports
//     raise ImportError (so try/except ImportError fallbacks work)
//
// Deliberate divergence:
//   * containers have VALUE semantics — `ys = xs` copies; mutating methods
//     (append, update, sort, ...) operate in place only when the receiver
//     is a name or subscript lvalue. Dict keys are strings.
//   * ints are int64. A result outside that range raises OverflowError
//     instead of growing: arithmetic, `**`, `<<`, unary minus, abs(),
//     sum(), int()/round()/math.floor() of a large float, and an int
//     literal that does not fit (raised when the literal is evaluated).
//     `INT64_MIN % -1` is 0, and a negative shift count raises ValueError,
//     as in Python.
//   * numbers compare as doubles, so two ints beyond 2**53 that round to
//     the same double compare equal.
//
// Evaluation runs over the tree as the parser resolved it (ast.h): no
// operator, literal or name is looked up by string. A function frame keeps
// its locals in a flat array indexed by name slot. A call whose callee
// names a module-level def, and no local or global binding shadows that
// name, runs the def directly; a def becomes a `{"__callable__": id}`
// handle only when used as a value, at most one handle per def. A
// `for ... in range(...)` counts without building the list.
//
// Ints and bools are evaluated unboxed. BinOp, UnaryOp and Compare over
// them compute on int64_t, reading a name's int where it is bound and an
// int literal's parsed value, and fall back to the serde::Value operators
// at the first operand that is neither. A name-target assignment,
// augmented assignment or loop variable writes its int into the bound
// value in place. Every evaluated node takes one step of the budget.
//
// Not supported (PyError "UnsupportedError"): classes, generators/yield,
// with, async, attribute assignment.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pysrc/ast.h"
#include "serde/value.h"
#include "util/error.h"

namespace lfm::pysrc {

// An in-language exception (raise ValueError("...")); `type_name` matches
// except clauses by name.
class PyError : public Error {
 public:
  PyError(std::string type_name, const std::string& message)
      : Error(type_name + ": " + message), type_name(std::move(type_name)) {}
  std::string type_name;
};

struct InterpOptions {
  // Abort after this many statement/expression evaluations (runaway guard).
  int64_t max_steps = 50'000'000;
  int max_recursion_depth = 256;
  bool capture_print = true;  // collect print() output instead of stdout
};

class Interpreter {
 public:
  explicit Interpreter(InterpOptions options = {});
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Execute a module at global scope (defs are registered, statements run).
  // The interpreter keeps pointers into `module`, which must outlive it.
  void exec(const Module& module);
  void exec_source(const std::string& source);

  // Call a function defined by previous exec() calls.
  serde::Value call(const std::string& function, std::vector<serde::Value> args);

  // Evaluate one expression in the global scope.
  serde::Value eval_expression_source(const std::string& source);

  // Read or set a global variable.
  serde::Value global(const std::string& name) const;
  void set_global(const std::string& name, serde::Value value);

  // Captured print() output (when capture_print).
  const std::string& output() const;
  void clear_output();

  int64_t steps_executed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// One-shot helper: execute `module_source`, then call `function` with args.
serde::Value run_python_function(const std::string& module_source,
                                 const std::string& function,
                                 std::vector<serde::Value> args,
                                 const InterpOptions& options = {});

// Same, over a pre-parsed shared AST: the interpreter state is still fresh
// per call, but the parse happens zero times here. flow::python_app parses
// once at construction and routes every invocation through this overload.
serde::Value run_python_function(const std::shared_ptr<const Module>& module,
                                 const std::string& function,
                                 std::vector<serde::Value> args,
                                 const InterpOptions& options = {});

}  // namespace lfm::pysrc
