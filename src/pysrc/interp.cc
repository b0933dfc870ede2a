#include "pysrc/interp.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "pysrc/parser.h"
#include "serde/json.h"
#include "util/strings.h"

namespace lfm::pysrc {
namespace {

using serde::Value;
using serde::ValueDict;
using serde::ValueList;

// How a statement ends: normally, or by a break, continue or return that
// the enclosing loop or call acts on.
enum class Flow { kNormal, kBreak, kContinue, kReturn };

[[noreturn]] void raise(const std::string& type, const std::string& message) {
  throw PyError(type, message);
}

[[noreturn]] void unsupported(const std::string& what) {
  raise("UnsupportedError", what + " is not supported by the mini interpreter");
}

// A flow that left the body it may act in.
[[noreturn]] void stray_flow(Flow flow) {
  raise("SyntaxError", flow == Flow::kReturn  ? "'return' outside function"
                       : flow == Flow::kBreak ? "'break' outside loop"
                                              : "'continue' not properly in loop");
}

// --- Python value helpers ----------------------------------------------------

bool truthy(const Value& v) {
  switch (v.kind()) {
    case serde::ValueKind::kNone: return false;
    case serde::ValueKind::kBool: return v.as_bool();
    case serde::ValueKind::kInt: return v.as_int() != 0;
    case serde::ValueKind::kReal: return v.as_real() != 0.0;
    case serde::ValueKind::kStr: return !v.as_str().empty();
    case serde::ValueKind::kBytes: return !v.as_bytes().empty();
    case serde::ValueKind::kList: return !v.as_list().empty();
    case serde::ValueKind::kDict: return !v.as_dict().empty();
  }
  return false;
}

bool is_number(const Value& v) { return v.is_int() || v.is_real() || v.is_bool(); }
bool is_int_like(const Value& v) { return v.is_int() || v.is_bool(); }

double as_real(const Value& v) {
  if (v.is_bool()) return v.as_bool() ? 1.0 : 0.0;
  return v.as_real();
}

// --- int64 arithmetic ----------------------------------------------------------
// Ints are int64. Every int result is checked; one that leaves the range
// raises OverflowError instead of wrapping.

[[noreturn]] void int_overflow(const std::string& what) {
  raise("OverflowError", what + " does not fit in int64");
}

[[noreturn]] void op_overflow(Op op) {
  int_overflow("result of '" + std::string(op_text(op)) + "'");
}

// A float truncated toward zero, as int() does.
int64_t checked_int(double d) {
  if (std::isnan(d)) raise("ValueError", "cannot convert float NaN to integer");
  // [-2^63, 2^63): both bounds are exact doubles.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    int_overflow(strformat("float %g", d));
  }
  return static_cast<int64_t>(d);
}

int64_t as_int(const Value& v) {
  if (v.is_bool()) return v.as_bool() ? 1 : 0;
  if (v.is_int()) return v.as_int();
  if (v.is_real()) return checked_int(v.as_real());
  raise("TypeError", "expected an integer, got " + v.repr());
}

int64_t int_pow(int64_t base, int64_t exp) {
  int64_t result = 1;
  while (true) {
    if ((exp & 1) != 0 && __builtin_mul_overflow(result, base, &result)) {
      op_overflow(Op::kPow);
    }
    exp >>= 1;
    if (exp == 0) return result;
    // Squared only when a later bit needs it, so it overflows only when
    // the result would.
    if (__builtin_mul_overflow(base, base, &base)) op_overflow(Op::kPow);
  }
}

// range(lo, hi, step) as a count of values, so stepping never overflows.
struct Range {
  int64_t next = 0;
  int64_t step = 1;
  uint64_t left = 0;

  Range(int64_t lo, int64_t hi, int64_t step_) : next(lo), step(step_) {
    const auto ulo = static_cast<uint64_t>(lo);
    const auto uhi = static_cast<uint64_t>(hi);
    const auto ustep = static_cast<uint64_t>(step);
    if (step > 0 && lo < hi) left = (uhi - ulo - 1) / ustep + 1;
    if (step < 0 && lo > hi) left = (ulo - uhi - 1) / (0 - ustep) + 1;
  }
  bool take(int64_t& out) {
    if (left == 0) return false;
    --left;
    out = next;
    // Wraps only past the last value, which is never read.
    next = static_cast<int64_t>(static_cast<uint64_t>(next) + static_cast<uint64_t>(step));
    return true;
  }
};

std::string type_name(const Value& v) {
  switch (v.kind()) {
    case serde::ValueKind::kNone: return "NoneType";
    case serde::ValueKind::kBool: return "bool";
    case serde::ValueKind::kInt: return "int";
    case serde::ValueKind::kReal: return "float";
    case serde::ValueKind::kStr: return "str";
    case serde::ValueKind::kBytes: return "bytes";
    case serde::ValueKind::kList: return "list";
    case serde::ValueKind::kDict: return "dict";
  }
  return "?";
}

std::string py_repr(const Value& v);

// str(): like repr but strings are bare.
std::string py_str(const Value& v) {
  if (v.is_str()) return v.as_str();
  if (v.is_real()) {
    const double d = v.as_real();
    if (std::abs(d) < 1e15 && d == static_cast<int64_t>(d)) {
      return strformat("%.1f", d);
    }
    return strformat("%g", d);
  }
  return py_repr(v);
}

std::string py_repr(const Value& v) {
  switch (v.kind()) {
    case serde::ValueKind::kNone: return "None";
    case serde::ValueKind::kBool: return v.as_bool() ? "True" : "False";
    case serde::ValueKind::kInt: return std::to_string(v.as_int());
    case serde::ValueKind::kReal: return py_str(v);
    case serde::ValueKind::kStr: {
      std::string out = "'";
      for (const char c : v.as_str()) {
        if (c == '\'' || c == '\\') out += '\\';
        if (c == '\n') {
          out += "\\n";
          continue;
        }
        out += c;
      }
      return out + "'";
    }
    case serde::ValueKind::kBytes: return v.repr();
    case serde::ValueKind::kList: {
      std::string out = "[";
      const auto& l = v.as_list();
      for (size_t i = 0; i < l.size(); ++i) {
        if (i != 0) out += ", ";
        out += py_repr(l[i]);
      }
      return out + "]";
    }
    case serde::ValueKind::kDict: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, val] : v.as_dict()) {
        if (!first) out += ", ";
        first = false;
        out += "'" + k + "': " + py_repr(val);
      }
      return out + "}";
    }
  }
  return "?";
}

// Three-way comparison; raises TypeError for unordered types.
int compare(const Value& a, const Value& b) {
  if (is_number(a) && is_number(b)) {
    const double x = as_real(a);
    const double y = as_real(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_str() && b.is_str()) {
    return a.as_str().compare(b.as_str()) < 0 ? -1
           : a.as_str() == b.as_str()         ? 0
                                              : 1;
  }
  if (a.is_list() && b.is_list()) {
    const auto& x = a.as_list();
    const auto& y = b.as_list();
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      const int c = compare(x[i], y[i]);
      if (c != 0) return c;
    }
    return x.size() < y.size() ? -1 : (x.size() > y.size() ? 1 : 0);
  }
  raise("TypeError", "'<' not supported between " + type_name(a) + " and " +
                         type_name(b));
}

bool py_equal(const Value& a, const Value& b) {
  if (is_number(a) && is_number(b)) return as_real(a) == as_real(b);
  return a == b;
}

// Normalize a (possibly negative) index against a length; raises IndexError.
size_t normalize_index(int64_t index, size_t size, const char* what) {
  int64_t i = index;
  if (i < 0) i += static_cast<int64_t>(size);
  if (i < 0 || i >= static_cast<int64_t>(size)) {
    raise("IndexError", std::string(what) + " index out of range");
  }
  return static_cast<size_t>(i);
}

[[noreturn]] void unsupported_operands(Op op, const Value& a, const Value& b) {
  raise("TypeError", "unsupported operand type(s) for " + std::string(op_text(op)) +
                         ": " + type_name(a) + " and " + type_name(b));
}

// An int or bool held unboxed: what the int path computes on. A bool
// counts as 0 or 1 in arithmetic, and stays a bool where a Value would
// (a comparison, `not`, unary `+`).
struct Unboxed {
  int64_t value = 0;
  bool is_bool = false;
};

bool unbox(const Value& v, Unboxed& out) {
  if (v.is_int()) {
    out = {v.as_int(), false};
    return true;
  }
  if (v.is_bool()) {
    out = {v.as_bool() ? 1 : 0, true};
    return true;
  }
  return false;
}

Value box(Unboxed u) { return u.is_bool ? Value(u.value != 0) : Value(u.value); }

// a op b over ints. An int result lands in `out` (true); the float of a
// true division or a negative power in `boxed` (false).
bool int_binary(Op op, Unboxed a, Unboxed b, Unboxed& out, Value& boxed) {
  const int64_t x = a.value;
  const int64_t y = b.value;
  int64_t& r = out.value;
  out.is_bool = false;
  switch (op) {
    case Op::kAdd:
      if (__builtin_add_overflow(x, y, &r)) op_overflow(op);
      return true;
    case Op::kSub:
      if (__builtin_sub_overflow(x, y, &r)) op_overflow(op);
      return true;
    case Op::kMul:
      if (__builtin_mul_overflow(x, y, &r)) op_overflow(op);
      return true;
    case Op::kDiv:
      if (y == 0) raise("ZeroDivisionError", "division by zero");
      boxed = Value(static_cast<double>(x) / static_cast<double>(y));
      return false;
    case Op::kFloorDiv:
      if (y == 0) raise("ZeroDivisionError", "integer division by zero");
      if (x == INT64_MIN && y == -1) op_overflow(op);
      r = x / y;
      if ((x % y != 0) && ((x < 0) != (y < 0))) --r;  // floor toward -inf
      return true;
    case Op::kMod:
      if (y == 0) raise("ZeroDivisionError", "modulo by zero");
      if (y == -1) {  // INT64_MIN % -1 traps in C++
        r = 0;
        return true;
      }
      r = x % y;
      if (r != 0 && ((r < 0) != (y < 0))) r += y;  // Python sign convention
      return true;
    case Op::kPow:
      if (y < 0) {
        boxed = Value(std::pow(static_cast<double>(x), static_cast<double>(y)));
        return false;
      }
      r = int_pow(x, y);
      return true;
    case Op::kBitAnd: r = x & y; return true;
    case Op::kBitOr: r = x | y; return true;
    case Op::kBitXor: r = x ^ y; return true;
    case Op::kLShift:
      if (y < 0) raise("ValueError", "negative shift count");
      if (x == 0) {
        r = 0;
        return true;
      }
      if (y >= 64) op_overflow(op);
      r = static_cast<int64_t>(static_cast<uint64_t>(x) << y);
      if ((r >> y) != x) op_overflow(op);
      return true;
    case Op::kRShift:
      if (y < 0) raise("ValueError", "negative shift count");
      r = y >= 64 ? (x < 0 ? -1 : 0) : x >> y;
      return true;
    default:
      unsupported_operands(op, box(a), box(b));
  }
}

// a op b when either is a number and not both are ints.
Value binary_numeric(Op op, const Value& a, const Value& b) {
  switch (op) {
    case Op::kAdd: return Value(as_real(a) + as_real(b));
    case Op::kSub: return Value(as_real(a) - as_real(b));
    case Op::kMul: return Value(as_real(a) * as_real(b));
    case Op::kDiv:
      if (as_real(b) == 0.0) raise("ZeroDivisionError", "division by zero");
      return Value(as_real(a) / as_real(b));
    case Op::kFloorDiv:
      if (as_real(b) == 0.0) raise("ZeroDivisionError", "integer division by zero");
      return Value(std::floor(as_real(a) / as_real(b)));
    case Op::kMod: {
      if (as_real(b) == 0.0) raise("ZeroDivisionError", "modulo by zero");
      const double r = std::fmod(as_real(a), as_real(b));
      return Value(r != 0.0 && ((r < 0) != (as_real(b) < 0)) ? r + as_real(b) : r);
    }
    case Op::kPow: return Value(std::pow(as_real(a), as_real(b)));
    default: unsupported_operands(op, a, b);
  }
}

Value binary_op(Op op, const Value& a, const Value& b) {
  Unboxed x;
  Unboxed y;
  if (unbox(a, x) && unbox(b, y)) {
    Unboxed r;
    Value real;
    return int_binary(op, x, y, r, real) ? Value(r.value) : std::move(real);
  }
  // Sequence semantics first.
  if (op == Op::kAdd) {
    if (a.is_str() && b.is_str()) return Value(a.as_str() + b.as_str());
    if (a.is_list() && b.is_list()) {
      ValueList out = a.as_list();
      out.insert(out.end(), b.as_list().begin(), b.as_list().end());
      return Value(std::move(out));
    }
  }
  if (op == Op::kMul) {
    const auto repeat = [](const Value& seq, int64_t n) -> Value {
      if (seq.is_str()) {
        std::string out;
        for (int64_t i = 0; i < n; ++i) out += seq.as_str();
        return Value(std::move(out));
      }
      ValueList out;
      for (int64_t i = 0; i < n; ++i) {
        out.insert(out.end(), seq.as_list().begin(), seq.as_list().end());
      }
      return Value(std::move(out));
    };
    if ((a.is_str() || a.is_list()) && is_int_like(b)) {
      return repeat(a, std::max<int64_t>(as_int(b), 0));
    }
    if ((b.is_str() || b.is_list()) && is_int_like(a)) {
      return repeat(b, std::max<int64_t>(as_int(a), 0));
    }
  }
  if (is_number(a) || is_number(b)) return binary_numeric(op, a, b);
  unsupported_operands(op, a, b);
}

bool contains(const Value& container, const Value& item) {
  if (container.is_str()) {
    if (!item.is_str()) raise("TypeError", "'in <str>' requires a string operand");
    return container.as_str().find(item.as_str()) != std::string::npos;
  }
  if (container.is_list()) {
    for (const auto& v : container.as_list()) {
      if (py_equal(v, item)) return true;
    }
    return false;
  }
  if (container.is_dict()) {
    if (!item.is_str()) return false;
    return container.as_dict().count(item.as_str()) > 0;
  }
  raise("TypeError", "argument of type '" + type_name(container) +
                         "' is not iterable");
}

bool compare_op(Op op, const Value& left, const Value& right) {
  switch (op) {
    case Op::kEq: return py_equal(left, right);
    case Op::kNe: return !py_equal(left, right);
    case Op::kLt: return compare(left, right) < 0;
    case Op::kLe: return compare(left, right) <= 0;
    case Op::kGt: return compare(left, right) > 0;
    case Op::kGe: return compare(left, right) >= 0;
    case Op::kIn: return contains(right, left);
    case Op::kNotIn: return !contains(right, left);
    case Op::kIs: return (left.is_none() && right.is_none()) || py_equal(left, right);
    case Op::kIsNot: return !((left.is_none() && right.is_none()) || py_equal(left, right));
    default: return false;
  }
}

// a op b for two ints or bools, as compare_op decides it: numbers compare
// as doubles.
bool int_compare(Op op, Unboxed a, Unboxed b) {
  const auto x = static_cast<double>(a.value);
  const auto y = static_cast<double>(b.value);
  switch (op) {
    case Op::kEq:
    case Op::kIs: return x == y;
    case Op::kNe:
    case Op::kIsNot: return x != y;
    case Op::kLt: return x < y;
    case Op::kLe: return x <= y;
    case Op::kGt: return x > y;
    case Op::kGe: return x >= y;
    default: return compare_op(op, box(a), box(b));
  }
}

// The values iterated by a for loop / comprehension; a list is moved out.
ValueList iterate(Value v) {
  if (v.is_list()) return std::move(v.as_list());
  if (v.is_str()) {
    ValueList out;
    for (const char c : v.as_str()) out.push_back(Value(std::string(1, c)));
    return out;
  }
  if (v.is_dict()) {
    ValueList out;
    for (const auto& [k, _] : v.as_dict()) out.push_back(Value(k));
    return out;
  }
  raise("TypeError", "'" + type_name(v) + "' object is not iterable");
}

// base[index] for a read.
Value item(const Value& base, const Value& index) {
  if (base.is_list()) {
    const auto& list = base.as_list();
    return list[normalize_index(as_int(index), list.size(), "list")];
  }
  if (base.is_str()) {
    const auto& str = base.as_str();
    return Value(std::string(1, str[normalize_index(as_int(index), str.size(), "string")]));
  }
  if (base.is_dict()) {
    if (!index.is_str()) raise("TypeError", "dict keys must be strings");
    const auto& dict = base.as_dict();
    const auto it = dict.find(index.as_str());
    if (it == dict.end()) raise("KeyError", py_repr(index));
    return it->second;
  }
  raise("TypeError", "'" + type_name(base) + "' object is not subscriptable");
}

}  // namespace

// --- interpreter internals -----------------------------------------------------

struct Interpreter::Impl {
  explicit Impl(InterpOptions opts) : options(opts) {}

  InterpOptions options;
  std::vector<std::unique_ptr<Module>> owned_modules;
  std::string captured_output;
  int64_t steps = 0;
  int depth = 0;

  // --- names -------------------------------------------------------------------
  // Every name has an interpreter-wide id: the first module's slots, then
  // each name a later module or set_global() adds. Frames and globals are
  // flat arrays indexed by id, sized once per call: names only grow between
  // evaluations, so a pointer into a frame stays valid until the next
  // evaluation binds or deletes a name.
  std::vector<std::string> names;

  // A module as this interpreter runs it.
  struct Unit {
    const Module* module = nullptr;
    std::vector<uint32_t> ids;  // module slot -> id
  };
  std::deque<Unit> units;  // deque: frames and callables point into it

  struct Global {
    Value value;
    bool bound = false;
    const FunctionDefStmt* def = nullptr;  // module-level def of this name
    const Unit* def_unit = nullptr;
  };
  std::vector<Global> globals;  // by id

  struct Slot {
    Value value;
    bool bound = false;
    bool global = false;  // declared `global` in this frame
  };
  using Slots = std::vector<Slot>;

  struct Frame {
    const Unit* unit = nullptr;  // translates the running code's slots
    Slot* locals = nullptr;      // names.size() slots; null at module scope
    Value result;                // set by `return`
  };

  // Callables held by value-domain handles {"__callable__": id}.
  struct Callable {
    const FunctionDefStmt* def = nullptr;
    const LambdaExpr* lambda = nullptr;
    const Unit* unit = nullptr;
    Slots captured;  // snapshot of the defining frame's locals
  };
  std::deque<Callable> callables;  // deque: a running call holds a reference
  // The one handle of each module-level def used as a value.
  std::unordered_map<const FunctionDefStmt*, Value> def_handles;

  static bool is_callable_handle(const Value& v) {
    return v.is_dict() && v.contains("__callable__");
  }
  static bool is_module_handle(const Value& v) {
    return v.is_dict() && v.contains("__module__");
  }
  static bool is_builtin_handle(const Value& v) {
    return v.is_dict() && v.contains("__builtin__");
  }

  Value make_callable(Callable c) {
    callables.push_back(std::move(c));
    ValueDict d;
    d["__callable__"] = Value(static_cast<int64_t>(callables.size() - 1));
    return Value(std::move(d));
  }

  void tick() {
    if (++steps > options.max_steps) {
      raise("RuntimeError", "step budget exhausted (possible infinite loop)");
    }
  }

  // --- name resolution -------------------------------------------------------

  // The id of `name`, or names.size() when no module or global has it.
  uint32_t find_id(std::string_view name) const {
    uint32_t i = 0;
    while (i < names.size() && names[i] != name) ++i;
    return i;
  }

  uint32_t intern(const std::string& name) {
    const uint32_t i = find_id(name);
    if (i == names.size()) {
      names.push_back(name);
      globals.emplace_back();
    }
    return i;
  }

  const Unit& unit_for(const Module& module) {
    for (const Unit& unit : units) {
      if (unit.module == &module) return unit;
    }
    Unit unit;
    unit.module = &module;
    if (names.empty()) {
      names = module.names;
      globals.resize(names.size());
      unit.ids.resize(names.size());
      std::iota(unit.ids.begin(), unit.ids.end(), 0u);
    } else {
      for (const auto& name : module.names) unit.ids.push_back(intern(name));
    }
    units.push_back(std::move(unit));
    return units.back();
  }

  static uint32_t id(const Frame& frame, uint32_t slot) { return frame.unit->ids[slot]; }

  Value* find(Frame& frame, uint32_t id) {
    if (frame.locals != nullptr) {
      Slot& slot = frame.locals[id];
      if (slot.bound && !slot.global) return &slot.value;
    }
    Global& global = globals[id];
    return global.bound ? &global.value : nullptr;
  }

  Value load(Frame& frame, const NameExpr& name) {
    const uint32_t i = id(frame, name.slot);
    if (Value* v = find(frame, i)) return *v;
    if (globals[i].def != nullptr) return def_handle(globals[i]);
    raise("NameError", "name '" + name.id + "' is not defined");
  }

  // The value a store to `id` writes, marked bound.
  Value& bind(Frame& frame, uint32_t id) {
    if (frame.locals != nullptr && !frame.locals[id].global) {
      frame.locals[id].bound = true;
      return frame.locals[id].value;
    }
    globals[id].bound = true;
    return globals[id].value;
  }

  void store(Frame& frame, uint32_t id, Value&& value) { bind(frame, id) = std::move(value); }

  // Writes an int into the bound value in place.
  void store(Frame& frame, uint32_t id, Unboxed value) {
    Value& bound = bind(frame, id);
    if (value.is_bool) {
      bound = Value(value.value != 0);
    } else {
      bound.set_int(value.value);
    }
  }

  Value def_handle(const Global& global) {
    const auto [it, added] = def_handles.try_emplace(global.def);
    if (added) {
      Callable c;
      c.def = global.def;
      c.unit = global.def_unit;
      it->second = make_callable(std::move(c));
    }
    return it->second;
  }

  // A fresh frame's locals: the captured snapshot, if any, then unbound.
  Slots new_locals(const Slots* captured) const {
    Slots locals(names.size());
    if (captured != nullptr) std::copy(captured->begin(), captured->end(), locals.begin());
    return locals;
  }

  // The by-value snapshot a nested def or lambda keeps of `frame`'s locals.
  Slots capture(const Frame& frame) const {
    Slots captured(frame.locals, frame.locals + names.size());
    for (Slot& slot : captured) slot.global = false;
    return captured;
  }

  // An assignable location: a bound name and the subscripts below it.
  struct Place {
    uint32_t id = 0;
    std::vector<Value> indices;
  };

  // Evaluates the subscripts of `target` (`name[i][j]...`), innermost
  // first, checking each level as a read would. False when `target` is
  // not such a chain or its name is unbound.
  bool place_of(Frame& frame, const Expr& target, Place& place) {
    if (target.kind == ExprKind::kName) {
      place.id = id(frame, static_cast<const NameExpr&>(target).slot);
      return find(frame, place.id) != nullptr;
    }
    if (target.kind != ExprKind::kSubscript) return false;
    const auto& sub = static_cast<const SubscriptExpr&>(target);
    if (!place_of(frame, *sub.value, place)) return false;
    place.indices.push_back(eval(frame, *sub.index));
    walk(frame, place);
    return true;
  }

  // The value at `place`, found from its name again: an index evaluated
  // since may have rebound it. Valid until the next evaluation.
  Value* walk(Frame& frame, const Place& place) {
    Value* v = find(frame, place.id);
    if (v == nullptr) raise("NameError", "name '" + names[place.id] + "' is not defined");
    for (const Value& index : place.indices) {
      if (v->is_list()) {
        auto& list = v->as_list();
        v = &list[normalize_index(as_int(index), list.size(), "list")];
      } else if (v->is_dict()) {
        if (!index.is_str()) raise("TypeError", "dict keys must be strings");
        auto& dict = v->as_dict();
        const auto it = dict.find(index.as_str());
        if (it == dict.end()) raise("KeyError", py_repr(index));
        v = &it->second;
      } else {
        raise("TypeError", "'" + type_name(*v) + "' object is not subscriptable");
      }
    }
    return v;
  }

  // Resolve an assignable location (Name or Subscript chain); nullptr when
  // the expression is not an lvalue. Valid until the next evaluation.
  Value* resolve_lvalue(Frame& frame, const Expr& target) {
    Place place;
    return place_of(frame, target, place) ? walk(frame, place) : nullptr;
  }

  // `expr` is a call of `builtin` by its name, and no binding or def
  // shadows that name now.
  const CallExpr* builtin_call(Frame& frame, const Expr& expr, Builtin builtin) {
    if (expr.kind != ExprKind::kCall) return nullptr;
    const auto& call = static_cast<const CallExpr&>(expr);
    if (call.func->kind != ExprKind::kName) return nullptr;
    const auto& name = static_cast<const NameExpr&>(*call.func);
    if (name.builtin != builtin) return nullptr;
    const uint32_t i = id(frame, name.slot);
    if (find(frame, i) != nullptr || globals[i].def != nullptr) return nullptr;
    return &call;
  }

  // What a for loop or comprehension clause walks: `range(...)` is counted
  // without building its list; anything else is a list of its own.
  struct Iteration {
    std::optional<Range> range;
    ValueList items;
    size_t next = 0;
  };

  Iteration iteration(Frame& frame, const Expr& iter) {
    Iteration it;
    if (const CallExpr* call = builtin_call(frame, iter, Builtin::kRange)) {
      tick();
      it.range = range_of(call_args(frame, *call));
    } else {
      it.items = iterate(eval(frame, iter));
    }
    return it;
  }

  // Ticks once for the next round of `it` and binds its item to `target`;
  // false when `it` is done. An int goes into a name target in place.
  bool next_item(Frame& frame, Iteration& it, const Expr& target) {
    const auto* name = target.kind == ExprKind::kName
                           ? static_cast<const NameExpr*>(&target)
                           : nullptr;
    Unboxed i;
    if (it.range) {
      if (!it.range->take(i.value)) return false;
      tick();
      if (name != nullptr) {
        store(frame, id(frame, name->slot), i);
      } else {
        assign_target(frame, target, Value(i.value));
      }
      return true;
    }
    if (it.next == it.items.size()) return false;
    tick();
    Value& item = it.items[it.next++];
    if (name != nullptr && unbox(item, i)) {
      store(frame, id(frame, name->slot), i);
    } else {
      assign_target(frame, target, std::move(item));
    }
    return true;
  }

  static Range range_of(const std::vector<Value>& args) {
    if (args.empty() || args.size() > 3) {
      raise("TypeError", "range() takes 1..3 arguments (" + std::to_string(args.size()) +
                             " given)");
    }
    int64_t lo = 0, hi = 0, step = 1;
    if (args.size() == 1) {
      hi = as_int(args[0]);
    } else {
      lo = as_int(args[0]);
      hi = as_int(args[1]);
      if (args.size() == 3) step = as_int(args[2]);
    }
    if (step == 0) raise("ValueError", "range() step must not be zero");
    return Range(lo, hi, step);
  }

  // Positional arguments, with `*spread` expanded.
  std::vector<Value> call_args(Frame& frame, const CallExpr& call) {
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const auto& arg : call.args) {
      if (arg->kind == ExprKind::kStarred) {
        for (auto& v : iterate(eval(frame, *static_cast<const StarredExpr&>(*arg).value))) {
          args.push_back(std::move(v));
        }
      } else {
        args.push_back(eval(frame, *arg));
      }
    }
    return args;
  }

  // --- execution ---------------------------------------------------------------

  Flow exec_body(Frame& frame, const std::vector<StmtPtr>& body) {
    for (const auto& stmt : body) {
      const Flow flow = exec_stmt(frame, *stmt);
      if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
  }

  void exec_module(const Module& module) {
    Frame frame;
    frame.unit = &unit_for(module);
    const Flow flow = exec_body(frame, module.body);
    if (flow != Flow::kNormal) stray_flow(flow);
  }

  Flow exec_stmt(Frame& frame, const Stmt& stmt);
  Flow exec_try(Frame& frame, const TryStmt& stmt);
  Value eval(Frame& frame, const Expr& expr);
  bool eval_int(Frame& frame, const Expr& expr, Unboxed& out, Value& boxed);
  bool eval_binop(Frame& frame, const BinOpExpr& b, Unboxed& out, Value& boxed);
  bool eval_unary(Frame& frame, const UnaryOpExpr& u, Unboxed& out, Value& boxed);
  bool eval_compare(Frame& frame, const CompareExpr& c);
  Value eval_subscript(Frame& frame, const SubscriptExpr& s);
  Value eval_call(Frame& frame, const CallExpr& call);
  Value call_value(Frame& frame, const Value& callee, std::vector<Value> args);
  Value call_function(const FunctionDefStmt& def, const Unit& unit,
                      std::vector<Value> args, const Slots* captured,
                      Frame& caller_frame);
  Value call_builtin(Frame& frame, const NameExpr& name,
                     const CallExpr& call_expr, bool* handled);
  Value call_method(Frame& frame, const AttributeExpr& attr,
                    const CallExpr& call_expr);
  Value eval_comprehension(Frame& frame, const ComprehensionExpr& comp);
  void expand(Frame& frame, const ComprehensionExpr& comp, size_t clause_index,
              ValueList& list_out, ValueDict& dict_out);
  void assign_target(Frame& frame, const Expr& target, Value&& value);
  Value slice_value(Frame& frame, const Value& base, const SliceExpr& slice);
  Value module_attribute(const std::string& module, const std::string& attr);
  Value call_module_function(const std::string& qualified, std::vector<Value> args);
  // f-string interpolation: evaluate the parsed fields in the current frame.
  std::string interpolate(Frame& frame, const ConstantExpr& c);

  void do_import(Frame& frame, const std::string& module, uint32_t slot);
  void do_import_from(Frame& frame, const ImportFromStmt& stmt);

  void emit(const std::string& text) {
    if (options.capture_print) {
      captured_output += text;
    } else {
      std::fwrite(text.data(), 1, text.size(), stdout);
    }
  }
};

// --- statements -----------------------------------------------------------------

Flow Interpreter::Impl::exec_stmt(Frame& frame, const Stmt& stmt) {
  tick();
  switch (stmt.kind) {
    case StmtKind::kExpr:
      eval(frame, *static_cast<const ExprStmt&>(stmt).value);
      return Flow::kNormal;
    case StmtKind::kAssign: {
      const auto& n = static_cast<const AssignStmt&>(stmt);
      Value value;
      if (n.targets.size() == 1 && n.targets[0]->kind == ExprKind::kName) {
        const uint32_t i = id(frame, static_cast<const NameExpr&>(*n.targets[0]).slot);
        Unboxed r;
        if (eval_int(frame, *n.value, r, value)) {
          store(frame, i, r);
        } else {
          store(frame, i, std::move(value));
        }
        return Flow::kNormal;
      }
      value = eval(frame, *n.value);
      for (size_t i = 0; i + 1 < n.targets.size(); ++i) {
        assign_target(frame, *n.targets[i], Value(value));
      }
      assign_target(frame, *n.targets.back(), std::move(value));
      return Flow::kNormal;
    }
    case StmtKind::kAugAssign: {
      const auto& n = static_cast<const AugAssignStmt&>(stmt);
      const Op op = augmented_base(n.op);
      Unboxed y;
      Value rhs;
      const bool rhs_int = eval_int(frame, *n.value, y, rhs);
      if (n.target->kind == ExprKind::kName) {
        const auto& name = static_cast<const NameExpr&>(*n.target);
        const uint32_t i = id(frame, name.slot);
        const Value* bound = find(frame, i);
        Unboxed x;
        if (rhs_int && bound != nullptr && unbox(*bound, x)) {
          Unboxed r;
          if (int_binary(op, x, y, r, rhs)) {  // else a float, in rhs
            store(frame, i, r);
          } else {
            store(frame, i, std::move(rhs));
          }
          return Flow::kNormal;
        }
        if (rhs_int) rhs = box(y);
        store(frame, i, binary_op(op, load(frame, name), rhs));
        return Flow::kNormal;
      }
      if (rhs_int) rhs = box(y);
      Value* slot = resolve_lvalue(frame, *n.target);
      if (slot == nullptr) raise("SyntaxError", "invalid augmented-assignment target");
      *slot = binary_op(op, *slot, rhs);
      return Flow::kNormal;
    }
    case StmtKind::kAnnAssign: {
      const auto& n = static_cast<const AnnAssignStmt&>(stmt);
      if (n.value) assign_target(frame, *n.target, eval(frame, *n.value));
      return Flow::kNormal;
    }
    case StmtKind::kReturn: {
      const auto& n = static_cast<const ReturnStmt&>(stmt);
      frame.result = n.value ? eval(frame, *n.value) : Value();
      return Flow::kReturn;
    }
    case StmtKind::kPass:
      return Flow::kNormal;
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kIf: {
      const auto& n = static_cast<const IfStmt&>(stmt);
      return exec_body(frame, truthy(eval(frame, *n.cond)) ? n.body : n.orelse);
    }
    case StmtKind::kWhile: {
      const auto& n = static_cast<const WhileStmt&>(stmt);
      while (truthy(eval(frame, *n.cond))) {
        tick();
        const Flow flow = exec_body(frame, n.body);
        if (flow == Flow::kBreak) return Flow::kNormal;
        if (flow == Flow::kReturn) return flow;
      }
      return exec_body(frame, n.orelse);
    }
    case StmtKind::kFor: {
      const auto& n = static_cast<const ForStmt&>(stmt);
      Iteration it = iteration(frame, *n.iter);
      while (next_item(frame, it, *n.target)) {
        const Flow flow = exec_body(frame, n.body);
        if (flow == Flow::kBreak) return Flow::kNormal;
        if (flow == Flow::kReturn) return flow;
      }
      return exec_body(frame, n.orelse);
    }
    case StmtKind::kFunctionDef: {
      const auto& n = static_cast<const FunctionDefStmt&>(stmt);
      if (frame.locals == nullptr) {
        Global& global = globals[id(frame, n.slot)];
        global.def = &n;
        global.def_unit = frame.unit;
      } else {
        // Nested def becomes a local callable value.
        Callable c;
        c.def = &n;
        c.unit = frame.unit;
        c.captured = capture(frame);
        store(frame, id(frame, n.slot), make_callable(std::move(c)));
      }
      return Flow::kNormal;
    }
    case StmtKind::kImport: {
      const auto& n = static_cast<const ImportStmt&>(stmt);
      for (const auto& alias : n.names) do_import(frame, alias.name, alias.slot);
      return Flow::kNormal;
    }
    case StmtKind::kImportFrom:
      do_import_from(frame, static_cast<const ImportFromStmt&>(stmt));
      return Flow::kNormal;
    case StmtKind::kRaise: {
      const auto& n = static_cast<const RaiseStmt&>(stmt);
      if (!n.exc) raise("RuntimeError", "no active exception to re-raise");
      // raise Name("message") / raise Name
      if (n.exc->kind == ExprKind::kCall) {
        const auto& call = static_cast<const CallExpr&>(*n.exc);
        if (call.func->kind == ExprKind::kName) {
          const std::string type = static_cast<const NameExpr&>(*call.func).id;
          std::string message;
          if (!call.args.empty()) message = py_str(eval(frame, *call.args[0]));
          raise(type, message);
        }
      }
      if (n.exc->kind == ExprKind::kName) {
        raise(static_cast<const NameExpr&>(*n.exc).id, "");
      }
      raise("TypeError", "exceptions must be raised as Name or Name(args)");
    }
    case StmtKind::kTry:
      return exec_try(frame, static_cast<const TryStmt&>(stmt));
    case StmtKind::kAssert: {
      const auto& n = static_cast<const AssertStmt&>(stmt);
      if (!truthy(eval(frame, *n.test))) {
        raise("AssertionError", n.message ? py_str(eval(frame, *n.message)) : "");
      }
      return Flow::kNormal;
    }
    case StmtKind::kGlobal: {
      if (frame.locals != nullptr) {
        for (const uint32_t slot : static_cast<const ScopeDeclStmt&>(stmt).slots) {
          frame.locals[id(frame, slot)].global = true;
        }
      }
      return Flow::kNormal;
    }
    case StmtKind::kNonlocal:
      unsupported("nonlocal");
    case StmtKind::kDelete: {
      const auto& n = static_cast<const DeleteStmt&>(stmt);
      for (const auto& target : n.targets) {
        if (target->kind == ExprKind::kName) {
          const auto& name = static_cast<const NameExpr&>(*target);
          const uint32_t i = id(frame, name.slot);
          if (frame.locals != nullptr && frame.locals[i].bound) {
            frame.locals[i].value = Value();
            frame.locals[i].bound = false;
          } else if (globals[i].bound) {
            globals[i].value = Value();
            globals[i].bound = false;
          } else {
            raise("NameError", "name '" + name.id + "' is not defined");
          }
        } else if (target->kind == ExprKind::kSubscript) {
          const auto& sub = static_cast<const SubscriptExpr&>(*target);
          Place place;
          if (!place_of(frame, *sub.value, place)) {
            raise("SyntaxError", "cannot delete this target");
          }
          const Value index = eval(frame, *sub.index);
          Value* base = walk(frame, place);
          if (base->is_list()) {
            auto& list = base->as_list();
            list.erase(list.begin() + static_cast<long>(normalize_index(
                                          as_int(index), list.size(), "list")));
          } else if (base->is_dict()) {
            if (base->as_dict().erase(index.as_str()) == 0) {
              raise("KeyError", py_repr(index));
            }
          } else {
            raise("TypeError", "cannot delete items of " + type_name(*base));
          }
        } else {
          raise("SyntaxError", "cannot delete this target");
        }
      }
      return Flow::kNormal;
    }
    case StmtKind::kClassDef:
      unsupported("class definitions");
    case StmtKind::kWith:
      unsupported("with statements");
  }
  return Flow::kNormal;
}

Flow Interpreter::Impl::exec_try(Frame& frame, const TryStmt& n) {
  Flow flow = Flow::kNormal;
  try {
    bool raised = false;
    try {
      flow = exec_body(frame, n.body);
    } catch (const PyError& error) {
      raised = true;
      bool handled = false;
      for (const auto& handler : n.handlers) {
        bool matches = false;
        if (!handler.type) {
          matches = true;  // bare except
        } else {
          std::vector<const Expr*> types;
          if (handler.type->kind == ExprKind::kTuple) {
            for (const auto& t : static_cast<const SequenceExpr&>(*handler.type).elts) {
              types.push_back(t.get());
            }
          } else {
            types.push_back(handler.type.get());
          }
          for (const Expr* t : types) {
            if (t->kind == ExprKind::kName) {
              const auto& type = static_cast<const NameExpr*>(t)->id;
              if (type == error.type_name || type == "Exception") matches = true;
            }
          }
        }
        if (!matches) continue;
        if (!handler.name.empty()) {
          store(frame, id(frame, handler.slot), Value(std::string(error.what())));
        }
        flow = exec_body(frame, handler.body);
        handled = true;
        break;
      }
      if (!handled) throw;
    }
    if (!raised && flow == Flow::kNormal) flow = exec_body(frame, n.orelse);
  } catch (...) {
    // A break, continue or return in `finally` discards the exception.
    const Flow finally_flow = exec_body(frame, n.finally);
    if (finally_flow != Flow::kNormal) return finally_flow;
    throw;
  }
  const Flow finally_flow = exec_body(frame, n.finally);
  return finally_flow != Flow::kNormal ? finally_flow : flow;
}

void Interpreter::Impl::assign_target(Frame& frame, const Expr& target, Value&& value) {
  switch (target.kind) {
    case ExprKind::kName:
      store(frame, id(frame, static_cast<const NameExpr&>(target).slot), std::move(value));
      return;
    case ExprKind::kTuple:
    case ExprKind::kList: {
      const auto& elts = static_cast<const SequenceExpr&>(target).elts;
      if (!value.is_list()) {
        raise("TypeError", "cannot unpack non-sequence " + type_name(value));
      }
      auto& items = value.as_list();
      if (items.size() != elts.size()) {
        raise("ValueError", strformat("cannot unpack %zu values into %zu targets",
                                      items.size(), elts.size()));
      }
      for (size_t i = 0; i < elts.size(); ++i) {
        assign_target(frame, *elts[i], std::move(items[i]));
      }
      return;
    }
    case ExprKind::kSubscript: {
      const auto& sub = static_cast<const SubscriptExpr&>(target);
      Place place;
      if (!place_of(frame, *sub.value, place)) raise("SyntaxError", "invalid assignment target");
      const Value index = eval(frame, *sub.index);
      Value* base = walk(frame, place);
      if (base->is_list()) {
        auto& list = base->as_list();
        list[normalize_index(as_int(index), list.size(), "list")] = std::move(value);
        return;
      }
      if (base->is_dict()) {
        if (!index.is_str()) raise("TypeError", "dict keys must be strings");
        base->as_dict()[index.as_str()] = std::move(value);
        return;
      }
      raise("TypeError", "'" + type_name(*base) + "' does not support item assignment");
    }
    case ExprKind::kAttribute:
      unsupported("attribute assignment");
    default:
      raise("SyntaxError", "invalid assignment target");
  }
}

// --- expressions ------------------------------------------------------------------

Value Interpreter::Impl::eval(Frame& frame, const Expr& expr) {
  tick();
  switch (expr.kind) {
    case ExprKind::kName:
      return load(frame, static_cast<const NameExpr&>(expr));
    case ExprKind::kConstant: {
      const auto& c = static_cast<const ConstantExpr&>(expr);
      switch (c.const_kind) {
        case ConstantKind::kNone: return Value();
        case ConstantKind::kBool: return Value(c.bool_value);
        case ConstantKind::kInt:
          if (c.error) std::rethrow_exception(c.error);
          return Value(c.int_value);
        case ConstantKind::kFloat:
          if (c.error) std::rethrow_exception(c.error);
          return Value(c.float_value);
        case ConstantKind::kStr:
          if (c.fstring) return Value(interpolate(frame, c));
          return Value(c.text);
        case ConstantKind::kBytes:
          return Value(serde::Bytes(c.text.begin(), c.text.end()));
        case ConstantKind::kEllipsis: return Value();
      }
      return Value();
    }
    case ExprKind::kBinOp: {
      const auto& b = static_cast<const BinOpExpr&>(expr);
      if (b.op == Op::kWalrus) {
        Value value = eval(frame, *b.rhs);
        assign_target(frame, *b.lhs, Value(value));
        return value;
      }
      Unboxed r;
      Value boxed;
      return eval_binop(frame, b, r, boxed) ? box(r) : std::move(boxed);
    }
    case ExprKind::kUnaryOp: {
      Unboxed r;
      Value boxed;
      return eval_unary(frame, static_cast<const UnaryOpExpr&>(expr), r, boxed)
                 ? box(r)
                 : std::move(boxed);
    }
    case ExprKind::kBoolOp: {
      const auto& b = static_cast<const BoolOpExpr&>(expr);
      Value last;
      for (const auto& operand : b.values) {
        last = eval(frame, *operand);
        if (truthy(last) == (b.op == Op::kOr)) return last;
      }
      return last;
    }
    case ExprKind::kCompare:
      return Value(eval_compare(frame, static_cast<const CompareExpr&>(expr)));
    case ExprKind::kSubscript:
      return eval_subscript(frame, static_cast<const SubscriptExpr&>(expr));
    case ExprKind::kTuple:
    case ExprKind::kList:
    case ExprKind::kSet: {
      ValueList out;
      for (const auto& elt : static_cast<const SequenceExpr&>(expr).elts) {
        if (elt->kind == ExprKind::kStarred) {
          for (auto& v : iterate(eval(frame, *static_cast<const StarredExpr&>(*elt).value))) {
            out.push_back(std::move(v));
          }
        } else {
          out.push_back(eval(frame, *elt));
        }
      }
      if (expr.kind == ExprKind::kSet) {
        // Dedup preserving first occurrence (value-semantics stand-in).
        ValueList dedup;
        for (auto& v : out) {
          bool seen = false;
          for (const auto& d : dedup) {
            if (py_equal(d, v)) seen = true;
          }
          if (!seen) dedup.push_back(std::move(v));
        }
        return Value(std::move(dedup));
      }
      return Value(std::move(out));
    }
    case ExprKind::kDict: {
      ValueDict out;
      for (const auto& [key_expr, value_expr] :
           static_cast<const DictExpr&>(expr).items) {
        if (key_expr == nullptr) {  // ** expansion
          const Value spread = eval(frame, *value_expr);
          if (!spread.is_dict()) raise("TypeError", "** argument must be a dict");
          for (const auto& [k, v] : spread.as_dict()) out[k] = v;
          continue;
        }
        const Value key = eval(frame, *key_expr);
        if (!key.is_str()) raise("TypeError", "dict keys must be strings");
        out[key.as_str()] = eval(frame, *value_expr);
      }
      return Value(std::move(out));
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      return truthy(eval(frame, *c.cond)) ? eval(frame, *c.body)
                                          : eval(frame, *c.orelse);
    }
    case ExprKind::kLambda: {
      Callable c;
      c.lambda = &static_cast<const LambdaExpr&>(expr);
      c.unit = frame.unit;
      if (frame.locals != nullptr) c.captured = capture(frame);
      return make_callable(std::move(c));
    }
    case ExprKind::kComprehension:
      return eval_comprehension(frame, static_cast<const ComprehensionExpr&>(expr));
    case ExprKind::kCall:
      return eval_call(frame, static_cast<const CallExpr&>(expr));
    case ExprKind::kAttribute: {
      const auto& attr = static_cast<const AttributeExpr&>(expr);
      const Value base = eval(frame, *attr.value);
      if (is_module_handle(base)) {
        return module_attribute(base.at("__module__").as_str(), attr.attr);
      }
      raise("AttributeError", "'" + type_name(base) + "' object has no attribute '" +
                                   attr.attr + "' (only module attributes and "
                                   "method calls are supported)");
    }
    case ExprKind::kStarred:
      raise("SyntaxError", "starred expression outside call/display");
    case ExprKind::kSlice:
      raise("SyntaxError", "slice outside subscript");
    case ExprKind::kAwait:
      unsupported("await");
    case ExprKind::kYield:
      unsupported("generators");
  }
  raise("RuntimeError", "unhandled expression kind");
}

// --- the int path -----------------------------------------------------------------
// BinOp, UnaryOp and Compare compute on int64 while their operands are
// ints or bools, and box only the result they hand back to eval(). Each
// node still ticks once, as eval() does.

// Evaluates `expr` as eval() would. An int or bool result lands unboxed in
// `out` (true), any other in `boxed` (false). A name's int is read where it
// is bound and an int literal's value is the parsed one, so evaluating an
// int expression builds no Value.
bool Interpreter::Impl::eval_int(Frame& frame, const Expr& expr, Unboxed& out,
                                 Value& boxed) {
  switch (expr.kind) {
    case ExprKind::kName: {
      tick();
      const auto& name = static_cast<const NameExpr&>(expr);
      if (const Value* v = find(frame, id(frame, name.slot))) {
        if (unbox(*v, out)) return true;
        boxed = *v;
        return false;
      }
      boxed = load(frame, name);  // a def's handle, or NameError
      return false;
    }
    case ExprKind::kConstant: {
      const auto& c = static_cast<const ConstantExpr&>(expr);
      if (c.const_kind == ConstantKind::kInt && !c.error) {
        tick();
        out = {c.int_value, false};
        return true;
      }
      if (c.const_kind == ConstantKind::kBool) {
        tick();
        out = {c.bool_value, true};
        return true;
      }
      break;
    }
    case ExprKind::kBinOp: {
      const auto& b = static_cast<const BinOpExpr&>(expr);
      if (b.op == Op::kWalrus) break;
      tick();
      return eval_binop(frame, b, out, boxed);
    }
    case ExprKind::kUnaryOp:
      tick();
      return eval_unary(frame, static_cast<const UnaryOpExpr&>(expr), out, boxed);
    case ExprKind::kCompare:
      tick();
      out = {eval_compare(frame, static_cast<const CompareExpr&>(expr)), true};
      return true;
    default:
      break;
  }
  boxed = eval(frame, expr);
  return unbox(boxed, out);
}

// lhs op rhs: on int64 while both operands are ints or bools, else by
// binary_op from the first operand that is not.
bool Interpreter::Impl::eval_binop(Frame& frame, const BinOpExpr& b, Unboxed& out,
                                   Value& boxed) {
  Unboxed x;
  Unboxed y;
  // `boxed` holds a boxed lhs until the result replaces it: a Value built
  // and destroyed per node would cost as much as the arithmetic.
  if (!eval_int(frame, *b.lhs, x, boxed)) {
    boxed = binary_op(b.op, boxed, eval(frame, *b.rhs));
    return unbox(boxed, out);
  }
  if (!eval_int(frame, *b.rhs, y, boxed)) {
    boxed = binary_op(b.op, box(x), boxed);
    return unbox(boxed, out);
  }
  return int_binary(b.op, x, y, out, boxed);
}

bool Interpreter::Impl::eval_unary(Frame& frame, const UnaryOpExpr& u, Unboxed& out,
                                   Value& boxed) {
  Unboxed x;
  if (eval_int(frame, *u.operand, x, boxed)) {
    switch (u.op) {
      case Op::kNot:
        out = {x.value == 0, true};
        return true;
      case Op::kNeg:
        if (x.value == INT64_MIN) int_overflow("result of unary '-'");
        out = {-x.value, false};
        return true;
      case Op::kPos:
        out = x;
        return true;
      default:  // kInvert
        out = {~x.value, false};
        return true;
    }
  }
  if (u.op == Op::kNot) {
    out = {!truthy(boxed), true};
    return true;
  }
  if (boxed.is_real() && (u.op == Op::kNeg || u.op == Op::kPos)) {
    if (u.op == Op::kNeg) boxed = Value(-boxed.as_real());
    return false;
  }
  raise("TypeError", "bad operand type for unary " + std::string(op_text(u.op)) + ": " +
                         type_name(boxed));
}

// A comparison chain; a link between two ints or bools compares unboxed.
bool Interpreter::Impl::eval_compare(Frame& frame, const CompareExpr& c) {
  Unboxed x;
  Unboxed y;
  Value left;
  Value right;
  bool left_int = eval_int(frame, *c.lhs, x, left);
  for (const auto& [op, rhs_expr] : c.rest) {
    const bool right_int = eval_int(frame, *rhs_expr, y, right);
    if (left_int && right_int) {
      if (!int_compare(op, x, y)) return false;
    } else {
      if (left_int) left = box(x);
      if (right_int) right = box(y);
      if (!compare_op(op, left, right)) return false;
    }
    x = y;
    left_int = right_int;
    if (!right_int) left = std::move(right);
  }
  return true;
}

Value Interpreter::Impl::eval_subscript(Frame& frame, const SubscriptExpr& s) {
  // A bound name is read in place, not copied, when evaluating the index
  // cannot rebind it.
  Value copy;
  const Value* base = nullptr;
  if (s.value->kind == ExprKind::kName && !s.index_binds) {
    const auto& name = static_cast<const NameExpr&>(*s.value);
    base = find(frame, id(frame, name.slot));
  }
  if (base == nullptr) {
    copy = eval(frame, *s.value);
    base = &copy;
  }
  if (s.index->kind == ExprKind::kSlice) {
    return slice_value(frame, *base, static_cast<const SliceExpr&>(*s.index));
  }
  const Value index = eval(frame, *s.index);
  return item(*base, index);
}

Value Interpreter::Impl::eval_call(Frame& frame, const CallExpr& call) {
  // Method call: obj.method(args)
  if (call.func->kind == ExprKind::kAttribute) {
    return call_method(frame, static_cast<const AttributeExpr&>(*call.func), call);
  }
  // A name no binding holds: a module-level def, called directly with no
  // handle minted, else a builtin.
  if (call.func->kind == ExprKind::kName) {
    const auto& name = static_cast<const NameExpr&>(*call.func);
    const uint32_t i = id(frame, name.slot);
    if (find(frame, i) == nullptr) {
      if (const FunctionDefStmt* def = globals[i].def) {
        const Unit& unit = *globals[i].def_unit;
        std::vector<Value> args = call_args(frame, call);
        if (!call.keywords.empty()) {
          unsupported("keyword arguments to user-defined functions");
        }
        return call_function(*def, unit, std::move(args), nullptr, frame);
      }
      bool handled = false;
      Value result = call_builtin(frame, name, call, &handled);
      if (handled) return result;
    }
  }
  const Value callee = eval(frame, *call.func);
  std::vector<Value> args = call_args(frame, call);
  if (!call.keywords.empty()) {
    unsupported("keyword arguments to user-defined functions");
  }
  return call_value(frame, callee, std::move(args));
}

Value Interpreter::Impl::slice_value(Frame& frame, const Value& base,
                                     const SliceExpr& slice) {
  const auto size = static_cast<int64_t>(
      base.is_str() ? base.as_str().size()
                    : (base.is_list() ? base.as_list().size() : 0));
  if (!base.is_str() && !base.is_list()) {
    raise("TypeError", "'" + type_name(base) + "' object cannot be sliced");
  }
  const int64_t step =
      slice.step ? as_int(eval(frame, *slice.step)) : 1;
  if (step == 0) raise("ValueError", "slice step cannot be zero");
  const auto clamp = [size](int64_t v) {
    if (v < 0) v += size;
    return std::min(std::max<int64_t>(v, 0), size);
  };
  int64_t lo, hi;
  if (step > 0) {
    lo = slice.lower ? clamp(as_int(eval(frame, *slice.lower))) : 0;
    hi = slice.upper ? clamp(as_int(eval(frame, *slice.upper))) : size;
  } else {
    lo = slice.lower ? clamp(as_int(eval(frame, *slice.lower))) : size - 1;
    hi = slice.upper ? clamp(as_int(eval(frame, *slice.upper))) : -1;
    if (slice.lower && lo == size) lo = size - 1;
  }
  Range range(lo, hi, step);
  int64_t i = 0;
  if (base.is_str()) {
    std::string out;
    while (range.take(i)) {
      if (i >= 0 && i < size) out += base.as_str()[static_cast<size_t>(i)];
    }
    return Value(std::move(out));
  }
  ValueList out;
  while (range.take(i)) {
    if (i >= 0 && i < size) out.push_back(base.as_list()[static_cast<size_t>(i)]);
  }
  return Value(std::move(out));
}

Value Interpreter::Impl::eval_comprehension(Frame& frame,
                                            const ComprehensionExpr& comp) {
  ValueList list_out;
  ValueDict dict_out;
  expand(frame, comp, 0, list_out, dict_out);
  if (comp.value) return Value(std::move(dict_out));
  if (comp.comp_type == "set") {
    ValueList dedup;
    for (auto& v : list_out) {
      bool seen = false;
      for (const auto& d : dedup) {
        if (py_equal(d, v)) seen = true;
      }
      if (!seen) dedup.push_back(std::move(v));
    }
    return Value(std::move(dedup));
  }
  return Value(std::move(list_out));  // list and generator alike
}

// Runs clauses [clause_index, end) of `comp`, collecting its elements.
void Interpreter::Impl::expand(Frame& frame, const ComprehensionExpr& comp,
                               size_t clause_index, ValueList& list_out,
                               ValueDict& dict_out) {
  if (clause_index == comp.clauses.size()) {
    if (comp.value) {  // dict comprehension
      const Value key = eval(frame, *comp.element);
      if (!key.is_str()) raise("TypeError", "dict keys must be strings");
      dict_out[key.as_str()] = eval(frame, *comp.value);
    } else {
      list_out.push_back(eval(frame, *comp.element));
    }
    return;
  }
  const auto& clause = comp.clauses[clause_index];
  Iteration it = iteration(frame, *clause.iter);
  while (next_item(frame, it, *clause.target)) {
    bool keep = true;
    for (const auto& cond : clause.conditions) {
      if (!truthy(eval(frame, *cond))) {
        keep = false;
        break;
      }
    }
    if (keep) expand(frame, comp, clause_index + 1, list_out, dict_out);
  }
}

Value Interpreter::Impl::call_value(Frame& frame, const Value& callee,
                                    std::vector<Value> args) {
  if (is_callable_handle(callee)) {
    const auto id = static_cast<size_t>(callee.at("__callable__").as_int());
    if (id >= callables.size()) raise("RuntimeError", "dangling callable");
    const Callable& callable = callables[id];
    if (callable.def != nullptr) {
      return call_function(*callable.def, *callable.unit, std::move(args),
                           &callable.captured, frame);
    }
    // Lambda: bind parameters over the captured snapshot.
    const LambdaExpr& lambda = *callable.lambda;
    if (args.size() != lambda.params.size()) {
      raise("TypeError", strformat("lambda takes %zu arguments (%zu given)",
                                   lambda.params.size(), args.size()));
    }
    Slots locals = new_locals(&callable.captured);
    for (size_t i = 0; i < args.size(); ++i) {
      Slot& slot = locals[callable.unit->ids[lambda.param_slots[i]]];
      slot.value = std::move(args[i]);
      slot.bound = true;
    }
    Frame lambda_frame;
    lambda_frame.unit = callable.unit;
    lambda_frame.locals = locals.data();
    return eval(lambda_frame, *lambda.body);
  }
  if (is_builtin_handle(callee)) {
    return call_module_function(callee.at("__builtin__").as_str(), std::move(args));
  }
  raise("TypeError", "'" + type_name(callee) + "' object is not callable");
}

Value Interpreter::Impl::call_function(const FunctionDefStmt& def, const Unit& unit,
                                       std::vector<Value> args,
                                       const Slots* captured,
                                       Frame& caller_frame) {
  if (depth >= options.max_recursion_depth) {
    raise("RecursionError", "maximum recursion depth exceeded");
  }
  ++depth;
  struct DepthGuard {
    int& depth;
    ~DepthGuard() { --depth; }
  } guard{depth};

  Slots locals = new_locals(captured);
  // Defaults evaluate in the caller's frame, read with this def's slots.
  Frame defaults_frame;
  defaults_frame.unit = &unit;
  defaults_frame.locals = caller_frame.locals;

  // Bind parameters: positional, defaults, *args.
  size_t arg_index = 0;
  for (const auto& param : def.params) {
    Value value;
    if (param.is_kwarg) {
      value = Value(ValueDict{});
    } else if (param.is_vararg) {
      ValueList rest;
      while (arg_index < args.size()) rest.push_back(std::move(args[arg_index++]));
      value = Value(std::move(rest));
    } else if (arg_index < args.size()) {
      value = std::move(args[arg_index++]);
    } else if (param.default_val) {
      value = eval(defaults_frame, *param.default_val);
    } else {
      raise("TypeError", "missing argument '" + param.name + "' calling " + def.name);
    }
    Slot& slot = locals[unit.ids[param.slot]];
    slot.value = std::move(value);
    slot.bound = true;
  }
  if (arg_index < args.size()) {
    raise("TypeError", strformat("%s takes %zu arguments (%zu given)",
                                 def.name.c_str(), def.params.size(), args.size()));
  }

  Frame frame;
  frame.unit = &unit;
  frame.locals = locals.data();
  const Flow flow = exec_body(frame, def.body);
  if (flow == Flow::kBreak || flow == Flow::kContinue) stray_flow(flow);
  return std::move(frame.result);
}

// --- builtins ----------------------------------------------------------------------

Value Interpreter::Impl::call_builtin(Frame& frame, const NameExpr& fn,
                                      const CallExpr& call_expr, bool* handled) {
  *handled = true;
  std::vector<Value> args = call_args(frame, call_expr);
  const std::string& name = fn.id;
  const auto need = [&](size_t lo, size_t hi) {
    if (args.size() < lo || args.size() > hi) {
      raise("TypeError", name + "() takes " + std::to_string(lo) +
                             (hi != lo ? ".." + std::to_string(hi) : "") +
                             " arguments (" + std::to_string(args.size()) + " given)");
    }
  };

  switch (fn.builtin) {
    case Builtin::kNone:
      break;
    case Builtin::kLen: {
      need(1, 1);
      const Value& v = args[0];
      if (v.is_str()) return Value(static_cast<int64_t>(v.as_str().size()));
      if (v.is_list()) return Value(static_cast<int64_t>(v.as_list().size()));
      if (v.is_dict()) return Value(static_cast<int64_t>(v.as_dict().size()));
      if (v.is_bytes()) return Value(static_cast<int64_t>(v.as_bytes().size()));
      raise("TypeError", "object of type '" + type_name(v) + "' has no len()");
    }
    case Builtin::kRange: {
      Range range = range_of(args);
      ValueList out;
      int64_t i = 0;
      while (range.take(i)) {
        tick();
        out.push_back(Value(i));
      }
      return Value(std::move(out));
    }
    case Builtin::kPrint: {
      std::string line;
      for (size_t i = 0; i < args.size(); ++i) {
        if (i != 0) line += ' ';
        line += py_str(args[i]);
      }
      emit(line + "\n");
      return Value();
    }
    case Builtin::kAbs:
      need(1, 1);
      if (is_int_like(args[0])) {
        const int64_t v = as_int(args[0]);
        if (v == INT64_MIN) int_overflow("abs(" + std::to_string(v) + ")");
        return Value(v < 0 ? -v : v);
      }
      if (args[0].is_real()) return Value(std::abs(args[0].as_real()));
      raise("TypeError", "bad operand for abs()");
    case Builtin::kMin:
    case Builtin::kMax: {
      ValueList items = args.size() == 1 ? iterate(std::move(args[0])) : std::move(args);
      if (items.empty()) raise("ValueError", name + "() of empty sequence");
      const int better = fn.builtin == Builtin::kMin ? -1 : 1;
      size_t best = 0;
      for (size_t i = 1; i < items.size(); ++i) {
        if (compare(items[i], items[best]) == better) best = i;
      }
      return std::move(items[best]);
    }
    case Builtin::kSum: {
      need(1, 2);
      Value total = args.size() == 2 ? args[1] : Value(int64_t{0});
      for (const auto& v : iterate(std::move(args[0]))) total = binary_op(Op::kAdd, total, v);
      return total;
    }
    case Builtin::kSorted: {
      need(1, 1);
      if (!call_expr.keywords.empty()) {
        // sorted(xs, key=fn[, reverse=bool])
        ValueList items = iterate(args[0]);
        Value key_fn;
        bool reverse = false;
        for (const auto& kw : call_expr.keywords) {
          if (kw.name == "key") {
            key_fn = eval(frame, *kw.value);
          } else if (kw.name == "reverse") {
            reverse = truthy(eval(frame, *kw.value));
          } else {
            raise("TypeError", "sorted() got unexpected keyword '" + kw.name + "'");
          }
        }
        std::vector<std::pair<Value, Value>> keyed;  // (key, item)
        keyed.reserve(items.size());
        for (auto& item : items) {
          Value key = key_fn.is_none() ? item : call_value(frame, key_fn, {item});
          keyed.emplace_back(std::move(key), std::move(item));
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const auto& a, const auto& b) {
                           return compare(a.first, b.first) < 0;
                         });
        ValueList out;
        for (auto& [_, item] : keyed) out.push_back(std::move(item));
        if (reverse) std::reverse(out.begin(), out.end());
        return Value(std::move(out));
      }
      ValueList items = iterate(std::move(args[0]));
      std::stable_sort(items.begin(), items.end(),
                       [](const Value& a, const Value& b) { return compare(a, b) < 0; });
      return Value(std::move(items));
    }
    case Builtin::kStr:
      need(0, 1);
      return Value(args.empty() ? std::string() : py_str(args[0]));
    case Builtin::kRepr:
      need(1, 1);
      return Value(py_repr(args[0]));
    case Builtin::kInt:
      need(0, 2);
      if (args.empty()) return Value(int64_t{0});
      if (args[0].is_str()) {
        const int base = args.size() == 2 ? static_cast<int>(as_int(args[1])) : 10;
        const std::string text = trim(args[0].as_str());
        try {
          size_t used = 0;
          const int64_t v = std::stoll(text, &used, base);
          if (used != text.size()) throw std::invalid_argument("");
          return Value(v);
        } catch (const std::out_of_range&) {
          int_overflow("int(" + py_repr(args[0]) + ")");
        } catch (const std::exception&) {
          raise("ValueError", "invalid literal for int(): " + py_repr(args[0]));
        }
      }
      return Value(as_int(args[0]));
    case Builtin::kFloat:
      need(0, 1);
      if (args.empty()) return Value(0.0);
      if (args[0].is_str()) {
        try {
          return Value(std::stod(trim(args[0].as_str())));
        } catch (const std::exception&) {
          raise("ValueError", "could not convert string to float: " + py_repr(args[0]));
        }
      }
      return Value(as_real(args[0]));
    case Builtin::kBool:
      need(0, 1);
      return Value(!args.empty() && truthy(args[0]));
    case Builtin::kList:
      need(0, 1);
      if (args.empty()) return Value(ValueList{});
      return Value(iterate(std::move(args[0])));
    case Builtin::kDict:
      need(0, 1);
      if (args.empty()) return Value(ValueDict{});
      if (args[0].is_dict()) return args[0];
      raise("TypeError", "dict() argument must be a dict");
    case Builtin::kEnumerate: {
      need(1, 2);
      const int64_t start = args.size() == 2 ? as_int(args[1]) : 0;
      ValueList items = iterate(std::move(args[0]));
      ValueList out;
      for (size_t k = 0; k < items.size(); ++k) {
        int64_t index = 0;
        if (__builtin_add_overflow(start, static_cast<int64_t>(k), &index)) {
          int_overflow("enumerate() index");
        }
        out.push_back(Value(ValueList{Value(index), std::move(items[k])}));
      }
      return Value(std::move(out));
    }
    case Builtin::kZip: {
      std::vector<ValueList> sequences;
      for (auto& arg : args) sequences.push_back(iterate(std::move(arg)));
      size_t shortest = sequences.empty() ? 0 : SIZE_MAX;
      for (const auto& s : sequences) shortest = std::min(shortest, s.size());
      ValueList out;
      for (size_t i = 0; i < shortest; ++i) {
        ValueList row;
        for (const auto& s : sequences) row.push_back(s[i]);
        out.push_back(Value(std::move(row)));
      }
      return Value(std::move(out));
    }
    case Builtin::kRound: {
      need(1, 2);
      const double v = as_real(args[0]);
      if (args.size() == 2) {
        const double scale = std::pow(10.0, static_cast<double>(as_int(args[1])));
        return Value(std::round(v * scale) / scale);
      }
      return Value(checked_int(std::round(v)));
    }
    case Builtin::kAny:
    case Builtin::kAll: {
      need(1, 1);
      const bool any = fn.builtin == Builtin::kAny;
      for (const auto& v : iterate(std::move(args[0]))) {
        if (truthy(v) == any) return Value(any);
      }
      return Value(!any);
    }
    case Builtin::kIsinstance:
      need(2, 2);
      // Second argument arrives as a NameError-prone identifier; handled by
      // evaluating the raw expression text instead. Simplify: support via
      // type-name string comparison is not expressible here; report clearly.
      raise("UnsupportedError", "isinstance() is not supported");
  }
  *handled = false;
  return Value();
}

Value Interpreter::Impl::call_method(Frame& frame, const AttributeExpr& attr,
                                     const CallExpr& call_expr) {
  std::vector<Value> args;
  for (const auto& arg : call_expr.args) args.push_back(eval(frame, *arg));
  const auto need = [&](size_t lo, size_t hi) {
    if (args.size() < lo || args.size() > hi) {
      raise("TypeError", attr.attr + "() takes " + std::to_string(lo) + ".." +
                             std::to_string(hi) + " arguments");
    }
  };

  // Module function: math.sqrt(x), json.dumps(v).
  {
    // Evaluate base only once for this check; module handles are cheap.
    if (attr.value->kind == ExprKind::kName) {
      const auto& base_name = static_cast<const NameExpr&>(*attr.value);
      Value* bound = find(frame, id(frame, base_name.slot));
      if (bound != nullptr && is_module_handle(*bound)) {
        return call_module_function(
            bound->at("__module__").as_str() + "." + attr.attr, std::move(args));
      }
    }
  }

  // Mutating methods need an lvalue receiver; value receivers get copies
  // for the non-mutating ones.
  Value* lvalue = resolve_lvalue(frame, *attr.value);
  Value receiver_copy;
  if (lvalue == nullptr) receiver_copy = eval(frame, *attr.value);
  Value& receiver = lvalue != nullptr ? *lvalue : receiver_copy;
  const Method m = attr.method;

  if (receiver.is_list()) {
    auto& list = receiver.as_list();
    if (m == Method::kAppend) {
      need(1, 1);
      list.push_back(std::move(args[0]));
      return Value();
    }
    if (m == Method::kExtend) {
      need(1, 1);
      for (const auto& v : iterate(args[0])) list.push_back(v);
      return Value();
    }
    if (m == Method::kInsert) {
      need(2, 2);
      const auto at = std::min<size_t>(
          static_cast<size_t>(std::max<int64_t>(as_int(args[0]), 0)), list.size());
      list.insert(list.begin() + static_cast<long>(at), std::move(args[1]));
      return Value();
    }
    if (m == Method::kPop) {
      need(0, 1);
      if (list.empty()) raise("IndexError", "pop from empty list");
      const size_t at = args.empty()
                            ? list.size() - 1
                            : normalize_index(as_int(args[0]), list.size(), "list");
      Value out = std::move(list[at]);
      list.erase(list.begin() + static_cast<long>(at));
      return out;
    }
    if (m == Method::kRemove) {
      need(1, 1);
      for (size_t i = 0; i < list.size(); ++i) {
        if (py_equal(list[i], args[0])) {
          list.erase(list.begin() + static_cast<long>(i));
          return Value();
        }
      }
      raise("ValueError", "list.remove(x): x not in list");
    }
    if (m == Method::kIndex) {
      need(1, 1);
      for (size_t i = 0; i < list.size(); ++i) {
        if (py_equal(list[i], args[0])) return Value(static_cast<int64_t>(i));
      }
      raise("ValueError", py_repr(args[0]) + " is not in list");
    }
    if (m == Method::kCount) {
      need(1, 1);
      int64_t n = 0;
      for (const auto& v : list) {
        if (py_equal(v, args[0])) ++n;
      }
      return Value(n);
    }
    if (m == Method::kSort) {
      need(0, 0);
      std::stable_sort(list.begin(), list.end(), [](const Value& a, const Value& b) {
        return compare(a, b) < 0;
      });
      return Value();
    }
    if (m == Method::kReverse) {
      need(0, 0);
      std::reverse(list.begin(), list.end());
      return Value();
    }
  }

  if (receiver.is_dict()) {
    auto& dict = receiver.as_dict();
    const auto key_of = [&](const Value& k) -> std::string {
      if (!k.is_str()) raise("TypeError", "dict keys must be strings");
      return k.as_str();
    };
    if (m == Method::kGet) {
      need(1, 2);
      const auto it = dict.find(key_of(args[0]));
      if (it != dict.end()) return it->second;
      return args.size() == 2 ? args[1] : Value();
    }
    if (m == Method::kKeys) {
      need(0, 0);
      ValueList out;
      for (const auto& [k, _] : dict) out.push_back(Value(k));
      return Value(std::move(out));
    }
    if (m == Method::kValues) {
      need(0, 0);
      ValueList out;
      for (const auto& [_, v] : dict) out.push_back(v);
      return Value(std::move(out));
    }
    if (m == Method::kItems) {
      need(0, 0);
      ValueList out;
      for (const auto& [k, v] : dict) out.push_back(Value(ValueList{Value(k), v}));
      return Value(std::move(out));
    }
    if (m == Method::kPop) {
      need(1, 2);
      const auto it = dict.find(key_of(args[0]));
      if (it == dict.end()) {
        if (args.size() == 2) return args[1];
        raise("KeyError", py_repr(args[0]));
      }
      Value out = std::move(it->second);
      dict.erase(it);
      return out;
    }
    if (m == Method::kUpdate) {
      need(1, 1);
      if (!args[0].is_dict()) raise("TypeError", "update() argument must be a dict");
      for (const auto& [k, v] : args[0].as_dict()) dict[k] = v;
      return Value();
    }
    if (m == Method::kSetdefault) {
      need(1, 2);
      const std::string key = key_of(args[0]);
      const auto it = dict.find(key);
      if (it != dict.end()) return it->second;
      Value def = args.size() == 2 ? args[1] : Value();
      dict[key] = def;
      return def;
    }
  }

  if (receiver.is_str()) {
    const std::string& s = receiver.as_str();
    if (m == Method::kSplit) {
      need(0, 1);
      ValueList out;
      if (args.empty()) {
        // whitespace split, skipping runs
        std::string current;
        for (const char c : s) {
          if (std::isspace(static_cast<unsigned char>(c))) {
            if (!current.empty()) out.push_back(Value(current));
            current.clear();
          } else {
            current += c;
          }
        }
        if (!current.empty()) out.push_back(Value(current));
      } else {
        const std::string sep = args[0].as_str();
        if (sep.empty()) raise("ValueError", "empty separator");
        size_t start = 0;
        while (true) {
          const size_t at = s.find(sep, start);
          if (at == std::string::npos) {
            out.push_back(Value(s.substr(start)));
            break;
          }
          out.push_back(Value(s.substr(start, at - start)));
          start = at + sep.size();
        }
      }
      return Value(std::move(out));
    }
    if (m == Method::kJoin) {
      need(1, 1);
      std::string out;
      bool first = true;
      for (const auto& part : iterate(args[0])) {
        if (!part.is_str()) raise("TypeError", "join() requires strings");
        if (!first) out += s;
        first = false;
        out += part.as_str();
      }
      return Value(std::move(out));
    }
    if (m == Method::kUpper || m == Method::kLower) {
      need(0, 0);
      std::string out = s;
      for (char& c : out) {
        c = m == Method::kUpper ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                         : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Value(std::move(out));
    }
    if (m == Method::kStrip) {
      need(0, 0);
      return Value(trim(s));
    }
    if (m == Method::kStartswith) {
      need(1, 1);
      return Value(starts_with(s, args[0].as_str()));
    }
    if (m == Method::kEndswith) {
      need(1, 1);
      return Value(ends_with(s, args[0].as_str()));
    }
    if (m == Method::kReplace) {
      need(2, 2);
      std::string out = s;
      const std::string& from = args[0].as_str();
      const std::string& to = args[1].as_str();
      if (from.empty()) return Value(out);
      size_t at = 0;
      while ((at = out.find(from, at)) != std::string::npos) {
        out.replace(at, from.size(), to);
        at += to.size();
      }
      return Value(std::move(out));
    }
    if (m == Method::kFind) {
      need(1, 1);
      const size_t at = s.find(args[0].as_str());
      return Value(at == std::string::npos ? int64_t{-1} : static_cast<int64_t>(at));
    }
    if (m == Method::kCount) {
      need(1, 1);
      const std::string& sub = args[0].as_str();
      if (sub.empty()) return Value(static_cast<int64_t>(s.size() + 1));
      int64_t n = 0;
      size_t at = 0;
      while ((at = s.find(sub, at)) != std::string::npos) {
        ++n;
        at += sub.size();
      }
      return Value(n);
    }
    if (m == Method::kIsdigit) {
      need(0, 0);
      bool all_digits = !s.empty();
      for (const char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c))) all_digits = false;
      }
      return Value(all_digits);
    }
  }

  raise("AttributeError",
        "'" + type_name(receiver) + "' object has no method '" + attr.attr + "'");
}

// --- builtin modules ------------------------------------------------------------

void Interpreter::Impl::do_import(Frame& frame, const std::string& module,
                                  uint32_t slot) {
  if (module == "math" || module == "json") {
    ValueDict handle;
    handle["__module__"] = Value(module);
    store(frame, id(frame, slot), Value(std::move(handle)));
    return;
  }
  raise("ImportError", "no module named '" + module + "'");
}

void Interpreter::Impl::do_import_from(Frame& frame, const ImportFromStmt& stmt) {
  if (stmt.level > 0) raise("ImportError", "relative imports are not supported");
  if (stmt.module != "math" && stmt.module != "json") {
    raise("ImportError", "no module named '" + stmt.module + "'");
  }
  if (stmt.star) raise("ImportError", "star imports are not supported");
  for (const auto& alias : stmt.names) {
    ValueDict handle;
    handle["__builtin__"] = Value(stmt.module + "." + alias.name);
    store(frame, id(frame, alias.slot), Value(std::move(handle)));
  }
}

Value Interpreter::Impl::module_attribute(const std::string& module,
                                          const std::string& attr) {
  if (module == "math") {
    if (attr == "pi") return Value(M_PI);
    if (attr == "e") return Value(M_E);
    if (attr == "inf") return Value(std::numeric_limits<double>::infinity());
  }
  // Functions become builtin handles callable later.
  ValueDict handle;
  handle["__builtin__"] = Value(module + "." + attr);
  return Value(std::move(handle));
}

Value Interpreter::Impl::call_module_function(const std::string& qualified,
                                              std::vector<Value> args) {
  const auto need = [&](size_t n) {
    if (args.size() != n) {
      raise("TypeError", qualified + "() takes " + std::to_string(n) + " arguments");
    }
  };
  const auto unary = [&](double (*fn)(double)) {
    need(1);
    return Value(fn(as_real(args[0])));
  };
  if (qualified == "math.sqrt") {
    need(1);
    if (as_real(args[0]) < 0) raise("ValueError", "math domain error");
    return Value(std::sqrt(as_real(args[0])));
  }
  if (qualified == "math.floor") {
    need(1);
    return Value(checked_int(std::floor(as_real(args[0]))));
  }
  if (qualified == "math.ceil") {
    need(1);
    return Value(checked_int(std::ceil(as_real(args[0]))));
  }
  if (qualified == "math.exp") return unary(std::exp);
  if (qualified == "math.log") {
    if (args.size() == 2) {
      return Value(std::log(as_real(args[0])) / std::log(as_real(args[1])));
    }
    need(1);
    if (as_real(args[0]) <= 0) raise("ValueError", "math domain error");
    return Value(std::log(as_real(args[0])));
  }
  if (qualified == "math.sin") return unary(std::sin);
  if (qualified == "math.cos") return unary(std::cos);
  if (qualified == "math.tan") return unary(std::tan);
  if (qualified == "math.fabs") return unary(std::fabs);
  if (qualified == "math.pow") {
    need(2);
    return Value(std::pow(as_real(args[0]), as_real(args[1])));
  }
  if (qualified == "json.dumps") {
    need(1);
    return Value(serde::to_json(args[0]));
  }
  raise("AttributeError", "module function '" + qualified + "' is not available");
}

// --- public API -------------------------------------------------------------------

Interpreter::Interpreter(InterpOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

Interpreter::~Interpreter() = default;

void Interpreter::exec(const Module& module) { impl_->exec_module(module); }

void Interpreter::exec_source(const std::string& source) {
  impl_->owned_modules.push_back(std::make_unique<Module>(parse_module(source)));
  exec(*impl_->owned_modules.back());
}

serde::Value Interpreter::call(const std::string& function,
                               std::vector<serde::Value> args) {
  const uint32_t id = impl_->find_id(function);
  if (id == impl_->names.size() || impl_->globals[id].def == nullptr) {
    raise("NameError", "function '" + function + "' is not defined");
  }
  const Impl::Global& global = impl_->globals[id];
  Impl::Frame frame;
  frame.unit = global.def_unit;
  return impl_->call_function(*global.def, *global.def_unit, std::move(args), nullptr,
                              frame);
}

serde::Value Interpreter::eval_expression_source(const std::string& source) {
  impl_->owned_modules.push_back(
      std::make_unique<Module>(parse_expression_module(source)));
  const Module& module = *impl_->owned_modules.back();
  Impl::Frame frame;
  frame.unit = &impl_->unit_for(module);
  return impl_->eval(frame, *static_cast<const ExprStmt&>(*module.body[0]).value);
}

serde::Value Interpreter::global(const std::string& name) const {
  const uint32_t id = impl_->find_id(name);
  if (id == impl_->names.size() || !impl_->globals[id].bound) {
    throw Error("Interpreter::global: no global named '" + name + "'");
  }
  return impl_->globals[id].value;
}

void Interpreter::set_global(const std::string& name, serde::Value value) {
  Impl::Global& global = impl_->globals[impl_->intern(name)];
  global.value = std::move(value);
  global.bound = true;
}

const std::string& Interpreter::output() const { return impl_->captured_output; }

void Interpreter::clear_output() { impl_->captured_output.clear(); }

int64_t Interpreter::steps_executed() const { return impl_->steps; }

serde::Value run_python_function(const std::string& module_source,
                                 const std::string& function,
                                 std::vector<serde::Value> args,
                                 const InterpOptions& options) {
  Interpreter interp(options);
  interp.exec_source(module_source);
  return interp.call(function, std::move(args));
}

serde::Value run_python_function(const std::shared_ptr<const Module>& module,
                                 const std::string& function,
                                 std::vector<serde::Value> args,
                                 const InterpOptions& options) {
  Interpreter interp(options);
  interp.exec(*module);
  return interp.call(function, std::move(args));
}

}  // namespace lfm::pysrc


namespace lfm::pysrc {

std::string Interpreter::Impl::interpolate(Frame& frame, const ConstantExpr& c) {
  std::string out;
  for (const FStringPart& part : c.fstring_parts) {
    out += part.literal;
    if (!part.field) continue;
    const Value value = eval(frame, *part.field);
    out += part.fixed ? strformat("%.*f", part.precision, as_real(value)) : py_str(value);
  }
  if (c.error) std::rethrow_exception(c.error);
  return out;
}

}  // namespace lfm::pysrc
