// A dynamic value type standing in for Python objects crossing the
// interpreter/worker boundary. Function arguments and results are `Value`s;
// the codec in pickle.h turns them into transferable bytes, mirroring the
// role of Python's pickle in the paper's LFM task wrapper.
//
// Leaves come in two flavours:
//   * owned   — std::string / Bytes, the default everywhere.
//   * borrowed — std::string_view / BytesView referencing an external
//     buffer, produced only by the zero-copy decode path
//     (serde::loads_view). Borrowed leaves report the same kind() as their
//     owned twins, compare equal to them by content, and materialize
//     lazily: calling an owning accessor (as_str()/as_bytes()) promotes the
//     leaf to its owned form in place, so consumers that take references
//     keep working unchanged. A borrowed value must not outlive the buffer
//     it was decoded from unless every leaf has been materialized (or
//     to_owned() was taken).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.h"

namespace lfm::serde {

class Value;
using ValueList = std::vector<Value>;
using ValueDict = std::map<std::string, Value>;
using Bytes = std::vector<uint8_t>;

// A non-owning view of a byte buffer (the bytes twin of std::string_view).
struct BytesView {
  const uint8_t* data = nullptr;
  size_t size = 0;

  BytesView() = default;
  BytesView(const uint8_t* d, size_t n) : data(d), size(n) {}
  BytesView(const Bytes& b) : data(b.data()), size(b.size()) {}  // NOLINT

  const uint8_t* begin() const { return data; }
  const uint8_t* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

enum class ValueKind : uint8_t {
  kNone = 0,
  kBool = 1,
  kInt = 2,
  kReal = 3,
  kStr = 4,
  kBytes = 5,
  kList = 6,
  kDict = 7,
};

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}                        // NOLINT
  Value(int64_t i) : v_(i) {}                     // NOLINT
  Value(int i) : v_(static_cast<int64_t>(i)) {}   // NOLINT
  Value(double d) : v_(d) {}                      // NOLINT
  Value(const char* s) : v_(std::string(s)) {}    // NOLINT
  Value(std::string s) : v_(std::move(s)) {}      // NOLINT
  Value(Bytes b) : v_(std::move(b)) {}            // NOLINT
  Value(ValueList l) : v_(std::move(l)) {}        // NOLINT
  Value(ValueDict d) : v_(std::move(d)) {}        // NOLINT

  // Borrowed-leaf constructors (zero-copy decode path). Tagged to keep the
  // implicit conversions above unambiguous.
  struct Borrowed {};
  Value(Borrowed, std::string_view s) : v_(s) {}
  Value(Borrowed, BytesView b) : v_(b) {}

  ValueKind kind() const {
    const size_t i = v_.index();
    if (i == kStrViewIndex) return ValueKind::kStr;
    if (i == kBytesViewIndex) return ValueKind::kBytes;
    return static_cast<ValueKind>(i);
  }
  bool is_none() const { return kind() == ValueKind::kNone; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_real() const { return kind() == ValueKind::kReal; }
  bool is_str() const { return kind() == ValueKind::kStr; }
  bool is_bytes() const { return kind() == ValueKind::kBytes; }
  bool is_list() const { return kind() == ValueKind::kList; }
  bool is_dict() const { return kind() == ValueKind::kDict; }
  // True for a leaf still referencing an external buffer.
  bool is_borrowed() const {
    return v_.index() == kStrViewIndex || v_.index() == kBytesViewIndex;
  }

  bool as_bool() const { return get<bool>("bool"); }
  int64_t as_int() const { return get<int64_t>("int"); }
  double as_real() const {
    // Ints quietly widen to real, matching Python numeric behaviour.
    if (is_int()) return static_cast<double>(as_int());
    return get<double>("real");
  }
  // Owning accessors; a borrowed leaf is promoted to its owned form first
  // (logically const — the value is unchanged, only its storage).
  const std::string& as_str() const {
    if (const auto* sv = std::get_if<std::string_view>(&v_)) {
      v_ = std::string(*sv);
    }
    return get<std::string>("str");
  }
  const Bytes& as_bytes() const {
    if (const auto* bv = std::get_if<BytesView>(&v_)) {
      v_ = Bytes(bv->begin(), bv->end());
    }
    return get<Bytes>("bytes");
  }
  // Non-materializing leaf reads — the hot-path accessors: work for both
  // owned and borrowed leaves without allocating.
  std::string_view str_view() const {
    if (const auto* sv = std::get_if<std::string_view>(&v_)) return *sv;
    return get<std::string>("str");
  }
  BytesView bytes_view() const {
    if (const auto* bv = std::get_if<BytesView>(&v_)) return *bv;
    return BytesView(get<Bytes>("bytes"));
  }
  const ValueList& as_list() const { return get<ValueList>("list"); }
  ValueList& as_list() { return get_mut<ValueList>("list"); }
  const ValueDict& as_dict() const { return get<ValueDict>("dict"); }
  ValueDict& as_dict() { return get_mut<ValueDict>("dict"); }

  // Makes this value the int `i`, in place when it already holds an int.
  void set_int(int64_t i) { v_ = i; }

  // Dict field access; throws on missing key or non-dict.
  const Value& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  // Content equality: a borrowed leaf equals its owned twin. Comparing a
  // dangling borrowed leaf is undefined, as with any view.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Deep copy with every borrowed leaf materialized; safe to keep after the
  // decode buffer is gone.
  Value to_owned() const;

  // Human-readable repr for logs and tests (Python-ish literal syntax).
  std::string repr() const;

 private:
  static constexpr size_t kStrViewIndex = 8;
  static constexpr size_t kBytesViewIndex = 9;

  template <typename T>
  const T& get(const char* name) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    wrong_kind(name);
  }
  template <typename T>
  T& get_mut(const char* name) {
    if (T* p = std::get_if<T>(&v_)) return *p;
    wrong_kind(name);
  }
  // The accessors' type error, out of line so that they inline.
  [[noreturn]] void wrong_kind(const char* expected) const;

  // mutable: owning accessors materialize borrowed leaves in place.
  mutable std::variant<std::monostate, bool, int64_t, double, std::string, Bytes,
                       ValueList, ValueDict, std::string_view, BytesView>
      v_;
};

}  // namespace lfm::serde
