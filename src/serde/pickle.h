// Binary serialization of `Value` — the stand-in for Python's pickle.
//
// Wire format (little-endian):
//   frame  := magic(4) version(u8) payload
//   payload:= tag(u8) body
//   int    -> zigzag varint        real -> 8 raw bytes (IEEE double)
//   str/bytes -> varint length + raw bytes
//   list   -> varint count + payloads
//   dict   -> varint count + (str payload, value payload) pairs
//
// The codec round-trips every Value exactly and rejects truncated or
// corrupted input with a descriptive Error instead of reading out of bounds.
//
// Two allocation-lean entry points supplement dumps()/loads():
//   * dumps_into() encodes into a caller-owned buffer, so a loop reusing
//     one Bytes pays zero allocations after warm-up.
//   * loads_view() decodes with string/bytes leaves borrowed from the input
//     buffer (see value.h for borrowed-leaf semantics) — the worker's
//     read-decode-execute path never copies payload bytes it doesn't touch.
//
// The Writer/Reader pair below is the one varint codec: the wq wire
// protocol (wq/protocol.h), the chunk manifest (pkg/chunk.h) and the
// chaos journal (chaos/journal.h) write and read through it too.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serde/value.h"

namespace lfm::serde {

// --- primitive wire layer ---------------------------------------------------

// Size of a LEB128 varint, for the exact-size reservations encoders make.
size_t varint_size(uint64_t v);

// Zigzag mapping for signed varints.
inline uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Appends primitives to a caller-owned, reusable buffer: a Bytes (pickles,
// chunk manifests, journal records) or the std::string a wire frame is
// returned in, so a frame is written once, straight into its final buffer.
template <typename Out>
class Writer {
 public:
  explicit Writer(Out& out) : out_(out) {}

  void u8(uint8_t b) { out_.push_back(static_cast<typename Out::value_type>(b)); }
  // LEB128.
  void varint(uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<uint8_t>(v));
  }
  void svarint(int64_t v) { varint(zigzag(v)); }
  // 8 raw bytes (IEEE double).
  void real(double d) {
    uint8_t raw8[8];
    std::memcpy(raw8, &d, 8);
    raw(raw8, 8);
  }
  void raw(const void* data, size_t n) {
    const auto* p = static_cast<const typename Out::value_type*>(data);
    if constexpr (std::is_same_v<Out, std::string>) {
      out_.append(p, n);  // a string's range insert runs its slower replace()
    } else {
      out_.insert(out_.end(), p, p + n);
    }
  }
  // varint length prefix + raw bytes.
  void str(std::string_view s) {
    varint(s.size());
    raw(s.data(), s.size());
  }
  void bytes(BytesView b) {
    varint(b.size);
    raw(b.data, b.size);
  }

 private:
  Out& out_;
};

// Bounds-checked cursor over a byte buffer; every read throws lfm::Error on
// truncation instead of running past the end.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const Bytes& data) : Reader(data.data(), data.size()) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  uint64_t varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift > 63) throw Error("pickle: varint overflow");
      const uint8_t b = u8();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  int64_t svarint() { return unzigzag(varint()); }

  double real();

  const uint8_t* raw(size_t n) {
    need(n);
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::string_view str() {
    const size_t n = varint();
    return std::string_view(reinterpret_cast<const char*>(raw(n)), n);
  }

  BytesView bytes() {
    const size_t n = varint();
    return BytesView(raw(n), n);
  }

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

 private:
  void need(size_t n) const {
    if (size_ - pos_ < n) throw Error("pickle: truncated input");
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- pickle frames ----------------------------------------------------------

// Serialize a value into a framed byte buffer.
Bytes dumps(const Value& value);

// Serialize into `out` (cleared first, capacity kept — reuse the buffer
// across calls to amortize allocation). Returns the encoded size.
size_t dumps_into(const Value& value, Bytes& out);

// Parse a framed byte buffer back into a value. Throws lfm::Error on
// malformed input (bad magic, unknown tag, truncation, trailing garbage).
Value loads(const Bytes& data);
Value loads(const uint8_t* data, size_t size);

// Zero-copy parse: string/bytes leaves are views into `data`, which must
// outlive the returned value (or call to_owned() / touch every leaf).
Value loads_view(const Bytes& data);
Value loads_view(const uint8_t* data, size_t size);

// Size in bytes that dumps() would produce, without allocating the buffer.
size_t encoded_size(const Value& value);

}  // namespace lfm::serde
