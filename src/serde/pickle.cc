#include "serde/pickle.h"

#include <cstring>

namespace lfm::serde {
namespace {

constexpr uint8_t kMagic[4] = {'L', 'F', 'M', 'P'};
constexpr uint8_t kVersion = 1;

void encode(const Value& v, Writer<Bytes>& w) {
  w.u8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNone:
      break;
    case ValueKind::kBool:
      w.u8(v.as_bool() ? 1 : 0);
      break;
    case ValueKind::kInt:
      w.svarint(v.as_int());
      break;
    case ValueKind::kReal:
      w.real(v.as_real());
      break;
    case ValueKind::kStr:
      w.str(v.str_view());
      break;
    case ValueKind::kBytes:
      w.bytes(v.bytes_view());
      break;
    case ValueKind::kList: {
      const auto& l = v.as_list();
      w.varint(l.size());
      for (const auto& item : l) encode(item, w);
      break;
    }
    case ValueKind::kDict: {
      const auto& d = v.as_dict();
      w.varint(d.size());
      for (const auto& [k, val] : d) {
        w.str(k);
        encode(val, w);
      }
      break;
    }
  }
}

size_t body_size(const Value& v) {
  size_t n = 1;  // tag
  switch (v.kind()) {
    case ValueKind::kNone:
      break;
    case ValueKind::kBool:
      n += 1;
      break;
    case ValueKind::kInt:
      n += varint_size(zigzag(v.as_int()));
      break;
    case ValueKind::kReal:
      n += 8;
      break;
    case ValueKind::kStr:
      n += varint_size(v.str_view().size()) + v.str_view().size();
      break;
    case ValueKind::kBytes:
      n += varint_size(v.bytes_view().size) + v.bytes_view().size;
      break;
    case ValueKind::kList:
      n += varint_size(v.as_list().size());
      for (const auto& item : v.as_list()) n += body_size(item);
      break;
    case ValueKind::kDict:
      n += varint_size(v.as_dict().size());
      for (const auto& [k, val] : v.as_dict()) {
        n += varint_size(k.size()) + k.size() + body_size(val);
      }
      break;
  }
  return n;
}

Value decode(Reader& r, int depth, bool borrow) {
  if (depth > 256) throw Error("pickle: nesting too deep");
  const uint8_t tag = r.u8();
  switch (static_cast<ValueKind>(tag)) {
    case ValueKind::kNone:
      return Value();
    case ValueKind::kBool: {
      const uint8_t b = r.u8();
      if (b > 1) throw Error("pickle: bad bool byte");
      return Value(b == 1);
    }
    case ValueKind::kInt:
      return Value(unzigzag(r.varint()));
    case ValueKind::kReal:
      return Value(r.real());
    case ValueKind::kStr: {
      const std::string_view s = r.str();
      if (borrow) return Value(Value::Borrowed{}, s);
      return Value(std::string(s));
    }
    case ValueKind::kBytes: {
      const BytesView b = r.bytes();
      if (borrow) return Value(Value::Borrowed{}, b);
      return Value(Bytes(b.begin(), b.end()));
    }
    case ValueKind::kList: {
      const size_t n = r.varint();
      ValueList l;
      // Every element costs at least one byte on the wire, so the remaining
      // input bounds the count — reserve exactly for honest payloads while a
      // lying header on truncated input cannot force a huge allocation.
      l.reserve(std::min<size_t>(n, r.remaining()));
      for (size_t i = 0; i < n; ++i) l.push_back(decode(r, depth + 1, borrow));
      return Value(std::move(l));
    }
    case ValueKind::kDict: {
      const size_t n = r.varint();
      ValueDict d;
      for (size_t i = 0; i < n; ++i) {
        // Map keys are owned std::strings by type; only values borrow.
        std::string key(r.str());
        d.emplace(std::move(key), decode(r, depth + 1, borrow));
      }
      return Value(std::move(d));
    }
  }
  throw Error("pickle: unknown tag " + std::to_string(tag));
}

Value loads_frame(const uint8_t* data, size_t size, bool borrow) {
  if (size < 5 || std::memcmp(data, kMagic, 4) != 0) {
    throw Error("pickle: bad magic");
  }
  if (data[4] != kVersion) {
    throw Error("pickle: unsupported version " + std::to_string(data[4]));
  }
  Reader r(data + 5, size - 5);
  Value v = decode(r, 0, borrow);
  if (r.remaining() != 0) throw Error("pickle: trailing garbage");
  return v;
}

}  // namespace

size_t varint_size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

double Reader::real() {
  need(8);
  double d;
  std::memcpy(&d, data_ + pos_, 8);
  pos_ += 8;
  return d;
}

Bytes dumps(const Value& value) {
  Bytes out;
  dumps_into(value, out);
  return out;
}

size_t dumps_into(const Value& value, Bytes& out) {
  out.clear();
  out.reserve(encoded_size(value));
  Writer w(out);
  w.raw(kMagic, 4);
  w.u8(kVersion);
  encode(value, w);
  return out.size();
}

Value loads(const Bytes& data) { return loads_frame(data.data(), data.size(), false); }

Value loads(const uint8_t* data, size_t size) { return loads_frame(data, size, false); }

Value loads_view(const Bytes& data) {
  return loads_frame(data.data(), data.size(), true);
}

Value loads_view(const uint8_t* data, size_t size) {
  return loads_frame(data, size, true);
}

size_t encoded_size(const Value& value) { return 5 + body_size(value); }

}  // namespace lfm::serde
