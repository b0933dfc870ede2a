#include "serde/json.h"

#include <cmath>

#include "util/strings.h"

namespace lfm::serde {
namespace {

void escape_into(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void render(const Value& v, std::string& out) {
  switch (v.kind()) {
    case ValueKind::kNone:
      out += "null";
      break;
    case ValueKind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case ValueKind::kInt:
      out += std::to_string(v.as_int());
      break;
    case ValueKind::kReal: {
      const double d = v.as_real();
      if (std::isnan(d) || std::isinf(d)) {
        out += "null";
      } else {
        out += strformat("%.17g", d);
      }
      break;
    }
    case ValueKind::kStr:
      escape_into(v.as_str(), out);
      break;
    case ValueKind::kBytes:
      escape_into(base64_encode(v.as_bytes()), out);
      break;
    case ValueKind::kList: {
      out += '[';
      const auto& l = v.as_list();
      for (size_t i = 0; i < l.size(); ++i) {
        if (i != 0) out += ',';
        render(l[i], out);
      }
      out += ']';
      break;
    }
    case ValueKind::kDict: {
      out += '{';
      bool first = true;
      for (const auto& [k, val] : v.as_dict()) {
        if (!first) out += ',';
        first = false;
        escape_into(k, out);
        out += ':';
        render(val, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string base64_encode(const Bytes& data) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  size_t i = 0;
  while (i + 3 <= data.size()) {
    const uint32_t n = (static_cast<uint32_t>(data[i]) << 16) |
                       (static_cast<uint32_t>(data[i + 1]) << 8) | data[i + 2];
    out += kAlphabet[(n >> 18) & 63];
    out += kAlphabet[(n >> 12) & 63];
    out += kAlphabet[(n >> 6) & 63];
    out += kAlphabet[n & 63];
    i += 3;
  }
  const size_t rem = data.size() - i;
  if (rem == 1) {
    const uint32_t n = static_cast<uint32_t>(data[i]) << 16;
    out += kAlphabet[(n >> 18) & 63];
    out += kAlphabet[(n >> 12) & 63];
    out += "==";
  } else if (rem == 2) {
    const uint32_t n = (static_cast<uint32_t>(data[i]) << 16) |
                       (static_cast<uint32_t>(data[i + 1]) << 8);
    out += kAlphabet[(n >> 18) & 63];
    out += kAlphabet[(n >> 12) & 63];
    out += kAlphabet[(n >> 6) & 63];
    out += '=';
  }
  return out;
}

std::string to_json(const Value& value) {
  std::string out;
  render(value, out);
  return out;
}

}  // namespace lfm::serde
