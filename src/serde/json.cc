#include "serde/json.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.h"
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

namespace {

// Recursive-descent JSON parser over the full document text.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("from_json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case '"': return Value(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Value parse_number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) fail("bad number");
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long n = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') return Value(static_cast<int64_t>(n));
      // Out of int64 range: fall through to real.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') fail("bad number");
    return Value(d);
  }

  static void append_utf8(uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    uint32_t n = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      n <<= 4;
      if (c >= '0' && c <= '9') {
        n |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        n |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        n |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return n;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const uint32_t lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_array() {
    expect('[');
    ValueList out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or ']' in array");
    }
  }

  Value parse_object() {
    expect('{');
    ValueDict out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Value from_json(const std::string& text) { return JsonParser(text).parse_document(); }

}  // namespace lfm::serde
