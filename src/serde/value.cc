#include "serde/value.h"

#include <cstdio>
#include <cstring>

namespace lfm::serde {
namespace {

void repr_string(std::string_view s, std::string& out) {
  out += '\'';
  for (char c : s) {
    if (c == '\'' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '\'';
}

}  // namespace

const Value& Value::at(const std::string& key) const {
  const auto& d = as_dict();
  const auto it = d.find(key);
  if (it == d.end()) throw Error("Value: missing dict key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  if (!is_dict()) return false;
  return as_dict().count(key) > 0;
}

bool Value::operator==(const Value& other) const {
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case ValueKind::kNone:
      return true;
    case ValueKind::kBool:
      return as_bool() == other.as_bool();
    case ValueKind::kInt:
      return as_int() == other.as_int();
    case ValueKind::kReal:
      return std::get<double>(v_) == std::get<double>(other.v_);
    case ValueKind::kStr:
      // View-aware content compare; never materializes.
      return str_view() == other.str_view();
    case ValueKind::kBytes: {
      const BytesView a = bytes_view();
      const BytesView b = other.bytes_view();
      return a.size == b.size &&
             (a.size == 0 || std::memcmp(a.data, b.data, a.size) == 0);
    }
    case ValueKind::kList:
      return as_list() == other.as_list();
    case ValueKind::kDict:
      return as_dict() == other.as_dict();
  }
  return false;
}

Value Value::to_owned() const {
  switch (kind()) {
    case ValueKind::kStr:
      if (is_borrowed()) return Value(std::string(str_view()));
      return *this;
    case ValueKind::kBytes:
      if (is_borrowed()) {
        const BytesView b = bytes_view();
        return Value(Bytes(b.begin(), b.end()));
      }
      return *this;
    case ValueKind::kList: {
      ValueList out;
      out.reserve(as_list().size());
      for (const auto& item : as_list()) out.push_back(item.to_owned());
      return Value(std::move(out));
    }
    case ValueKind::kDict: {
      ValueDict out;
      for (const auto& [k, v] : as_dict()) out.emplace(k, v.to_owned());
      return Value(std::move(out));
    }
    default:
      return *this;
  }
}

std::string Value::repr() const {
  std::string out;
  switch (kind()) {
    case ValueKind::kNone:
      out = "None";
      break;
    case ValueKind::kBool:
      out = as_bool() ? "True" : "False";
      break;
    case ValueKind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(as_int()));
      out = buf;
      break;
    }
    case ValueKind::kReal: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%g", std::get<double>(v_));
      out = buf;
      break;
    }
    case ValueKind::kStr:
      repr_string(str_view(), out);
      break;
    case ValueKind::kBytes: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "b<%zu bytes>", bytes_view().size);
      out = buf;
      break;
    }
    case ValueKind::kList: {
      out = "[";
      const auto& l = as_list();
      for (size_t i = 0; i < l.size(); ++i) {
        if (i != 0) out += ", ";
        out += l[i].repr();
      }
      out += "]";
      break;
    }
    case ValueKind::kDict: {
      out = "{";
      bool first = true;
      for (const auto& [k, v] : as_dict()) {
        if (!first) out += ", ";
        first = false;
        repr_string(k, out);
        out += ": ";
        out += v.repr();
      }
      out += "}";
      break;
    }
  }
  return out;
}

void Value::wrong_kind(const char* expected) const {
  throw Error(std::string("Value: expected ") + expected + ", got " + repr());
}

}  // namespace lfm::serde
