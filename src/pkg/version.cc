#include "pkg/version.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace lfm::pkg {
namespace {

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.';
}

}  // namespace

Version Version::parse(const std::string& text) {
  const std::string t = trim(text);
  if (t.empty()) throw Error("Version: empty string");
  Version v;
  size_t i = 0;
  while (i < t.size()) {
    if (!std::isdigit(static_cast<unsigned char>(t[i]))) break;
    int component = 0;
    while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) {
      component = component * 10 + (t[i] - '0');
      ++i;
    }
    v.release_.push_back(component);
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (i >= t.size() || !std::isdigit(static_cast<unsigned char>(t[i]))) {
        throw Error("Version: trailing dot in '" + text + "'");
      }
      continue;
    }
    break;
  }
  if (v.release_.empty()) throw Error("Version: no numeric components in '" + text + "'");
  if (i < t.size()) {
    // Pre-release suffix: a / b / rc / alpha / beta, optional number.
    std::string tag;
    while (i < t.size() && std::isalpha(static_cast<unsigned char>(t[i]))) {
      tag += static_cast<char>(std::tolower(static_cast<unsigned char>(t[i])));
      ++i;
    }
    if (tag == "a" || tag == "alpha") {
      v.pre_kind_ = PreKind::kAlpha;
    } else if (tag == "b" || tag == "beta") {
      v.pre_kind_ = PreKind::kBeta;
    } else if (tag == "rc" || tag == "c") {
      v.pre_kind_ = PreKind::kRc;
    } else {
      throw Error("Version: unrecognized suffix '" + tag + "' in '" + text + "'");
    }
    while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) {
      v.pre_num_ = v.pre_num_ * 10 + (t[i] - '0');
      ++i;
    }
    if (i < t.size()) throw Error("Version: trailing characters in '" + text + "'");
  }
  return v;
}

std::string Version::str() const {
  std::string out;
  for (size_t i = 0; i < release_.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(release_[i]);
  }
  switch (pre_kind_) {
    case PreKind::kAlpha: out += "a" + std::to_string(pre_num_); break;
    case PreKind::kBeta: out += "b" + std::to_string(pre_num_); break;
    case PreKind::kRc: out += "rc" + std::to_string(pre_num_); break;
    case PreKind::kFinal: break;
  }
  return out;
}

std::strong_ordering Version::operator<=>(const Version& other) const {
  const size_t n = std::max(release_.size(), other.release_.size());
  for (size_t i = 0; i < n; ++i) {
    const int a = i < release_.size() ? release_[i] : 0;
    const int b = i < other.release_.size() ? other.release_[i] : 0;
    if (a != b) return a <=> b;
  }
  if (pre_kind_ != other.pre_kind_) {
    return static_cast<int>(pre_kind_) <=> static_cast<int>(other.pre_kind_);
  }
  return pre_num_ <=> other.pre_num_;
}

bool Version::compatible_with(const Version& base) const {
  if (*this < base) return false;
  if (base.release_.size() < 2) {
    // "~= N" is invalid per PEP 440; treat as >= N.
    return true;
  }
  // All but the last release component must match.
  for (size_t i = 0; i + 1 < base.release_.size(); ++i) {
    const int mine = i < release_.size() ? release_[i] : 0;
    if (mine != base.release_[i]) return false;
  }
  return true;
}

bool Constraint::satisfied_by(const Version& candidate) const {
  switch (op) {
    case ConstraintOp::kEq: return candidate == version;
    case ConstraintOp::kNe: return !(candidate == version);
    case ConstraintOp::kGe: return candidate >= version;
    case ConstraintOp::kLe: return candidate <= version;
    case ConstraintOp::kGt: return candidate > version;
    case ConstraintOp::kLt: return candidate < version;
    case ConstraintOp::kCompatible: return candidate.compatible_with(version);
  }
  return false;
}

std::string Constraint::str() const {
  const char* sym = "";
  switch (op) {
    case ConstraintOp::kEq: sym = "=="; break;
    case ConstraintOp::kNe: sym = "!="; break;
    case ConstraintOp::kGe: sym = ">="; break;
    case ConstraintOp::kLe: sym = "<="; break;
    case ConstraintOp::kGt: sym = ">"; break;
    case ConstraintOp::kLt: sym = "<"; break;
    case ConstraintOp::kCompatible: sym = "~="; break;
  }
  return std::string(sym) + version.str();
}

VersionSpec VersionSpec::parse(const std::string& text) {
  VersionSpec spec;
  for (const auto& raw : split_nonempty(text, ',')) {
    const std::string part = trim(raw);
    if (part.empty()) continue;
    Constraint c;
    size_t skip = 0;
    if (starts_with(part, "==")) {
      c.op = ConstraintOp::kEq;
      skip = 2;
    } else if (starts_with(part, "!=")) {
      c.op = ConstraintOp::kNe;
      skip = 2;
    } else if (starts_with(part, ">=")) {
      c.op = ConstraintOp::kGe;
      skip = 2;
    } else if (starts_with(part, "<=")) {
      c.op = ConstraintOp::kLe;
      skip = 2;
    } else if (starts_with(part, "~=")) {
      c.op = ConstraintOp::kCompatible;
      skip = 2;
    } else if (starts_with(part, ">")) {
      c.op = ConstraintOp::kGt;
      skip = 1;
    } else if (starts_with(part, "<")) {
      c.op = ConstraintOp::kLt;
      skip = 1;
    } else if (std::isdigit(static_cast<unsigned char>(part[0]))) {
      c.op = ConstraintOp::kEq;  // bare version means exact pin
      skip = 0;
    } else {
      throw Error("VersionSpec: bad constraint '" + part + "'");
    }
    c.version = Version::parse(part.substr(skip));
    spec.constraints_.push_back(std::move(c));
  }
  return spec;
}

VersionSpec VersionSpec::exactly(const Version& v) {
  VersionSpec spec;
  spec.constraints_.push_back(Constraint{ConstraintOp::kEq, v});
  return spec;
}

bool VersionSpec::matches(const Version& candidate) const {
  for (const auto& c : constraints_) {
    if (!c.satisfied_by(candidate)) return false;
  }
  return true;
}

VersionSpec VersionSpec::intersect(const VersionSpec& other) const {
  VersionSpec out = *this;
  out.constraints_.insert(out.constraints_.end(), other.constraints_.begin(),
                          other.constraints_.end());
  return out;
}

std::string VersionSpec::str() const {
  std::vector<std::string> parts;
  parts.reserve(constraints_.size());
  for (const auto& c : constraints_) parts.push_back(c.str());
  return join(parts, ",");
}

Requirement Requirement::parse(const std::string& text) {
  const std::string t = trim(text);
  size_t i = 0;
  // Operator characters are not name characters, so the name ends naturally.
  while (i < t.size() && is_name_char(t[i])) ++i;
  Requirement req;
  req.name = trim(t.substr(0, i));
  if (req.name.empty()) throw Error("Requirement: missing package name in '" + text + "'");
  const std::string rest = trim(t.substr(i));
  if (!rest.empty()) req.spec = VersionSpec::parse(rest);
  return req;
}

std::string Requirement::str() const {
  return spec.empty() ? name : name + spec.str();
}

}  // namespace lfm::pkg
