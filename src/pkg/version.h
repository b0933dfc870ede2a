// Package versions and version constraints (a practical subset of PEP 440).
//
// Supported version syntax:  N(.N)* with an optional pre-release suffix
// ("1.19", "2.4.1", "1.0rc1", "3.8.5"). Supported constraint operators:
// ==, !=, >=, <=, >, <, ~= (compatible release). A `VersionSpec` is the
// conjunction of comma-separated constraints, e.g. ">=1.19,<2.0".
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.h"

namespace lfm::pkg {

class Version {
 public:
  Version() = default;
  // Parse; throws lfm::Error on malformed input.
  static Version parse(const std::string& text);

  const std::vector<int>& release() const { return release_; }
  // Pre-release ordinal: (kind, number) where kind a<b<rc<final.
  bool is_prerelease() const { return pre_kind_ != PreKind::kFinal; }

  std::string str() const;

  // Total order with PEP 440 semantics for the supported subset:
  // numeric components compare elementwise with implicit zero padding;
  // pre-releases sort before their final release.
  std::strong_ordering operator<=>(const Version& other) const;
  bool operator==(const Version& other) const {
    return (*this <=> other) == std::strong_ordering::equal;
  }

  // True when this version is a "compatible release" of base (PEP 440 ~=):
  // this >= base and this matches base with the last release component
  // allowed to vary.
  bool compatible_with(const Version& base) const;

 private:
  enum class PreKind : uint8_t { kAlpha = 0, kBeta = 1, kRc = 2, kFinal = 3 };
  std::vector<int> release_;
  PreKind pre_kind_ = PreKind::kFinal;
  int pre_num_ = 0;
};

enum class ConstraintOp : uint8_t { kEq, kNe, kGe, kLe, kGt, kLt, kCompatible };

struct Constraint {
  ConstraintOp op;
  Version version;
  bool satisfied_by(const Version& candidate) const;
  std::string str() const;
};

class VersionSpec {
 public:
  VersionSpec() = default;  // empty spec: matches everything
  static VersionSpec parse(const std::string& text);
  static VersionSpec any() { return VersionSpec(); }
  static VersionSpec exactly(const Version& v);

  bool matches(const Version& candidate) const;
  bool empty() const { return constraints_.empty(); }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  // The conjunction of two specs.
  VersionSpec intersect(const VersionSpec& other) const;

  std::string str() const;

 private:
  std::vector<Constraint> constraints_;
};

// A named requirement, e.g. "numpy>=1.19,<2.0".
struct Requirement {
  std::string name;
  VersionSpec spec;

  static Requirement parse(const std::string& text);
  std::string str() const;
};

}  // namespace lfm::pkg
