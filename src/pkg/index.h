// The package index: the stand-in for PyPI / the Conda channel.
//
// Each `PackageMeta` records what dependency planning needs — the dependency
// edges, the installed size and file count (both drive environment-creation
// and import-cost models), and whether the package carries native shared
// libraries (these dominate import time on shared filesystems, §V.A).
//
// `standard_index()` lazily builds — once per process — a shared synthetic
// corpus whose shape is calibrated to the packages of Table II: python,
// numpy, five popular scientific PyPI packages, TensorFlow/MXNet-class ML
// stacks, and the three applications. `make_standard_index()` builds a
// private mutable copy.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pkg/version.h"

namespace lfm::pkg {

struct PackageMeta {
  std::string name;
  Version version;
  std::vector<Requirement> depends;
  int64_t size_bytes = 0;   // installed footprint
  int file_count = 0;       // number of files installed (drives metadata load)
  bool has_native_libs = false;

  std::string spec_str() const { return name + "==" + version.str(); }
};

class PackageIndex {
 public:
  PackageIndex();
  // Copies take a fresh generation: a copy has its own storage, so cached
  // resolutions holding pointers into the original must never match it.
  PackageIndex(const PackageIndex& other);
  PackageIndex& operator=(const PackageIndex& other);
  // Moves transfer storage (node pointers stay valid) but still refresh both
  // generations so neither the target nor the emptied source can hit cache
  // entries recorded against the source's old stamp.
  PackageIndex(PackageIndex&& other) noexcept;
  PackageIndex& operator=(PackageIndex&& other) noexcept;

  // Register a package version. Throws if the same (name, version) is added
  // twice with different contents.
  void add(PackageMeta meta);

  bool contains(const std::string& name) const;
  // All versions of a package, newest first. Empty if unknown.
  std::vector<const PackageMeta*> versions(const std::string& name) const;
  // Newest version matching the spec, or nullptr.
  const PackageMeta* best(const std::string& name, const VersionSpec& spec) const;
  std::vector<std::string> package_names() const;

  // Globally unique, monotonically increasing mutation stamp: refreshed at
  // construction, on copy, and on every add(). The content-addressed caches
  // (solver resolutions, dependency plans) key on it, so mutating or
  // rebuilding an index can never serve stale entries — and entries recorded
  // against a dead generation are unreachable forever.
  uint64_t generation() const { return generation_; }

 private:
  // name -> versions sorted descending
  std::map<std::string, std::vector<PackageMeta>> packages_;
  uint64_t generation_;
};

// The shared immutable synthetic corpus calibrated to the paper's Table II
// package set. Built lazily exactly once; every call site shares one
// instance (and therefore one solver/plan cache key space).
const PackageIndex& standard_index();

// Escape hatch: build a fresh, privately owned copy of the standard corpus
// for tests that mutate it.
PackageIndex make_standard_index();

}  // namespace lfm::pkg
