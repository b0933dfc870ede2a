#include "pkg/index.h"

#include <algorithm>
#include <atomic>

#include "util/units.h"

namespace lfm::pkg {

namespace {

// Never reused, so a generation uniquely identifies one index object in one
// mutation state for the lifetime of the process.
uint64_t next_generation() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace

PackageIndex::PackageIndex() : generation_(next_generation()) {}

PackageIndex::PackageIndex(const PackageIndex& other)
    : packages_(other.packages_), generation_(next_generation()) {}

PackageIndex& PackageIndex::operator=(const PackageIndex& other) {
  if (this != &other) {
    packages_ = other.packages_;
    generation_ = next_generation();
  }
  return *this;
}

PackageIndex::PackageIndex(PackageIndex&& other) noexcept
    : packages_(std::move(other.packages_)), generation_(next_generation()) {
  other.generation_ = next_generation();
}

PackageIndex& PackageIndex::operator=(PackageIndex&& other) noexcept {
  if (this != &other) {
    packages_ = std::move(other.packages_);
    generation_ = next_generation();
    other.generation_ = next_generation();
  }
  return *this;
}

void PackageIndex::add(PackageMeta meta) {
  auto& versions = packages_[meta.name];
  for (const auto& existing : versions) {
    if (existing.version == meta.version) {
      throw Error("PackageIndex: duplicate " + meta.spec_str());
    }
  }
  versions.push_back(std::move(meta));
  std::sort(versions.begin(), versions.end(),
            [](const PackageMeta& a, const PackageMeta& b) { return a.version > b.version; });
  generation_ = next_generation();
}

bool PackageIndex::contains(const std::string& name) const {
  return packages_.count(name) > 0;
}

std::vector<const PackageMeta*> PackageIndex::versions(const std::string& name) const {
  std::vector<const PackageMeta*> out;
  const auto it = packages_.find(name);
  if (it == packages_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& meta : it->second) out.push_back(&meta);
  return out;
}

const PackageMeta* PackageIndex::best(const std::string& name, const VersionSpec& spec) const {
  const auto it = packages_.find(name);
  if (it == packages_.end()) return nullptr;
  for (const auto& meta : it->second) {
    // Skip pre-releases unless explicitly pinned, mirroring pip's default.
    if (meta.version.is_prerelease() && spec.empty()) continue;
    if (spec.matches(meta.version)) return &meta;
  }
  return nullptr;
}

std::vector<std::string> PackageIndex::package_names() const {
  std::vector<std::string> out;
  out.reserve(packages_.size());
  for (const auto& [name, _] : packages_) out.push_back(name);
  return out;
}

namespace {

PackageMeta pkg(const std::string& name, const std::string& version,
                std::vector<std::string> deps, int64_t size, int files,
                bool native = false) {
  PackageMeta meta;
  meta.name = name;
  meta.version = Version::parse(version);
  for (const auto& d : deps) meta.depends.push_back(Requirement::parse(d));
  meta.size_bytes = size;
  meta.file_count = files;
  meta.has_native_libs = native;
  return meta;
}

}  // namespace

const PackageIndex& standard_index() {
  static const PackageIndex* instance = new PackageIndex(make_standard_index());
  return *instance;
}

PackageIndex make_standard_index() {
  PackageIndex index;

  // --- interpreter and its non-Python Conda dependencies -------------------
  index.add(pkg("openssl", "1.1.1", {}, 4_MB, 40, true));
  index.add(pkg("zlib", "1.2.11", {}, 300 * kKB, 12, true));
  index.add(pkg("readline", "8.0", {"ncurses>=6.0"}, 1_MB, 15, true));
  index.add(pkg("ncurses", "6.2", {}, 2_MB, 30, true));
  index.add(pkg("sqlite", "3.33.0", {"zlib>=1.2"}, 2_MB, 10, true));
  index.add(pkg("libffi", "3.3", {}, 200 * kKB, 8, true));
  index.add(pkg("xz", "5.2.5", {}, 700 * kKB, 14, true));
  index.add(pkg("tk", "8.6.10", {"zlib>=1.2"}, 10_MB, 200, true));
  index.add(pkg("python", "3.8.5",
                {"openssl>=1.1", "zlib>=1.2", "readline>=8.0", "sqlite>=3.30",
                 "libffi>=3.2", "xz>=5.0", "tk>=8.6"},
                95_MB, 4200, true));
  index.add(pkg("python", "3.7.9",
                {"openssl>=1.1", "zlib>=1.2", "readline>=8.0", "sqlite>=3.30",
                 "libffi>=3.2", "xz>=5.0", "tk>=8.6"},
                92_MB, 4100, true));

  // --- foundational scientific stack ---------------------------------------
  index.add(pkg("libblas", "3.8.0", {}, 12_MB, 20, true));
  index.add(pkg("liblapack", "3.8.0", {"libblas==3.8.0"}, 10_MB, 15, true));
  index.add(pkg("numpy", "1.19.2", {"python>=3.7", "libblas>=3.8", "liblapack>=3.8"},
                68_MB, 860, true));
  index.add(pkg("numpy", "1.18.5", {"python>=3.6", "libblas>=3.8", "liblapack>=3.8"},
                65_MB, 840, true));
  index.add(pkg("scipy", "1.5.2", {"python>=3.7", "numpy>=1.16"}, 110_MB, 1600, true));
  index.add(pkg("pandas", "1.1.3", {"python>=3.7", "numpy>=1.16", "python-dateutil>=2.7", "pytz>=2017.2"},
                88_MB, 1300, true));
  index.add(pkg("python-dateutil", "2.8.1", {"six>=1.5"}, 1_MB, 30, false));
  index.add(pkg("pytz", "2020.1", {}, 2_MB, 600, false));
  index.add(pkg("six", "1.15.0", {}, 100 * kKB, 4, false));
  index.add(pkg("joblib", "0.17.0", {"python>=3.6"}, 2_MB, 120, false));
  index.add(pkg("threadpoolctl", "2.1.0", {}, 100 * kKB, 4, false));
  index.add(pkg("scikit-learn", "0.23.2",
                {"python>=3.6", "numpy>=1.13", "scipy>=0.19", "joblib>=0.11",
                 "threadpoolctl>=2.0"},
                72_MB, 1100, true));
  index.add(pkg("matplotlib", "3.3.2",
                {"python>=3.6", "numpy>=1.15", "pillow>=6.2", "cycler>=0.10",
                 "kiwisolver>=1.0", "pyparsing>=2.0", "python-dateutil>=2.1"},
                60_MB, 980, true));
  index.add(pkg("pillow", "8.0.0", {"python>=3.6", "zlib>=1.2"}, 8_MB, 180, true));
  index.add(pkg("cycler", "0.10.0", {"six"}, 50 * kKB, 3, false));
  index.add(pkg("kiwisolver", "1.2.0", {"python>=3.6"}, 200 * kKB, 5, true));
  index.add(pkg("pyparsing", "2.4.7", {}, 300 * kKB, 6, false));

  // --- ML stacks (the heavyweight rows of Table II) -------------------------
  index.add(pkg("protobuf", "3.13.0", {"six>=1.9"}, 4_MB, 120, true));
  index.add(pkg("grpcio", "1.32.0", {"six>=1.5"}, 8_MB, 90, true));
  index.add(pkg("h5py", "2.10.0", {"numpy>=1.7", "six"}, 6_MB, 110, true));
  index.add(pkg("absl-py", "0.10.0", {"six"}, 1_MB, 90, false));
  index.add(pkg("astunparse", "1.6.3", {"six"}, 60 * kKB, 4, false));
  index.add(pkg("gast", "0.3.3", {}, 50 * kKB, 4, false));
  index.add(pkg("google-pasta", "0.2.0", {"six"}, 200 * kKB, 16, false));
  index.add(pkg("opt-einsum", "3.3.0", {"numpy>=1.7"}, 400 * kKB, 20, false));
  index.add(pkg("termcolor", "1.1.0", {}, 20 * kKB, 2, false));
  index.add(pkg("wrapt", "1.12.1", {}, 100 * kKB, 6, false));
  index.add(pkg("keras-preprocessing", "1.1.2", {"numpy>=1.9", "six>=1.9"}, 500 * kKB, 30, false));
  index.add(pkg("tensorboard", "2.3.0", {"numpy>=1.12", "protobuf>=3.6", "six>=1.10", "grpcio>=1.24"},
                10_MB, 260, false));
  index.add(pkg("tensorflow-estimator", "2.3.0", {}, 2_MB, 140, false));
  index.add(pkg("tensorflow", "2.3.1",
                {"python>=3.5", "numpy>=1.16", "protobuf>=3.9", "grpcio>=1.8",
                 "h5py>=2.10", "absl-py>=0.7", "astunparse>=1.6", "gast==0.3.3",
                 "google-pasta>=0.1", "opt-einsum>=2.3", "termcolor>=1.1",
                 "wrapt>=1.11", "keras-preprocessing>=1.1", "tensorboard>=2.3",
                 "tensorflow-estimator>=2.3", "six>=1.12"},
                1200_MB, 4800, true));
  index.add(pkg("graphviz", "0.14", {}, 300 * kKB, 10, false));
  index.add(pkg("requests", "2.24.0", {"urllib3>=1.21", "idna>=2.5", "chardet>=3.0", "certifi>=2017.4"},
                500 * kKB, 30, false));
  index.add(pkg("urllib3", "1.25.10", {}, 1_MB, 60, false));
  index.add(pkg("idna", "2.10", {}, 400 * kKB, 10, false));
  index.add(pkg("chardet", "3.0.4", {}, 1_MB, 40, false));
  index.add(pkg("certifi", "2020.6.20", {}, 300 * kKB, 4, false));
  index.add(pkg("mxnet", "1.7.0",
                {"python>=3.5", "numpy>=1.16", "requests>=2.20", "graphviz>=0.8"},
                860_MB, 1200, true));
  index.add(pkg("keras", "2.4.3", {"tensorflow>=2.2", "numpy>=1.9", "scipy>=0.14", "h5py>=2.10"},
                3_MB, 200, false));

  // --- HEP stack (Coffea application) ---------------------------------------
  index.add(pkg("uproot", "3.12.0", {"numpy>=1.13", "awkward>=0.12"}, 4_MB, 90, false));
  index.add(pkg("awkward", "0.13.0", {"numpy>=1.13"}, 3_MB, 60, false));
  index.add(pkg("numba", "0.51.2", {"numpy>=1.15", "llvmlite>=0.34"}, 60_MB, 700, true));
  index.add(pkg("llvmlite", "0.34.0", {"python>=3.6"}, 70_MB, 60, true));
  index.add(pkg("mplhep", "0.1.35", {"matplotlib>=3.1", "numpy>=1.16"}, 2_MB, 40, false));
  index.add(pkg("coffea", "0.6.47",
                {"uproot>=3.12", "awkward>=0.12", "numba>=0.50", "numpy>=1.16",
                 "scipy>=1.1", "matplotlib>=3.0", "mplhep>=0.1"},
                8_MB, 180, false));

  // --- Drug screening stack --------------------------------------------------
  index.add(pkg("rdkit", "2020.03.3", {"python>=3.6", "numpy>=1.16", "pillow>=6.0"},
                120_MB, 900, true));
  index.add(pkg("mordred", "1.2.0", {"rdkit>=2020.03", "numpy>=1.16", "six>=1.10"},
                6_MB, 300, false));
  index.add(pkg("candle-drugscreen", "1.0.0",
                {"tensorflow>=2.2", "rdkit>=2020.03", "mordred>=1.2", "pandas>=1.0",
                 "scikit-learn>=0.23", "keras>=2.4"},
                15_MB, 220, false));

  // --- Genomics stack ---------------------------------------------------------
  index.add(pkg("pysam", "0.16.0", {"python>=3.6", "zlib>=1.2"}, 18_MB, 160, true));
  index.add(pkg("bwa", "0.7.17", {"zlib>=1.2"}, 2_MB, 6, true));
  index.add(pkg("samtools", "1.10", {"zlib>=1.2", "ncurses>=6.0"}, 4_MB, 12, true));
  index.add(pkg("gatk4", "4.1.8", {"openjdk>=8"}, 300_MB, 400, true));
  index.add(pkg("openjdk", "8.0.265", {}, 180_MB, 600, true));
  index.add(pkg("ensembl-vep", "101.0", {"perl>=5.26", "samtools>=1.9"}, 40_MB, 800, false));
  index.add(pkg("perl", "5.26.2", {}, 50_MB, 2000, true));
  index.add(pkg("gdc-dnaseq-pipeline", "2.1.0",
                {"python>=3.6", "pysam>=0.15", "bwa>=0.7", "samtools>=1.9",
                 "gatk4>=4.1", "ensembl-vep>=100", "pandas>=1.0"},
                10_MB, 140, false));

  // --- Parsl / Work Queue layer (the paper's own software) --------------------
  index.add(pkg("dill", "0.3.2", {}, 400 * kKB, 30, false));
  index.add(pkg("globus-sdk", "1.9.1", {"requests>=2.0", "six>=1.10"}, 2_MB, 80, false));
  index.add(pkg("typeguard", "2.9.1", {}, 100 * kKB, 6, false));
  index.add(pkg("parsl", "1.0.0",
                {"python>=3.6", "dill>=0.3", "typeguard>=2.9", "globus-sdk>=1.8",
                 "requests>=2.0", "six>=1.10"},
                5_MB, 400, false));
  index.add(pkg("work-queue", "7.1.7", {"python>=3.5"}, 3_MB, 30, true));
  index.add(pkg("funcx", "0.0.5", {"parsl>=1.0", "requests>=2.0", "dill>=0.3"},
                1_MB, 60, false));

  return index;
}

}  // namespace lfm::pkg
