// Content-addressed environment distribution at scale: N sibling
// environments (a shared scientific base plus one app-specific package each)
// distributed to M workers, and a pack-pipeline wall-time comparison.
//
// Two experiments (DESIGN.md §12, EXPERIMENTS.md "incremental distribution"):
//   1. pack: one 32-package environment packed cold, serial (1 thread) vs
//      the parallel pipeline at 8 threads, byte-identity verified across
//      thread counts {1, 2, 4, 8}.
//   2. dist: a wq::Master campaign where every worker runs one task per
//      environment; with delta distribution off each sibling ships the full
//      archive, with it on only the chunks the worker's chunk cache misses.
//
// Prints both tables and, with --json, writes BENCH_pack.json. With --check,
// exits nonzero unless outputs are byte-identical across thread counts and
// the warm delta ships >= 5x fewer bytes than full archives; the >= 2x
// parallel-pack speedup is asserted only on hosts with >= 4 hardware
// threads (on smaller machines the measured numbers are still recorded).
//
// Usage:
//   scale_pack
//   scale_pack --json BENCH_pack.json --check
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc/labeler.h"
#include "pkg/chunk.h"
#include "pkg/environment.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "pkg/solver.h"
#include "sim/envdist.h"
#include "sim/network.h"
#include "sim/site.h"
#include "util/strings.h"
#include "wq/master.h"

namespace {

using namespace lfm;

constexpr int kPackPackages = 32;      // packages in the pack-timing env
constexpr int kPackFilesPerPkg = 30000;
constexpr int kBasePackages = 24;      // shared base of every sibling env
constexpr int kEnvironments = 8;       // N sibling environments
constexpr int kWorkers = 16;           // M workers
constexpr int kParallelThreads = 8;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

pkg::PackageMeta make_pkg(const std::string& name, int files, int64_t bytes) {
  pkg::PackageMeta meta;
  meta.name = name;
  meta.version = pkg::Version::parse("1.0.0");
  meta.file_count = files;
  meta.size_bytes = bytes;
  return meta;
}

pkg::Environment make_env(const pkg::PackageIndex& index,
                          const std::vector<std::string>& names,
                          const std::string& env_name) {
  pkg::Solver solver(index);
  std::vector<pkg::Requirement> reqs;
  reqs.reserve(names.size());
  for (const std::string& n : names) reqs.push_back(pkg::Requirement::parse(n));
  auto result = solver.resolve(reqs);
  if (!result.ok()) {
    std::fprintf(stderr, "scale_pack: resolve failed: %s\n", result.error().c_str());
    std::exit(1);
  }
  return pkg::Environment(env_name, std::move(result).take());
}

// --- experiment 1: serial vs parallel pack ---------------------------------

struct PackResult {
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  int64_t archive_bytes = 0;
  size_t chunk_count = 0;
  bool byte_identical = true;
  double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

PackResult run_pack_experiment() {
  pkg::PackageIndex index;
  std::vector<std::string> names;
  for (int i = 0; i < kPackPackages; ++i) {
    const std::string name = strformat("stress-%02d", i);
    index.add(make_pkg(name, kPackFilesPerPkg, 600000000));
    names.push_back(name);
  }
  const pkg::Environment env = make_env(index, names, "pack-stress");

  PackResult out;
  uint64_t reference_digest = 0;
  pkg::ChunkManifest reference_manifest;
  // Every timing rep packs fully cold: the signature-dedup cache is
  // cleared, so the parallel path cannot borrow work.
  const auto pack_once = [&](int threads) {
    pkg::clear_pack_cache();
    const auto t0 = std::chrono::steady_clock::now();
    const pkg::PackedEnvironment packed = pkg::packed_environment(env, threads);
    const double dt = seconds_since(t0);
    out.archive_bytes = static_cast<int64_t>(packed.tar->size());
    out.chunk_count = packed.manifest->chunk_count();
    if (reference_digest == 0) {
      reference_digest = packed.manifest->stream_digest();
      reference_manifest = *packed.manifest;
    } else if (packed.manifest->stream_digest() != reference_digest ||
               !(*packed.manifest == reference_manifest)) {
      out.byte_identical = false;
    }
    return dt;
  };

  constexpr int kReps = 3;
  double serial = 1e300;
  double parallel = 1e300;
  for (int r = 0; r < kReps; ++r) serial = std::min(serial, pack_once(1));
  for (int r = 0; r < kReps; ++r) {
    parallel = std::min(parallel, pack_once(kParallelThreads));
  }
  // Determinism sweep over the remaining thread counts.
  for (const int threads : {2, 4}) pack_once(threads);
  out.serial_seconds = serial;
  out.parallel_seconds = parallel;
  return out;
}

// --- experiment 2: full-archive vs delta distribution ----------------------

struct DistResult {
  int64_t cold_bytes = 0;        // first environment, every worker cold
  int64_t warm_full_bytes = 0;   // siblings, full-archive transfer
  int64_t warm_delta_bytes = 0;  // siblings, chunk-delta transfer
  int64_t chunk_evictions = 0;
  double model_cold_seconds = 0.0;  // EnvDistModel theta, 64 nodes
  double model_warm_seconds = 0.0;
  double reduction() const {
    return warm_delta_bytes > 0
               ? static_cast<double>(warm_full_bytes) /
                     static_cast<double>(warm_delta_bytes)
               : 0.0;
  }
};

int64_t run_campaign(const std::vector<pkg::PackedEnvironment>& packs,
                     bool delta, int64_t* evictions) {
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::LabelerConfig cfg;
  cfg.whole_node = alloc::Resources{1.0, 8e9, 16e9};
  cfg.guess = alloc::Resources{1.0, 1.5e9, 2e9};
  alloc::Labeler labeler(cfg);
  wq::MasterConfig mc;
  mc.delta_distribution = delta;
  wq::Master master(sim, net, labeler, mc);
  for (int w = 0; w < kWorkers; ++w) {
    master.add_worker({alloc::Resources{1.0, 8e9, 16e9}, 0.0});
  }
  // One task per (environment, worker): single-core workers and equal
  // runtimes make each round dispatch exactly one env task to each worker,
  // so every worker fetches every environment exactly once.
  uint64_t id = 1;
  for (size_t e = 0; e < packs.size(); ++e) {
    for (int w = 0; w < kWorkers; ++w) {
      wq::TaskSpec t;
      t.id = id++;
      t.category = "env-campaign";
      t.exec_seconds = 100.0;
      t.true_cores = 1.0;
      t.true_peak = alloc::Resources{1.0, 100e6, 500e6};
      wq::InputFile f;
      f.name = "env-" + std::to_string(e) + ".tar";
      f.size_bytes = packs[e].manifest->total_bytes();
      f.cacheable = true;
      f.unpack_seconds = 1.0;
      f.manifest = packs[e].manifest;
      t.inputs.push_back(std::move(f));
      master.submit(std::move(t));
    }
  }
  const wq::MasterStats stats = master.run();
  if (evictions) *evictions = stats.chunk_cache_evictions;
  return stats.transferred_bytes;
}

DistResult run_dist_experiment() {
  pkg::PackageIndex index;
  std::vector<std::string> base;
  for (int i = 0; i < kBasePackages; ++i) {
    const std::string name = strformat("numeric-base-%02d", i);
    index.add(make_pkg(name, 2000, 40000000));
    base.push_back(name);
  }
  std::vector<pkg::Environment> envs;
  std::vector<pkg::PackedEnvironment> packs;
  for (int e = 0; e < kEnvironments; ++e) {
    const std::string extra = strformat("app-extra-%02d", e);
    index.add(make_pkg(extra, 2000, 40000000));
    std::vector<std::string> names = base;
    names.push_back(extra);
    envs.push_back(make_env(index, names, strformat("sibling-%02d", e)));
  }
  pkg::clear_pack_cache();
  for (const pkg::Environment& env : envs) {
    packs.push_back(pkg::packed_environment(env));
  }

  DistResult out;
  int64_t first_env_bytes = packs[0].manifest->total_bytes();
  out.cold_bytes = first_env_bytes * kWorkers;

  const int64_t full_total = run_campaign(packs, /*delta=*/false, nullptr);
  const int64_t delta_total =
      run_campaign(packs, /*delta=*/true, &out.chunk_evictions);
  out.warm_full_bytes = full_total - out.cold_bytes;
  out.warm_delta_bytes = delta_total - out.cold_bytes;

  // Modeled per-worker setup time on Theta at 64 nodes: cold packed fetch vs
  // a warm sibling fetching only its missing chunk fraction.
  const sim::EnvDistModel model(sim::theta());
  const double warm_fraction =
      static_cast<double>(out.warm_delta_bytes) /
      static_cast<double>(std::max<int64_t>(out.warm_full_bytes, 1));
  out.model_cold_seconds = model.setup_seconds(
      envs[1], sim::DistributionMethod::kPackedTransfer, 64);
  out.model_warm_seconds = model.delta_setup_seconds(envs[1], 64, warm_fraction);
  return out;
}

void write_json(const char* path, const PackResult& pack, const DistResult& dist,
                unsigned hardware_threads) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "scale_pack: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_pack\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(f, "  \"pack\": {\n");
  std::fprintf(f, "    \"packages\": %d,\n", kPackPackages);
  std::fprintf(f, "    \"archive_bytes\": %" PRId64 ",\n", pack.archive_bytes);
  std::fprintf(f, "    \"chunks\": %zu,\n", pack.chunk_count);
  std::fprintf(f, "    \"serial_seconds\": %.4f,\n", pack.serial_seconds);
  std::fprintf(f, "    \"parallel_threads\": %d,\n", kParallelThreads);
  std::fprintf(f, "    \"parallel_seconds\": %.4f,\n", pack.parallel_seconds);
  std::fprintf(f, "    \"speedup\": %.2f,\n", pack.speedup());
  std::fprintf(f, "    \"byte_identical_across_thread_counts\": %s\n",
               pack.byte_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"dist\": {\n");
  std::fprintf(f, "    \"environments\": %d,\n", kEnvironments);
  std::fprintf(f, "    \"workers\": %d,\n", kWorkers);
  std::fprintf(f, "    \"cold_bytes\": %" PRId64 ",\n", dist.cold_bytes);
  std::fprintf(f, "    \"warm_full_bytes\": %" PRId64 ",\n", dist.warm_full_bytes);
  std::fprintf(f, "    \"warm_delta_bytes\": %" PRId64 ",\n", dist.warm_delta_bytes);
  std::fprintf(f, "    \"delta_reduction\": %.2f,\n", dist.reduction());
  std::fprintf(f, "    \"chunk_cache_evictions\": %" PRId64 ",\n",
               dist.chunk_evictions);
  std::fprintf(f, "    \"model_theta_64_nodes_cold_seconds\": %.1f,\n",
               dist.model_cold_seconds);
  std::fprintf(f, "    \"model_theta_64_nodes_warm_seconds\": %.1f\n",
               dist.model_warm_seconds);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }

  const unsigned hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

  std::printf("pack pipeline: %d packages x %d files, cold pack\n",
              kPackPackages, kPackFilesPerPkg);
  const PackResult pack = run_pack_experiment();
  std::printf("  archive %.1f MB in %zu chunks\n",
              static_cast<double>(pack.archive_bytes) / 1e6, pack.chunk_count);
  std::printf("  serial (1 thread):      %8.3f s\n", pack.serial_seconds);
  std::printf("  parallel (%d threads):   %8.3f s   (%.2fx, %u hardware threads)\n",
              kParallelThreads, pack.parallel_seconds, pack.speedup(),
              hardware_threads);
  std::printf("  byte-identical across {1,2,4,8} threads: %s\n",
              pack.byte_identical ? "yes" : "NO");

  std::printf("\ndelta distribution: %d sibling environments x %d workers\n",
              kEnvironments, kWorkers);
  const DistResult dist = run_dist_experiment();
  std::printf("  cold bytes (first env, all workers):  %12.1f MB\n",
              static_cast<double>(dist.cold_bytes) / 1e6);
  std::printf("  warm siblings, full archives:         %12.1f MB\n",
              static_cast<double>(dist.warm_full_bytes) / 1e6);
  std::printf("  warm siblings, chunk delta:           %12.1f MB\n",
              static_cast<double>(dist.warm_delta_bytes) / 1e6);
  std::printf("  delta ships %.1fx fewer bytes (%" PRId64 " chunk evictions)\n",
              dist.reduction(), dist.chunk_evictions);
  std::printf("  modeled setup, theta @ 64 nodes: cold %.1f s -> warm %.1f s\n",
              dist.model_cold_seconds, dist.model_warm_seconds);

  if (json_path) write_json(json_path, pack, dist, hardware_threads);

  if (check) {
    if (!pack.byte_identical) {
      std::fprintf(stderr, "FAIL: pack output differs across thread counts\n");
      return 1;
    }
    if (dist.reduction() < 5.0) {
      std::fprintf(stderr, "FAIL: delta reduction %.2fx < 5x\n", dist.reduction());
      return 1;
    }
    if (hardware_threads >= 4) {
      if (pack.speedup() < 2.0) {
        std::fprintf(stderr, "FAIL: parallel pack speedup %.2fx < 2x\n",
                     pack.speedup());
        return 1;
      }
    } else {
      std::printf("note: %u hardware threads < 4, speedup assertion skipped\n",
                  hardware_threads);
    }
    std::printf("check passed: byte-identical, >=5x delta reduction%s\n",
                hardware_threads >= 4 ? ", >=2x parallel speedup" : "");
  }
  return 0;
}
