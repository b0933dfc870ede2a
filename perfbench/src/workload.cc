#include "workload.h"

#include <cmath>
#include <string>
#include <utility>

#include "pkg/chunk.h"
#include "pkg/solver.h"
#include "serde/pickle.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace lfmbench {

using namespace lfm;

namespace {

// Every run collects at least 1000 latency samples, so p99 has 10 above it.
// Groups of tens of no-op tasks, eight in flight (four per foreman, the
// root's default groups_per_foreman).
constexpr Shape kEchoBurst{Kind::kEchoBurst, "echo-burst", 32, 8, 49152, 1000};
// Eight-task groups, two per foreman: each worker holds one batch of up to
// tasks_per_worker (8) tasks while the next waits at its foreman. At under
// 100 tasks/s, 1500 samples keep p99 and CPU per task steady from run to
// run, and rounds of 128 tasks (about 1.5 s) are short enough for the run
// to set aside those the hypervisor stole from.
constexpr Shape kPyShort{Kind::kPyShort, "py-short", 8, 4, 128, 1500};
// Four-task groups, each naming one multi-MB environment.
constexpr Shape kEnvShip{Kind::kEnvShip, "env-ship", 4, 4, 192, 1000};

constexpr int kBasePackages = 24;
constexpr int kBaseFilesPerPkg = 1000;

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng stream(uint64_t seed, uint64_t salt, uint64_t i) {
  return Rng(mix64(mix64(seed ^ salt) + i));
}

const alloc::Resources kAllocation{1.0, 512e6, 1e9};

// Loop trip counts of the py-short functions.
constexpr int64_t kLoopMin = 8000;
constexpr int64_t kLoopMax = 12000;

}  // namespace

const Shape* find_shape(const std::string& name) {
  for (const Shape* s : {&kEchoBurst, &kPyShort, &kEnvShip}) {
    if (name == s->name) return s;
  }
  return nullptr;
}

// --- env-ship environments ---------------------------------------------------

std::unique_ptr<EnvSet> make_env_set(uint64_t seed) {
  auto set = std::make_unique<EnvSet>();
  Rng rng = stream(seed, 0xE5, 0);
  auto make_pkg = [](const std::string& name, int files) {
    pkg::PackageMeta meta;
    meta.name = name;
    meta.version = pkg::Version::parse("1.0.0");
    meta.file_count = files;
    meta.size_bytes = 40000000;
    return meta;
  };
  std::vector<std::string> base;
  for (int i = 0; i < kBasePackages; ++i) {
    base.push_back(strformat("numeric-base-%02d", i));
    set->index.add(make_pkg(base.back(), kBaseFilesPerPkg));
  }
  for (size_t e = 0; e < kEnvironments; ++e) {
    const std::string app = strformat("app-extra-%02zu", e);
    set->index.add(
        make_pkg(app, static_cast<int>(rng.uniform_int(750, 1250))));
  }
  for (size_t e = 0; e < kEnvironments; ++e) {
    std::vector<pkg::Requirement> reqs;
    for (const std::string& n : base) reqs.push_back(pkg::Requirement::parse(n));
    reqs.push_back(pkg::Requirement::parse(strformat("app-extra-%02zu", e)));
    pkg::Solver solver(set->index);
    auto result = solver.resolve(reqs);
    if (!result.ok()) throw Error("env-ship: resolve failed: " + result.error());
    set->envs.emplace_back(strformat("sibling-%02zu", e), std::move(result).take());
  }
  return set;
}

std::vector<pkg::PackedEnvironment> pack_cold(const EnvSet& set) {
  pkg::clear_pack_cache();
  pkg::global_chunk_store().clear();
  std::vector<pkg::PackedEnvironment> packs;
  for (const pkg::Environment& env : set.envs) {
    packs.push_back(pkg::packed_environment(env));
  }
  return packs;
}

size_t zipf_env(uint64_t seed, uint64_t group_index, size_t n) {
  std::vector<double> weights(n);
  for (size_t r = 0; r < n; ++r) weights[r] = 1.0 / std::pow(r + 1.0, 1.1);
  Rng perm_rng = stream(seed, 0x2F, 0);
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[perm_rng.next() % i]);
  }
  Rng rng = stream(seed, 0x21F, group_index);
  return perm[rng.weighted_index(weights)];
}

std::string env_file_name(size_t e) { return strformat("env-%02zu.tar", e); }

// --- py-short ------------------------------------------------------------------

// Each function runs a few milliseconds in the interpreter: well inside the
// LFM's 20 ms poll even on a slowed host (a function that outlives the poll
// costs a second interval), yet long enough that the monitor's first /proc
// sample nearly always finds the child alive and records its peak memory.
const char* const kPyModule = R"(
def mix(a, b, n):
    acc = 0
    for i in range(n):
        acc = (acc * 31 + a + i * b) % 1000003
    return {'sum': a + b, 'prod': a * b, 'acc': acc}

def stats(xs, reps):
    s = sorted(xs)
    total = 0
    for r in range(reps):
        for x in s:
            total = (total + x * x + r) % 1000003
    return {'n': len(s), 'lo': s[0], 'hi': s[len(s) - 1], 'sumsq': total}

def horner(coeffs, x, reps):
    acc = 0
    for r in range(reps):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c + r) % 1000003
    return {'x': x, 'value': acc, 'terms': len(coeffs)}
)";

PyCall py_call(uint64_t seed, uint64_t i) {
  Rng rng = stream(seed, 0x9E, i);
  serde::ValueList args;
  PyCall call;
  switch (rng.next() % 3) {
    case 0:
      call.function = "mix";
      args.push_back(serde::Value(rng.uniform_int(0, 999999)));
      args.push_back(serde::Value(rng.uniform_int(0, 999999)));
      args.push_back(serde::Value(rng.uniform_int(kLoopMin, kLoopMax)));
      break;
    case 1: {
      call.function = "stats";
      serde::ValueList xs;
      const int64_t n = rng.uniform_int(16, 32);
      for (int64_t k = 0; k < n; ++k) {
        xs.push_back(serde::Value(rng.uniform_int(-1000, 1000)));
      }
      args.push_back(serde::Value(std::move(xs)));
      args.push_back(serde::Value(rng.uniform_int(kLoopMin, kLoopMax) / n));
      break;
    }
    default: {
      call.function = "horner";
      serde::ValueList coeffs;
      const int64_t n = rng.uniform_int(4, 10);
      for (int64_t k = 0; k < n; ++k) {
        coeffs.push_back(serde::Value(rng.uniform_int(-9, 9)));
      }
      args.push_back(serde::Value(std::move(coeffs)));
      args.push_back(serde::Value(rng.uniform_int(-5, 5)));
      args.push_back(serde::Value(rng.uniform_int(kLoopMin, kLoopMax) / 7));
      break;
    }
  }
  call.args = serde::Value(std::move(args));
  return call;
}

std::pair<wq::TaskMessage, wq::FileSet> py_task(uint64_t seed, uint64_t id) {
  const PyCall call = py_call(seed, id - 1);
  return wq::make_python_task(id, "py-short", kPyModule, call.function,
                              call.args, kAllocation);
}

// --- echo ----------------------------------------------------------------------

serde::Bytes echo_payload(uint64_t seed) {
  Rng rng = stream(seed, 0xEC, 0);
  serde::ValueDict d;
  serde::ValueList samples;
  for (size_t i = 0; i < 64; ++i) {
    samples.push_back(
        serde::Value(static_cast<double>(rng.next() % 100000) / 100.0));
  }
  d["samples"] = serde::Value(std::move(samples));
  serde::Bytes blob(512);
  for (auto& b : blob) b = static_cast<uint8_t>(rng.next());
  d["blob"] = serde::Value(std::move(blob));
  d["status"] = serde::Value(std::string("ok"));
  d["n"] = serde::Value(int64_t{64});
  return serde::dumps(serde::Value(std::move(d)));
}

wq::TaskMessage echo_task(uint64_t id, const char* category) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = category;
  t.command_line = "echo";  // never executed: workers run in echo mode
  t.allocation = kAllocation;
  return t;
}

// --- Workload ------------------------------------------------------------------

Workload::Workload(const Shape& shape, uint64_t seed)
    : shape_(shape), seed_(seed), payload_(echo_payload(seed)) {
  if (shape_.kind == Kind::kEnvShip) envs_ = make_env_set(seed);
}

std::vector<fed::TaskGroup> Workload::build_round() {
  const size_t n_groups = shape_.round_tasks / shape_.group_size;
  std::vector<pkg::PackedEnvironment> packs;
  if (shape_.kind == Kind::kEnvShip) packs = pack_cold(*envs_);

  std::vector<fed::TaskGroup> groups(n_groups);
  for (fed::TaskGroup& group : groups) {
    const uint64_t g = groups_built_++;
    group.name = strformat("%s-%llu", shape_.name, (unsigned long long)g);
    group.tasks.reserve(shape_.group_size);
    switch (shape_.kind) {
      case Kind::kEchoBurst:
        for (size_t i = 0; i < shape_.group_size; ++i) {
          group.tasks.push_back(echo_task(next_id_++, shape_.name));
        }
        break;
      case Kind::kPyShort:
        for (size_t i = 0; i < shape_.group_size; ++i) {
          auto [task, files] = py_task(seed_, next_id_++);
          group.tasks.push_back(std::move(task));
          for (auto& [name, bytes] : files) {
            group.files.emplace(name, std::move(bytes));
          }
        }
        break;
      case Kind::kEnvShip: {
        const size_t e = zipf_env(seed_, g, packs.size());
        const std::string file = env_file_name(e);
        const serde::Bytes& tar = *packs[e].tar;
        for (size_t i = 0; i < shape_.group_size; ++i) {
          wq::TaskMessage t = echo_task(next_id_++, shape_.name);
          t.infiles.push_back({file, static_cast<int64_t>(tar.size()), true});
          group.tasks.push_back(std::move(t));
        }
        group.files.emplace(file, tar);
        break;
      }
    }
  }
  return groups;
}

bool Workload::check(const wq::ResultMessage& msg) {
  const char* failure = nullptr;
  if (msg.exit_code != 0) {
    failure = "nonzero exit code";
  } else if (shape_.kind != Kind::kPyShort) {
    if (msg.payload != payload_) failure = "echo payload differs";
  } else if (!(msg.wall_seconds > 0.0)) {
    // No optimisation may pass by skipping the monitor: every result carries
    // the LFM's own wall-time measurement.
    failure = "no LFM wall time";
  } else if (msg.payload.empty()) {
    failure = "empty payload";
  }
  if (failure != nullptr) {
    ++check_failures_[failure];
    return false;
  }
  if (shape_.kind == Kind::kPyShort) {
    py_payloads_[msg.task_id] = msg.payload;
    if (msg.memory_peak_bytes <= 0) ++py_without_memory_;
  }
  return true;
}

int64_t Workload::memory_check_failures() const {
  // The LFM samples /proc once right after fork, then sleeps a poll
  // interval. When its scan of /proc takes longer than the function runs,
  // the sample finds an exited child and the peak stays 0: about 0.2% of
  // results on a quiet host, growing by about 0.15% per percent of CPU the
  // hypervisor steals (3.8% at 26% steal). Tolerate it on up to 6%, enough
  // for 40% steal: skipping the monitor, or sampling first a poll interval
  // later, after the few-millisecond function has ended, would miss the
  // peak on nearly every result.
  const auto checked = static_cast<int64_t>(py_payloads_.size());
  return py_without_memory_ * 50 > checked * 3 ? py_without_memory_ : 0;
}

int64_t Workload::verify_reference(size_t* replayed) {
  *replayed = 0;
  if (shape_.kind != Kind::kPyShort) return 0;
  // The reference polls every millisecond so the replay stays short; the
  // payload is the function's pickled return value, independent of polling.
  wq::LocalWorkerOptions options;
  options.poll_interval = 0.001;
  wq::LocalWorker reference(options);
  int64_t mismatches = 0;
  for (const auto& [id, payload] : py_payloads_) {
    auto [task, files] = py_task(seed_, id);
    const wq::ResultMessage res = reference.execute(task, files);
    ++*replayed;
    if (res.exit_code != 0 || res.payload != payload) ++mismatches;
  }
  return mismatches;
}

}  // namespace lfmbench
