// The three workloads and their seeded inputs.
//
//   echo-burst  no-op tasks; echo-mode workers answer each with a ~1 KB
//               pickled dict. Loads serde, wq, net and fed dispatch only.
//   py-short    short functions from a small module, built with
//               wq::make_python_task and run by real LFM workers; the root
//               writes a file-backed chaos::Journal.
//   env-ship    no-op tasks in groups that each name one cacheable sibling
//               environment (shared base + one app package), packed through
//               pkg::packed_environment and drawn by seeded Zipf.
//
// Every input is a pure function of (--seed, task index): the same seed
// gives the same tasks whatever the round structure of a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fed/root_master.h"
#include "pkg/environment.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "serde/value.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfmbench {

namespace fed = lfm::fed;
namespace pkg = lfm::pkg;
namespace serde = lfm::serde;
namespace wq = lfm::wq;

enum class Kind { kEchoBurst, kPyShort, kEnvShip };

// The fixed shape of one workload's closed loop.
struct Shape {
  Kind kind;
  const char* name;
  size_t group_size;   // tasks per fed::TaskGroup
  size_t window;       // groups kept outstanding at the root
  size_t round_tasks;  // tasks per round; each round forks a fresh tree
  size_t min_samples;  // latency samples a run must collect

  // Workers answer in echo mode (no LFM fork) except in py-short.
  bool echo_workers() const { return kind != Kind::kPyShort; }
};

// nullptr for an unknown name.
const Shape* find_shape(const std::string& name);

// env-ship's environment set: E siblings over one resolved package index.
struct EnvSet {
  pkg::PackageIndex index;
  std::vector<pkg::Environment> envs;
};
inline constexpr size_t kEnvironments = 8;
std::unique_ptr<EnvSet> make_env_set(uint64_t seed);
// Cold pack (pack memo and chunk store cleared first) of every environment.
std::vector<pkg::PackedEnvironment> pack_cold(const EnvSet& set);

// py-short's module, the seeded call for task index `i`, and the task (id
// i + 1) that makes that call.
extern const char* const kPyModule;
struct PyCall {
  std::string function;
  serde::Value args;  // positional args as a list
};
PyCall py_call(uint64_t seed, uint64_t i);
std::pair<wq::TaskMessage, wq::FileSet> py_task(uint64_t seed, uint64_t id);

// The canned echo payload: a pickled dict of 64 floats, a 512-byte blob and
// two scalars (~1 KB), seeded.
serde::Bytes echo_payload(uint64_t seed);

class Workload {
 public:
  Workload(const Shape& shape, uint64_t seed);

  const Shape& shape() const { return shape_; }
  uint64_t seed() const { return seed_; }
  const serde::Bytes& payload() const { return payload_; }

  // One round's inputs, built through the program's API; for env-ship this
  // packs every environment cold. Task ids continue across rounds.
  std::vector<fed::TaskGroup> build_round();

  // Check one result as it lands at the root. py-short results must carry
  // an LFM-measured wall time; their payloads are kept for
  // verify_reference().
  bool check(const wq::ResultMessage& msg);
  // py-short results without an LFM-measured peak memory, when more than 6%
  // of the checked results lack it (0 otherwise).
  int64_t memory_check_failures() const;
  int64_t results_without_memory() const { return py_without_memory_; }
  // Failed checks so far, by reason.
  const std::map<std::string, int64_t>& check_failures() const {
    return check_failures_;
  }

  // py-short: replay every checked task through an in-process
  // wq::LocalWorker and compare payloads byte for byte. Returns the number
  // of mismatches (0 for the other workloads).
  int64_t verify_reference(size_t* replayed);

 private:
  const Shape& shape_;
  uint64_t seed_;
  serde::Bytes payload_;
  uint64_t next_id_ = 1;
  size_t groups_built_ = 0;
  std::unique_ptr<EnvSet> envs_;  // env-ship only
  std::unordered_map<uint64_t, serde::Bytes> py_payloads_;
  std::map<std::string, int64_t> check_failures_;
  int64_t py_without_memory_ = 0;
};

// A seeded Zipf(s = 1.1) draw over [0, n): rank r has weight 1 / (r+1)^s,
// ranks mapped to environments through a seeded permutation.
size_t zipf_env(uint64_t seed, uint64_t group_index, size_t n);

// Echo task (never executed: workers answer in echo mode).
wq::TaskMessage echo_task(uint64_t id, const char* category);

// Name of env-ship environment e's staged archive.
std::string env_file_name(size_t e);

}  // namespace lfmbench
