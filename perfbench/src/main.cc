// lfmbench: the federated-tree benchmark.
//
//   lfmbench --workload echo-burst|py-short|env-ship --seed N --seconds S
//            --trace 0|1 --tmpdir DIR [--commit ID]
//
// --trace 0 runs the workload's closed loop, round after round (each round a
// freshly forked root + 2 foremen x 1 worker tree), until at least S seconds
// of timed window and the workload's minimum latency sample count are
// collected in rounds the hypervisor did not steal from, and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced rounds
// (every process recording, spans merged at the root), then probes each
// layer on the workload's seeded inputs, and reports the per-layer ledger.
// Journal files go to DIR. The last line of standard output is one JSON
// object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is nonzero when any correctness check failed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "fed/foreman.h"
#include "fed/root_master.h"
#include "layers.h"
#include "net/master_service.h"
#include "rounds.h"
#include "stats.h"
#include "workload.h"
#include "wq/worker.h"

using namespace lfmbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string tmpdir;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lfmbench: %s\nusage: lfmbench --workload echo-burst|py-short|"
               "env-ship --seed N --seconds S --trace 0|1 --tmpdir DIR "
               "[--commit ID]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--tmpdir") a.tmpdir = v;
    else if (flag == "--commit") a.commit = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.tmpdir.empty()) usage("--tmpdir is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

void print_provenance(const Args& a, const Shape& s) {
  // Library defaults are read from default-constructed configs, so a change to
  // one shows up here.
  const wq::LocalWorkerOptions worker;
  const lfm::net::MasterServiceConfig shard;
  const fed::RootMasterConfig root;
  const fed::ForemanConfig foreman;
  std::printf("provenance: nproc=%ld hw_threads=%u compiler=\"%s\" "
              "build_type=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              LFMBENCH_COMPILER, LFMBENCH_BUILD_TYPE, a.commit.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%s trace=%d\n", s.name,
              static_cast<unsigned long long>(a.seed), fmt(a.seconds).c_str(),
              a.trace);
  std::printf("shape: root + %d foremen x %d worker(s), closed loop window=%zu "
              "groups, group_size=%zu tasks, round=%zu tasks, "
              "min_samples=%zu, workers=%s\n",
              kForemen, kWorkersPerForeman, s.window, s.group_size,
              s.round_tasks, s.min_samples, s.echo_workers() ? "echo" : "lfm");
  std::printf("defaults: poll_interval=%s tasks_per_worker=%d "
              "groups_per_foreman=%d max_batch=%zu foreman_stats_interval=%s "
              "chunk_store_bytes=%lld\n",
              fmt(worker.poll_interval).c_str(), shard.tasks_per_worker,
              root.groups_per_foreman, root.max_batch,
              fmt(foreman.stats_interval).c_str(),
              static_cast<long long>(foreman.cache_capacity_bytes));
}

// Totals over a set of rounds.
struct Tally {
  int rounds = 0;
  int64_t submitted = 0, verified = 0, failed = 0;
  int64_t groups = 0, env_file_frames = 0, top_bytes = 0;
  int64_t requeued_tasks = 0, duplicate_results = 0;
  int64_t latency_samples = 0;
  double window_s = 0.0, cpu_s = 0.0, children_maxrss_mb = 0.0;
  // Per round: set-up seconds, tasks/s over the window.
  std::vector<double> setup_s, round_tasks_per_s;
  std::vector<double> root_hop_ms, foreman_inflight_ms;
  std::vector<std::string> problems;

  // Everything but the round's latency samples.
  void add(const RoundResult& r) {
    ++rounds;
    submitted += r.submitted;
    verified += r.verified;
    failed += r.failed;
    groups += r.groups;
    env_file_frames += r.env_file_frames;
    top_bytes += r.stats.bytes_sent + r.stats.bytes_received;
    requeued_tasks += r.stats.requeued_tasks;
    duplicate_results += r.stats.duplicate_results;
    latency_samples += static_cast<int64_t>(r.latency_ms.size());
    window_s += r.window_s;
    cpu_s += r.cpu_s;
    children_maxrss_mb = std::max(children_maxrss_mb, r.children_maxrss_mb);
    setup_s.push_back(r.setup_s);
    if (r.window_s > 0 && r.verified > 0) {
      round_tasks_per_s.push_back(static_cast<double>(r.verified) / r.window_s);
    }
    root_hop_ms.insert(root_hop_ms.end(), r.root_hop_ms.begin(),
                       r.root_hop_ms.end());
    foreman_inflight_ms.insert(foreman_inflight_ms.end(),
                               r.foreman_inflight_ms.begin(),
                               r.foreman_inflight_ms.end());
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
  }

  bool covers(double seconds, size_t min_samples) const {
    return window_s >= seconds &&
           latency_samples >= static_cast<int64_t>(min_samples);
  }
};

// On a shared virtual machine the hypervisor steals CPU in bursts, and a
// round that loses CPU that way is slow for reasons outside the program.
// Rounds over this share of stolen host CPU ticks are set aside and run
// again.
constexpr double kMaxStealPct = 5.0;

// The rounds the end-to-end metrics are computed over: the least stolen
// first, as many as cover the run's window and its minimum latency samples.
// Rounds past that are dropped as they come, so the root's memory (which
// every forked foreman inherits) does not grow with the rounds run again.
class RoundPool {
 public:
  RoundPool(double seconds, size_t min_samples)
      : seconds_(seconds), min_samples_(min_samples) {}

  void add(RoundResult&& r) {
    rounds_.push_back(std::move(r));
    std::stable_sort(rounds_.begin(), rounds_.end(),
                     [](const RoundResult& a, const RoundResult& b) {
                       return a.steal_pct < b.steal_pct;
                     });
    while (rounds_.size() > 1 && covers(rounds_.size() - 1)) rounds_.pop_back();
  }

  // Whether the `n` least stolen rounds cover the run.
  bool covers(size_t n) const {
    Tally t;
    for (size_t i = 0; i < n && i < rounds_.size(); ++i) t.add(rounds_[i]);
    return t.covers(seconds_, min_samples_);
  }

  std::vector<RoundResult>& rounds() { return rounds_; }

 private:
  double seconds_;
  size_t min_samples_;
  std::vector<RoundResult> rounds_;  // least stolen first
};

// Wall-clock cap on the measuring loop, well inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Shape* shape = find_shape(args.workload);
  if (shape == nullptr) usage(("unknown workload " + args.workload).c_str());
  become_subreaper();
  print_provenance(args, *shape);

  Report report;
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  try {
    Workload workload(*shape, args.seed);
    const double started = now_s();
    const HostTicks ticks0 = host_ticks();
    // py-short's root journals every completion to a file, traced or not.
    auto journal_for = [&](const char* kind, int round) {
      if (shape->kind != Kind::kPyShort) return std::string();
      return args.tmpdir + "/root-" + kind + "-" + std::to_string(round) +
             ".journal";
    };

    Tally plain, traced;
    // Untraced run: the least stolen rounds.
    RoundPool pool(args.seconds, shape->min_samples);
    int stolen_rounds = 0;
    if (args.trace == 0) {
      // Rounds over kMaxStealPct are run again, for at most half as long
      // again as the run took to cover its window and samples.
      Tally clean;
      double budget_s = kMaxLoopSeconds;
      while (!clean.covers(args.seconds, shape->min_samples) &&
             now_s() - started < budget_s && plain.problems.empty()) {
        RoundResult r = run_round(workload, false, journal_for("u", plain.rounds));
        plain.add(r);
        if (r.steal_pct <= kMaxStealPct) {
          clean.add(r);
        } else {
          ++stolen_rounds;
        }
        pool.add(std::move(r));
        if (budget_s == kMaxLoopSeconds &&
            plain.covers(args.seconds, shape->min_samples)) {
          budget_s = std::min(1.5 * (now_s() - started), kMaxLoopSeconds);
        }
      }
    } else {
      // Interleaved, so drift hits both sides alike.
      while ((plain.window_s + traced.window_s < args.seconds ||
              traced.rounds < 2) &&
             now_s() - started < kMaxLoopSeconds && plain.problems.empty() &&
             traced.problems.empty()) {
        plain.add(run_round(workload, false, journal_for("u", plain.rounds)));
        traced.add(run_round(workload, true, journal_for("t", traced.rounds)));
      }
    }
    const Usage self = self_usage();
    std::printf("host: steal=%s%% of CPU ticks while rounds ran\n",
                fmt(steal_pct(ticks0, host_ticks())).c_str());

    size_t replayed = 0;
    const int64_t mismatches = workload.verify_reference(&replayed);
    if (mismatches > 0) {
      problems.push_back(std::to_string(mismatches) +
                         " py-short payload(s) differ from the in-process "
                         "LocalWorker reference");
    }
    const int64_t no_memory = workload.memory_check_failures();
    if (no_memory > 0) {
      problems.push_back(std::to_string(no_memory) +
                         " py-short results (over 6%) lack an LFM peak memory");
    }
    for (const auto& [reason, count] : workload.check_failures()) {
      problems.push_back(std::to_string(count) + " result(s) failed the check: " +
                         reason);
    }
    attempted = plain.submitted + traced.submitted;
    failed = plain.failed + traced.failed + mismatches + no_memory;
    problems.insert(problems.end(), plain.problems.begin(), plain.problems.end());
    problems.insert(problems.end(), traced.problems.begin(), traced.problems.end());

    std::printf("rounds: untraced=%d traced=%d window_s=%s setup_rounds=%zu "
                "reference_replayed=%zu results_without_lfm_memory=%lld\n",
                plain.rounds, traced.rounds,
                fmt(plain.window_s + traced.window_s).c_str(),
                plain.setup_s.size() + traced.setup_s.size(), replayed,
                static_cast<long long>(workload.results_without_memory()));
    std::printf("failed_ratio: %lld failed / %lld submitted = %s\n",
                static_cast<long long>(failed), static_cast<long long>(attempted),
                fmt(attempted > 0 ? static_cast<double>(failed) / attempted : 0.0)
                    .c_str());

    if (args.trace == 0) {
      Tally m;
      std::vector<double> lat;
      double max_steal = 0.0;
      for (RoundResult& r : pool.rounds()) {
        m.add(r);
        lat.insert(lat.end(), r.latency_ms.begin(), r.latency_ms.end());
        r.latency_ms = {};
        max_steal = std::max(max_steal, r.steal_pct);
      }
      std::printf("steal filter: metrics over the %d least stolen of %d rounds "
                  "(max %s%% steal); %d round(s) over %s%% steal\n",
                  m.rounds, plain.rounds, fmt(max_steal).c_str(), stolen_rounds,
                  fmt(kMaxStealPct).c_str());
      const auto tasks = static_cast<double>(m.verified);
      report.add("setup_s", median(m.setup_s), "s", m.setup_s.size());
      report.add("tasks_per_s", tasks / m.window_s, "tasks/s", m.verified);
      report.add("task_p50_ms", quantile(lat, 0.50), "ms", lat.size());
      // Printed, but not a BENCHMARK.json metric: on a shared virtual machine
      // steal that lasts through a whole run moves it by more than any
      // useful bound.
      std::printf("tail: task_p99_ms=%s ms (n=%zu)\n",
                  fmt(quantile(lat, 0.99)).c_str(), lat.size());
      report.add("cpu_ms_per_task", 1e3 * m.cpu_s / tasks, "ms", m.verified);
      report.add("top_link_bytes_per_task",
                 static_cast<double>(m.top_bytes) / tasks, "B", m.verified);
      std::printf("peak rss: root %s MB, largest descendant %s MB\n",
                  fmt(self.maxrss_mb).c_str(), fmt(plain.children_maxrss_mb).c_str());
      report.add("peak_rss_mb", std::max(self.maxrss_mb, plain.children_maxrss_mb),
                 "MB", static_cast<size_t>(plain.rounds) + 1);
    } else {
      std::vector<double>& hop = traced.root_hop_ms;
      std::vector<double>& inflight = traced.foreman_inflight_ms;
      report.add("fed.root_hop_p50_ms", quantile(hop, 0.50), "ms", hop.size());
      report.add("fed.root_hop_p99_ms", quantile(hop, 0.99), "ms", hop.size());
      report.add("fed.foreman_inflight_p50_ms", quantile(inflight, 0.50), "ms",
                 inflight.size());
      report.add("fed.foreman_inflight_p99_ms", quantile(inflight, 0.99), "ms",
                 inflight.size());
      const int64_t groups = plain.groups + traced.groups;
      const int64_t env_frames = plain.env_file_frames + traced.env_file_frames;
      const auto rounds = static_cast<size_t>(plain.rounds + traced.rounds);
      // Workloads without environments ship no env file frames.
      std::printf("affinity: %lld env file frame(s) for %lld group(s)\n",
                  static_cast<long long>(env_frames), static_cast<long long>(groups));
      report.add("fed.affinity_hit_ratio",
                 1.0 - static_cast<double>(env_frames) /
                           static_cast<double>(std::max<int64_t>(groups, 1)),
                 "ratio", groups);
      report.add("fed.requeued_tasks",
                 static_cast<double>(plain.requeued_tasks + traced.requeued_tasks),
                 "count", rounds);
      report.add("fed.duplicate_results",
                 static_cast<double>(plain.duplicate_results +
                                     traced.duplicate_results),
                 "count", rounds);
      const double off = median(plain.round_tasks_per_s);
      const double on = median(traced.round_tasks_per_s);
      std::printf("trace overhead: untraced %s tasks/s, traced %s tasks/s\n",
                  fmt(off).c_str(), fmt(on).c_str());
      report.add("obs.trace_overhead_pct", off > 0 ? 100.0 * (off - on) / off : 0.0,
                 "%", rounds);
      probe_layers(workload, args.tmpdir, report);
    }
  } catch (const std::exception& e) {
    problems.push_back(std::string("run aborted: ") + e.what());
  }

  if (const int leaked = stop_leaked_children(); leaked > 0) {
    problems.push_back(std::to_string(leaked) + " forked process(es) left running");
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  if (!correct && failed == 0) failed = 1;
  report.print_lines();
  std::printf("%s\n", report.json(correct, std::max<int64_t>(attempted, 1),
                                  failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
