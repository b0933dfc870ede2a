// Chaos soak harness: seeded fault campaigns against the WQ master.
//
// Each soak seed compiles a chaos::Plan (worker crashes/rejoins, network
// degradation and partitions, filesystem stalls, stragglers, spurious
// monitor kills), arms it through the simulation, runs a multi-category
// workload to completion under a backoff retry policy, and checks the
// recovery subsystem's core invariants:
//   * exactly-once completion — on_complete fires exactly once per task id,
//     and completed + failed == submitted;
//   * no negative accounting — the master's internal checks did not throw
//     and the queue/running counters drained to zero;
//   * labeler consistency — one success observation per completed task and
//     one exhaustion observation per exhaustion retry, despite crash-lost
//     and spuriously killed attempts teaching the labeler nothing.
// Every Kth seed additionally replays a master crash: the same schedule is
// re-run, killed mid-flight, a fresh master is rebuilt with
// Master::recover(journal), and the final per-task outcomes must equal the
// uninterrupted run's (journaled results are never re-run, in-flight
// attempts re-run exactly once).
//
// Usage:
//   chaos_soak                         # 50 schedules, base seed 1000
//   chaos_soak --seeds N --seed S      # N schedules starting at seed S
//   chaos_soak --replay-every K        # replay-check every Kth seed (default 5)
//   chaos_soak --journal-dir DIR       # also write each seed's journal file
//   chaos_soak --trace PATH            # Chrome trace JSON of the last seed
//   chaos_soak --overhead              # journal overhead on the dispatch hot
//                                      # path (min-of-5 interleaved, no chaos)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/labeler.h"
#include "chaos/injector.h"
#include "chaos/journal.h"
#include "chaos/plan.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "util/rng.h"
#include "wq/master.h"

namespace {

using namespace lfm;

constexpr int kWorkers = 12;
constexpr int kTasks = 500;
constexpr int kCategories = 6;
constexpr int kImpossibleTasks = 3;  // exceed the whole node: must fail
constexpr double kHorizon = 200.0;   // fault window [0, kHorizon)

int g_violations = 0;

void check(bool ok, uint64_t seed, const char* what) {
  if (ok) return;
  ++g_violations;
  std::fprintf(stderr, "VIOLATION seed %llu: %s\n",
               static_cast<unsigned long long>(seed), what);
}

alloc::Resources worker_capacity() { return alloc::Resources{16.0, 64e9, 128e9}; }

alloc::LabelerConfig labeler_config() {
  alloc::LabelerConfig cfg;
  cfg.strategy = alloc::Strategy::kAuto;
  cfg.whole_node = worker_capacity();
  cfg.guess = alloc::Resources{1.0, 2e9, 4e9};
  cfg.warmup_samples = 3;
  return cfg;
}

wq::MasterConfig master_config(uint64_t seed) {
  wq::MasterConfig cfg;
  cfg.retry.backoff_base = 0.5;
  cfg.retry.backoff_multiplier = 2.0;
  cfg.retry.backoff_max = 30.0;
  cfg.retry.jitter_fraction = 0.2;
  cfg.retry.jitter_seed = seed;
  return cfg;
}

std::vector<wq::TaskSpec> make_tasks(uint64_t seed, int count = kTasks) {
  Rng rng(seed);
  std::vector<wq::TaskSpec> tasks;
  tasks.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    wq::TaskSpec t;
    t.id = static_cast<uint64_t>(i + 1);
    if (i < kImpossibleTasks) {
      // Peak above the whole node: exhausts at every rung of the retry
      // ladder and must fail identically in every (re)run.
      t.category = "impossible";
      t.exec_seconds = rng.uniform(2.0, 5.0);
      t.true_peak = alloc::Resources{1.0, 96e9, 1e9};
    } else {
      const int cat = i % kCategories;
      t.category = "cat-" + std::to_string(cat);
      t.exec_seconds = rng.uniform(10.0, 40.0);
      const double base_mem = (0.5 + 0.25 * cat) * 1e9;
      t.true_peak = alloc::Resources{1.0, rng.uniform(0.8, 1.2) * base_mem,
                                     rng.uniform(1e9, 2e9)};
      wq::InputFile env;
      env.name = "env-" + std::to_string(cat) + ".tar.gz";
      env.size_bytes = 200LL * 1000 * 1000;
      env.cacheable = true;
      env.unpack_seconds = 0.3;
      t.inputs.push_back(std::move(env));
    }
    t.true_cores = 1.0;
    t.output_bytes = 1000 * 1000;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

// One soak universe: simulation, network, labeler, master, fault plan.
struct Universe {
  sim::Simulation sim;
  sim::Network network;
  alloc::Labeler labeler;
  wq::Master master;
  std::unordered_map<uint64_t, int> completions;  // task id -> on_complete fires

  explicit Universe(uint64_t seed)
      : network(sim, {}), labeler(labeler_config()),
        master(sim, network, labeler, master_config(seed)) {
    master.set_on_complete(
        [this](const wq::TaskRecord& rec) { completions[rec.spec.id] += 1; });
  }
};

// Per-task outcome: 'c'ompleted or 'f'ailed (the soak never cancels).
std::unordered_map<uint64_t, char> outcomes(const wq::Master& master) {
  std::unordered_map<uint64_t, char> out;
  for (const auto& rec : master.records()) {
    out[rec.spec.id] = rec.finish_time >= 0.0 ? 'c' : 'f';
  }
  return out;
}

void populate(Universe& u, uint64_t seed) {
  for (int w = 0; w < kWorkers; ++w) u.master.add_worker({worker_capacity(), 0.0});
  for (auto& t : make_tasks(seed)) u.master.submit(std::move(t));
}

void soak_invariants(uint64_t seed, const Universe& u, const wq::MasterStats& stats) {
  check(stats.tasks_completed + stats.tasks_failed + stats.tasks_cancelled ==
            static_cast<int64_t>(u.master.records().size()),
        seed, "completed + failed + cancelled != submitted");
  check(u.master.ready_count() == 0, seed, "ready queue did not drain");
  check(u.master.running_count() == 0, seed, "running count did not drain");
  int64_t fired = 0;
  for (const auto& [id, count] : u.completions) {
    if (count != 1) check(false, seed, "on_complete fired != 1 for a task");
    fired += count;
  }
  check(fired == static_cast<int64_t>(u.master.records().size()), seed,
        "on_complete fired for a subset of tasks");
  for (const auto& rec : u.master.records()) {
    check(rec.state == wq::TaskState::kDone, seed, "task not terminal at drain");
  }
  // Labeler consistency: lost attempts (crashes, spurious kills) must not
  // have produced observations — except attempts killed with the result in
  // flight, whose run genuinely finished before the loss (lost_results).
  check(u.labeler.total_samples() == stats.tasks_completed + stats.lost_results,
        seed, "labeler success samples != completed tasks + lost results");
  check(u.labeler.total_exhaustions() == stats.exhaustion_retries, seed,
        "labeler exhaustions != exhaustion retries");
}

// Re-run the schedule, kill the master mid-flight, recover a fresh one from
// the journal, and demand the same final outcome per task id.
void replay_check(uint64_t seed, const chaos::ChaosConfig& campaign,
                  const std::unordered_map<uint64_t, char>& reference,
                  double kill_time) {
  // Phase 1: same seed, same faults, but the master dies at kill_time.
  Universe dying(seed);
  chaos::Journal journal;
  dying.master.set_journal(&journal);
  const chaos::Plan plan = chaos::compile_plan(seed, campaign, kWorkers, 1);
  chaos::Injector injector(dying.sim, dying.master, plan);
  injector.arm();
  populate(dying, seed);
  dying.sim.run_until(kill_time);

  // Phase 2: a fresh master rebuilds from the journal and finishes. The
  // journal is decoded from its bytes first — recovery reads what a real
  // restart would read off disk.
  const chaos::Journal replayed = chaos::Journal::decode(journal.bytes());
  Universe recovered(seed);
  recovered.master.recover(replayed);
  const wq::MasterStats stats = recovered.master.run();

  const auto after = outcomes(recovered.master);
  check(after.size() == reference.size(), seed, "replay: task set mismatch");
  for (const auto& [id, outcome] : reference) {
    const auto it = after.find(id);
    if (it == after.end() || it->second != outcome) {
      check(false, seed, "replay: per-task outcome differs from uninterrupted run");
      break;
    }
  }
  // Exactly-once across the crash: completions journaled before the kill
  // must not re-fire on_complete in the recovered master.
  int64_t fired_twice = 0;
  for (const auto& [id, count] : dying.completions) {
    if (count > 0 && recovered.completions.count(id) > 0) ++fired_twice;
  }
  check(fired_twice == 0, seed, "replay: on_complete re-fired after recovery");
  check(stats.tasks_recovered > 0, seed, "replay: nothing was recovered");
}

struct SeedReport {
  wq::MasterStats stats;
  chaos::InjectorStats faults;
  int64_t requeues = 0;  // attempts lost to crashes + spurious kills
  size_t journal_records = 0;
  bool replayed = false;
};

SeedReport run_seed(uint64_t seed, bool do_replay, const std::string& journal_dir) {
  const chaos::ChaosConfig campaign = chaos::default_campaign(kHorizon);

  Universe u(seed);
  chaos::Journal journal =
      journal_dir.empty()
          ? chaos::Journal()
          : chaos::Journal(journal_dir + "/soak_" + std::to_string(seed) + ".journal");
  u.master.set_journal(&journal);
  const chaos::Plan plan = chaos::compile_plan(seed, campaign, kWorkers, 1);
  chaos::Injector injector(u.sim, u.master, plan);
  injector.arm();
  populate(u, seed);
  const wq::MasterStats stats = u.master.run();
  journal.flush();

  soak_invariants(seed, u, stats);

  SeedReport report;
  report.stats = stats;
  report.faults = injector.stats();
  for (const auto& rec : u.master.records()) report.requeues += rec.requeues;
  report.journal_records = journal.size();
  if (do_replay) {
    report.replayed = true;
    replay_check(seed, campaign, outcomes(u.master), 0.45 * stats.makespan);
  }
  return report;
}

// Journal overhead on the dispatch hot path: the chaos-free scale scenario,
// journal detached vs attached (in-memory sink), interleaved min-of-5 — the
// same method print_tracing_overhead uses for the obs recorder.
double time_scenario(chaos::Journal* journal) {
  constexpr int kOverheadTasks = 4 * kTasks;  // a stable, multi-ms base time
  Universe u(42);
  u.master.set_journal(journal);
  for (int w = 0; w < kWorkers; ++w) u.master.add_worker({worker_capacity(), 0.0});
  for (auto& t : make_tasks(42, kOverheadTasks)) u.master.submit(std::move(t));
  const auto start = std::chrono::steady_clock::now();
  u.master.run();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
      .count();
}

void print_journal_overhead() {
  std::printf("\n================================================================\n");
  std::printf("Journal overhead on the dispatch hot path\n");
  std::printf("(chaos-free scenario, journal off vs on; budget < 10%%)\n");
  std::printf("================================================================\n");
  constexpr int kReps = 5;
  time_scenario(nullptr);  // warm caches/allocator once
  double off = 1e30;
  double on = 1e30;
  size_t records = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    off = std::min(off, time_scenario(nullptr));
    chaos::Journal journal;
    on = std::min(on, time_scenario(&journal));
    records = journal.size();
  }
  std::printf("%-36s %11.1f ms\n", "dispatch path, journal off", off * 1e3);
  std::printf("%-36s %11.1f ms   (%zu records)\n", "dispatch path, journal on",
              on * 1e3, records);
  std::printf("%-36s %11.2f %%\n", "journal overhead",
              off > 0.0 ? (on - off) / off * 100.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 50;
  uint64_t base_seed = 1000;
  int replay_every = 5;
  std::string journal_dir;
  std::string trace_path;
  bool overhead = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--replay-every" && i + 1 < argc) {
      replay_every = std::atoi(argv[++i]);
    } else if (arg == "--journal-dir" && i + 1 < argc) {
      journal_dir = argv[++i];
      std::filesystem::create_directories(journal_dir);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--overhead") {
      overhead = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--seed S] [--replay-every K] "
                   "[--journal-dir DIR] [--trace PATH] [--overhead]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("Chaos soak: %d schedules, base seed %llu (%d workers x %d tasks, "
              "replay check every %d)\n",
              seeds, static_cast<unsigned long long>(base_seed), kWorkers, kTasks,
              replay_every);
  std::printf("%8s %7s %6s %6s %5s %5s %9s %9s %8s %7s\n", "seed", "faults",
              "done", "fail", "exh", "kill", "requeues", "makespan", "journal",
              "replay");

  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(i);
    const bool last = i == seeds - 1;
    if (!trace_path.empty() && last) {
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    const bool do_replay = replay_every > 0 && i % replay_every == 0;
    const SeedReport r = run_seed(seed, do_replay, journal_dir);
    std::printf("%8llu %7lld %6lld %6lld %5lld %5lld %9lld %9.1f %8zu %7s\n",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(r.faults.total()),
                static_cast<long long>(r.stats.tasks_completed),
                static_cast<long long>(r.stats.tasks_failed),
                static_cast<long long>(r.stats.exhaustion_retries),
                static_cast<long long>(r.stats.spurious_kills),
                static_cast<long long>(r.requeues), r.stats.makespan,
                r.journal_records, r.replayed ? "ok" : "-");
    std::fflush(stdout);
  }

  if (!trace_path.empty()) {
    const auto slash = trace_path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : trace_path.substr(0, slash);
    const std::string file =
        slash == std::string::npos ? trace_path : trace_path.substr(slash + 1);
    const obs::Recorder& r = obs::Recorder::global();
    obs::write_text_file(dir, file, obs::chrome_trace_json(r.events()));
    std::printf("wrote %zu trace events to %s\n", r.event_count(),
                trace_path.c_str());
    obs::Recorder::global().set_enabled(false);
  }

  if (overhead) print_journal_overhead();

  if (g_violations > 0) {
    std::fprintf(stderr, "%d invariant violation(s)\n", g_violations);
    return 1;
  }
  std::printf("all invariants held across %d seeded fault schedules\n", seeds);
  return 0;
}
