// One round of a workload through a live tree: the benchmark process is the
// fed::RootMaster; it forks 2 fed::Foreman processes, each forking one
// net::WorkerClient, all on loopback with ephemeral ports. The root keeps
// `window` task groups outstanding and submits the next group from
// set_on_result when one finishes (a closed loop), until the round's fixed
// set of groups has run. Then the root says bye, every forked process is
// reaped, and the round checks that nothing it started outlived it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fed/root_master.h"
#include "workload.h"

namespace lfmbench {

inline constexpr int kForemen = 2;
inline constexpr int kWorkersPerForeman = 1;

struct RoundResult {
  double setup_s = 0.0;    // round start -> first submit
  double window_s = 0.0;   // first submit -> last result
  int64_t submitted = 0;   // tasks submitted
  int64_t verified = 0;    // results that passed Workload::check exactly once
  int64_t failed = 0;      // submitted - verified, plus round-level failures
  double cpu_s = 0.0;      // root CPU over the window + reaped descendants
  double children_maxrss_mb = 0.0;
  int64_t groups = 0;
  int64_t env_file_frames = 0;  // env-ship: file frames on the top link
  double steal_pct = 0.0;  // hypervisor steal, % of host CPU ticks in the round
  fed::RootStats stats;
  std::vector<std::string> problems;  // round-level check failures
  std::vector<double> latency_ms;     // per task: group submit -> on_result
  // Traced rounds only (per task, from the merged tree trace).
  std::vector<double> root_hop_ms;         // task - task.inflight
  std::vector<double> foreman_inflight_ms; // task.inflight - lfm.run
};

// Runs one round. With `traced`, every process records and the root's
// obs::Collector merges the tree's spans into the per-task span breakdown.
// `journal_path` (if not empty) backs a chaos::Journal the root writes every
// completion to.
RoundResult run_round(Workload& workload, bool traced,
                      const std::string& journal_path);

// Make this process the reaper of every orphaned descendant, so a leaked
// foreman, worker or LFM child is seen (and stopped) by the round check.
void become_subreaper();

// Stop and reap every remaining child; returns how many there were. A round
// calls it once its own processes are reaped, and main() once more
// before it exits, in case a round was cut short by an error.
int stop_leaked_children();

}  // namespace lfmbench
