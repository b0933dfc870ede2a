// /proc-based measurement of a process subtree (paper §VI.B.1).
//
// The paper combines interval polling of /proc/PID with LD_PRELOAD
// interception of fork/exit so short-lived children are not missed. Here the
// subtree is discovered at each sample by walking down from the root PID
// through every thread's /proc/PID/task/TID/children list, so a sample costs
// O(subtree), not O(processes on the host) — the same measurement surface
// without a preloaded library (documented substitution in DESIGN.md; needs
// CONFIG_PROC_CHILDREN). Exited children's CPU time is still captured
// through the parent's cumulative children-time counters (cutime/cstime in
// /proc/PID/stat).
#pragma once

#include <sys/types.h>

#include <optional>
#include <vector>

#include "monitor/resources.h"

namespace lfm::monitor {

struct ProcSample {
  pid_t pid = 0;
  double utime = 0.0;   // user CPU seconds
  double stime = 0.0;   // system CPU seconds
  double cutime = 0.0;  // reaped children user CPU seconds
  double cstime = 0.0;  // reaped children system CPU seconds
  int64_t rss_bytes = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
};

// Read one process's counters; nullopt if it vanished.
std::optional<ProcSample> sample_process(pid_t pid);

// All live PIDs descended from `root`, root first; empty if root is gone.
// An orphan reparented away from the tree is no longer part of it.
std::vector<pid_t> process_subtree(pid_t root);

// Aggregate a subtree into a usage snapshot. `wall_time` is supplied by the
// caller's clock. Updates only instantaneous fields; peak tracking is the
// monitor loop's job.
ResourceUsage sample_subtree(pid_t root, double wall_time);

}  // namespace lfm::monitor
