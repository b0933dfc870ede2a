// Internal: the shared parent-side monitoring loop used by both the
// Python-function path (lfm.cc) and the external-command path (command.cc).
// Not part of the public API.
#pragma once

#include <sys/types.h>

#include "monitor/lfm.h"

namespace lfm::monitor::detail {

struct LoopResult {
  bool killed_for_limit = false;
  std::string violated_resource;
  int wait_status = 0;
  serde::Bytes collected;  // bytes drained from read_fd during the run
};

// Sample `pid`'s /proc subtree right away and then every poll interval until
// `pid` exits, enforcing options.limits (the whole process group is killed
// on violation), draining `read_fd` (non-blocking) into the result as bytes
// arrive, updating `usage` peaks and, when enabled, `timeline`. Returns as
// soon as `pid` exits, even while a grandchild still holds `read_fd`'s pipe
// open. `read_fd` is closed before returning.
LoopResult monitor_loop(pid_t pid, int read_fd, const MonitorOptions& options,
                        ResourceUsage& usage, UsageTimeline& timeline);

}  // namespace lfm::monitor::detail
