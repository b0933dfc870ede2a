#include "chaos/retry.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace lfm::chaos {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kExhaustion: return "exhaustion";
    case FailureKind::kWorkerCrash: return "worker-crash";
    case FailureKind::kSpuriousKill: return "spurious-kill";
  }
  return "unknown";
}

double RetryPolicy::backoff_delay(uint64_t task_id, int failure_index) const {
  if (backoff_base <= 0.0) return 0.0;
  const int n = std::max(failure_index, 0);
  double delay = backoff_base * std::pow(backoff_multiplier, static_cast<double>(n));
  delay = std::min(delay, backoff_max);
  if (jitter_fraction > 0.0) {
    // Map a hash of (seed, task, failure index) onto [0, 1), then scale the
    // delay by [1 - f, 1 + f]. Pure function of its inputs: replayable.
    uint64_t h = hash_combine64(jitter_seed, task_id);
    h = hash_combine64(h, static_cast<uint64_t>(n) + 1);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    delay *= 1.0 + jitter_fraction * (2.0 * unit - 1.0);
  }
  return delay;
}

RetryDecision RetryPolicy::decide(FailureKind kind, uint64_t task_id, int exhaustions,
                                  int total_failures) const {
  RetryDecision d;
  if (kind == FailureKind::kExhaustion && exhaustions > max_exhaustions) {
    return {false, 0.0, "exhaustion-limit"};
  }
  if (retry_budget >= 0 && total_failures > retry_budget) {
    return {false, 0.0, "retry-budget"};
  }
  d.retry = true;
  d.delay = backoff_delay(task_id, std::max(total_failures - 1, 0));
  d.reason = failure_kind_name(kind);
  return d;
}

bool RetryPolicy::exhaustion_is_permanent(const alloc::Resources& allocated,
                                          const alloc::Resources& whole_node,
                                          const std::string& resource) {
  if (resource == "memory") return allocated.memory_bytes >= whole_node.memory_bytes;
  if (resource == "disk") return allocated.disk_bytes >= whole_node.disk_bytes;
  if (resource == "cores") return allocated.cores >= whole_node.cores;
  return false;
}

}  // namespace lfm::chaos
