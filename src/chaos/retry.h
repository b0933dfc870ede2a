// Retry/backoff policy for task attempts (chaos & recovery subsystem).
//
// The seed master hardcoded its retry behaviour: an exhausted attempt
// requeues immediately and a task fails after 10 exhaustion retries;
// crash-lost attempts requeue immediately and unconditionally.
// Under fault injection that policy melts down — a crash storm turns into a
// synchronized requeue thundering herd, and a worker that flaps forever can
// pin a task in a retry loop for the whole run.
//
// RetryPolicy makes the behaviour configurable while defaulting to the seed
// semantics bit-for-bit: with backoff_base == 0, budget unlimited, and no
// permanent-failure classification, the master's decision sequence (and thus
// every scheduled simulation event) is identical to the pre-chaos code.
//
// Backoff jitter is deterministic: it is derived by hashing
// (jitter_seed, task id, failure index), never from global entropy, so a
// seeded chaos run replays exactly.
#pragma once

#include <cstdint>
#include <string>

#include "alloc/resources.h"

namespace lfm::chaos {

// Why an attempt needs a retry decision.
enum class FailureKind {
  kExhaustion,    // the LFM killed the attempt for exceeding its allocation
  kWorkerCrash,   // the worker vanished with the attempt in flight
  kSpuriousKill,  // a (faulty) monitor limit-kill; the task was innocent
};

const char* failure_kind_name(FailureKind kind);

struct RetryDecision {
  bool retry = true;
  double delay = 0.0;        // seconds before the task re-enters the queue
  const char* reason = "ok"; // static string for logs/traces
};

struct RetryPolicy {
  // Exhaustion retries before permanent failure (the seed's limit).
  int max_exhaustions = 10;
  // Total failed attempts (any kind) before the task is abandoned.
  // -1 = unlimited (seed behaviour: crashes never exhaust a task).
  int retry_budget = -1;
  // Exponential backoff: delay = base * multiplier^(failure_index), capped.
  // base == 0 requeues immediately through the exact seed code path (no
  // extra simulation event is scheduled).
  double backoff_base = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_max = 60.0;
  // Deterministic jitter: the delay is scaled by a factor drawn uniformly
  // from [1 - jitter_fraction, 1 + jitter_fraction], hashed from
  // (jitter_seed, task id, failure index).
  double jitter_fraction = 0.0;
  uint64_t jitter_seed = 0;
  // When true, an exhaustion whose allocation already granted the whole node
  // in the failed dimension is classified permanent and fails immediately —
  // retrying cannot help, the task simply does not fit the hardware.
  bool classify_permanent = false;

  // Decide the fate of a failed attempt. `exhaustions` counts exhaustion
  // failures so far (including this one when kind == kExhaustion);
  // `total_failures` counts all failed attempts including this one.
  RetryDecision decide(FailureKind kind, uint64_t task_id, int exhaustions,
                       int total_failures) const;

  // The (jittered) backoff delay for a task's Nth failure (0-based).
  double backoff_delay(uint64_t task_id, int failure_index) const;

  // True when `resource` was exhausted at an allocation already at (or
  // above) the whole-node capacity in that dimension.
  static bool exhaustion_is_permanent(const alloc::Resources& allocated,
                                      const alloc::Resources& whole_node,
                                      const std::string& resource);
};

}  // namespace lfm::chaos
