// Work Queue master: resource-aware, cache-affine task dispatch over a pool
// of pilot-job workers (paper §III, §VI.B).
//
// The master keeps the ready queue, asks the resource labeler for each
// task's allocation, packs tasks into workers without oversubscribing any
// dimension, and transfers missing input files over the shared network
// model. Task exhaustion (peak usage exceeding the allocation, detected by
// the per-task LFM) kills the attempt, feeds the observation back to the
// labeler, and requeues the task — which then escalates per the strategy's
// retry policy.
//
// The scheduling hot path is index-driven so the master scales to ~100k
// queued tasks on ~1k workers (see DESIGN.md "Indexed scheduler"):
//   - The ready queue is a set of per-group FIFOs (group = category ×
//     attempt × cache signature) merged in global submission order through a
//     small heap. One feasibility probe per group answers for every queued
//     member, so a saturated pool costs O(groups) per dispatch event instead
//     of O(queue × workers). Dequeued/cancelled entries are tombstoned and
//     skipped lazily — no erase-from-middle.
//   - pick_worker consults a worker-availability index ordered by free
//     cores (best-fit = first fitting entry) and an inverted index from
//     input-file name to the workers caching it (cache affinity starts from
//     warm workers instead of rescanning the pool).
//   - cancel_task resolves the task id through a hash map; per-worker
//     in-flight sets make crash_worker proportional to the worker's own
//     load; eviction picks its victim from a per-worker (last_use, name)
//     ordered set instead of rescanning the cache.
// Scheduling decisions are bit-identical to the pre-index linear-scan
// implementation; only their cost changed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/labeler.h"
#include "chaos/injector.h"
#include "chaos/retry.h"
#include "sim/chunkcache.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "wq/task.h"

namespace lfm::chaos {
class Journal;
}  // namespace lfm::chaos

namespace lfm::wq {

struct WorkerSpec {
  alloc::Resources capacity;
  double ready_time = 0.0;  // when the pilot job connects back
};

struct MasterConfig {
  // Dispatch overhead per task at the master (serialization, bookkeeping).
  double dispatch_overhead = 0.005;
  // Prefer workers holding more of the task's cached input bytes.
  bool cache_affinity = true;
  // Fraction of each worker's disk reserved for the file cache; cached
  // files beyond it are evicted LRU (files of running tasks are pinned).
  double cache_fraction = 0.5;
  // Retry/backoff policy for failed attempts (exhaustions, crash-lost and
  // spuriously killed attempts). The default replicates the pre-chaos
  // hardcoded behaviour bit-for-bit: immediate requeue, failure after
  // retry.max_exhaustions exhaustion retries, crashes retried
  // unconditionally.
  chaos::RetryPolicy retry;
  // Content-addressed delta distribution (DESIGN.md §12): inputs carrying a
  // chunk manifest ship only the chunks missing from the worker's local
  // chunk cache; the booked bytes scale by the missing fraction. Off by
  // default — every fig/table schedule is byte-identical with this false.
  bool delta_distribution = false;
  // Fraction of each worker's disk reserved for its chunk cache (delta mode
  // only); evictions model that LocalDisk slice filling up.
  double chunk_cache_fraction = 0.25;
};

struct MasterStats {
  double makespan = 0.0;
  int64_t tasks_completed = 0;
  int64_t tasks_failed = 0;     // exceeded retry.max_exhaustions
  int64_t tasks_cancelled = 0;  // cancelled by the user
  int64_t exhaustion_retries = 0;
  int64_t transfers = 0;
  int64_t transferred_bytes = 0;
  int64_t cache_hits = 0;
  int64_t cache_evictions = 0;
  int64_t spurious_kills = 0;    // attempts lost to injected monitor kills
  int64_t tasks_recovered = 0;   // terminal outcomes replayed from a journal
  // Attempts killed between the labeler's success observation (run end) and
  // the result landing at the master (return end): the labeler learned from
  // them, but the task re-ran. Labeler-consistency checks account for these:
  //   labeler samples == tasks_completed + lost_results.
  int64_t lost_results = 0;
  // Delta distribution accounting (zero unless delta_distribution is on):
  int64_t delta_transfers = 0;        // transfers partially served from chunk caches
  int64_t delta_bytes_saved = 0;      // booked bytes avoided by cached chunks
  int64_t chunk_cache_evictions = 0;  // chunks dropped from full worker caches
  double total_busy_core_seconds = 0.0;     // sum over tasks of alloc.cores*runtime
  double total_capacity_core_seconds = 0.0; // pool core-seconds over makespan
  double utilization() const {
    return total_capacity_core_seconds > 0.0
               ? total_busy_core_seconds / total_capacity_core_seconds
               : 0.0;
  }
};

class Master : public chaos::FaultSink {
 public:
  Master(sim::Simulation& sim, sim::Network& network, alloc::Labeler& labeler,
         MasterConfig config = {});

  // Register a worker; it becomes schedulable at spec.ready_time.
  int add_worker(const WorkerSpec& spec);
  // Submit a task (before or during the run).
  void submit(TaskSpec spec);

  // Optional per-task completion hook.
  void set_on_complete(std::function<void(const TaskRecord&)> fn) {
    on_complete_ = std::move(fn);
  }

  // Run the simulation to completion and return aggregate statistics.
  MasterStats run();

  const std::vector<TaskRecord>& records() const { return records_; }

  // --- load introspection & elasticity (for the Provisioner) ---------------
  // Tasks waiting for a worker.
  int ready_count() const { return ready_count_; }
  // Tasks currently transferring/executing/returning.
  int running_count() const { return running_count_; }
  // Connected, non-retired workers.
  int live_worker_count() const { return live_workers_; }
  // Retire one idle worker (pilot job exits). Returns false when every live
  // worker is busy. Retired workers accept no further tasks.
  bool release_idle_worker();

  // --- failure injection ----------------------------------------------------
  // Kill a worker mid-run: its cache is lost, its in-flight tasks requeue
  // (not counted as exhaustions), and it never accepts tasks again.
  void crash_worker(int worker_id);
  // Cancel a submitted task by id. In-flight attempts are discarded when
  // they finish; queued tasks are dropped immediately. Returns false if the
  // id is unknown or already done.
  bool cancel_task(uint64_t task_id);
  int64_t worker_crashes() const { return worker_crashes_; }

  // --- chaos fault sink (chaos::Injector delivers through these) ------------
  // Selectors are resolved modulo the live state at delivery time; a
  // selector with nothing to land on is a no-op.
  void fault_crash_worker(uint64_t selector, double rejoin_delay) override;
  void fault_worker_speed(uint64_t selector, double factor) override;
  void fault_network_scale(double scale) override;
  void fault_fs_stall(double factor) override;
  void fault_spurious_kill(uint64_t selector) override;

  // --- write-ahead journal & recovery ---------------------------------------
  // Attach a journal; every durable decision from now on is appended before
  // its downstream effects run. Pass nullptr to detach.
  void set_journal(chaos::Journal* journal) { journal_ = journal; }
  // Rebuild scheduler state from a journal on a *fresh* master (no workers,
  // no tasks): live workers re-register, journaled terminal outcomes are
  // replayed as done (stats_.tasks_recovered counts them; on_complete does
  // NOT re-fire), the labeler relearns from the journaled observations, and
  // unfinished tasks are resubmitted with their exhaustion count restored.
  // Attempts that were in flight when the journal ends simply re-run —
  // results are exactly-once because only journaled terminals count.
  void recover(const chaos::Journal& journal);

  // --- cache introspection (tests / diagnostics) ----------------------------
  // True when `worker_id`'s cache currently holds `file_name`.
  bool worker_caches(int worker_id, const std::string& file_name) const;
  // Total bytes currently cached on `worker_id`.
  int64_t worker_cache_bytes(int worker_id) const;
  // Bytes in `worker_id`'s chunk cache (delta distribution; 0 otherwise).
  int64_t worker_chunk_bytes(int worker_id) const;

 private:
  struct CacheEntry {
    int64_t size_bytes = 0;
    double last_use = 0.0;
    int pins = 0;  // running tasks using this file; pinned entries never evict
  };

  struct Worker {
    int id = 0;
    alloc::Resources capacity;
    alloc::Resources available;
    double ready_time = 0.0;
    bool ready = false;
    bool retired = false;
    std::unordered_map<std::string, CacheEntry> cache;
    // Eviction index over the unpinned entries, ordered by (last_use, name)
    // — begin() is exactly the victim the old full-cache scan selected.
    std::set<std::pair<double, std::string>> evictable;
    int64_t cache_bytes = 0;
    int64_t cache_capacity_bytes = 0;
    int running_tasks = 0;
    // Absolute speed factor (fault injection); runtimes divide by it at
    // execution start. 1.0 = nominal, so the multiply is exact when unused.
    double speed = 1.0;
    // Records currently transferring/executing/returning here (ascending, so
    // a crash requeues in the same order the old whole-table scan did).
    std::set<size_t> inflight;
    // Content-addressed chunk cache on this worker's local disk (delta
    // distribution only; empty and untouched otherwise). Lost on crash.
    sim::ChunkCacheModel chunks;
  };

  // Scheduling group: queued tasks of one (category, attempt, cache
  // signature) share an allocation and a warm-worker set, so one
  // feasibility probe per dispatch pass answers for all of them.
  struct GroupKey {
    int category_id = 0;
    int attempt = 0;
    int signature_id = 0;
    bool operator<(const GroupKey& o) const {
      if (category_id != o.category_id) return category_id < o.category_id;
      if (attempt != o.attempt) return attempt < o.attempt;
      return signature_id < o.signature_id;
    }
  };
  struct QueueEntry {
    uint64_t seq = 0;
    size_t record_index = 0;
  };
  struct Group {
    std::deque<QueueEntry> fifo;  // tombstoned entries skipped lazily
    uint64_t blocked_token = 0;   // pass token when last probed infeasible
  };
  // Per-record scheduler state, parallel to records_.
  struct SchedState {
    uint64_t seq = 0;  // global FIFO position while queued
    bool queued = false;
    bool cancelled = false;
    int category_id = -1;
    int signature_id = -1;
  };
  struct Pick {
    int worker_id = -1;
    double cached = 0.0;
  };

  void worker_ready(int worker_id);
  void try_dispatch();
  void run_dispatch_passes();
  void run_pass(bool cached_only);
  void enqueue_ready(size_t record_index);
  // Pop tombstoned entries off the group's FIFO head.
  void advance_head(Group& group);
  bool entry_live(const QueueEntry& e) const {
    return sched_[e.record_index].queued && sched_[e.record_index].seq == e.seq;
  }
  // Mark a queued, cancelled record done (the seed flushed these during its
  // ready-queue scan; here they arrive through cancel_flush_ in seq order).
  void flush_cancelled(size_t record_index);

  int intern_category(const std::string& name);
  int intern_signature(const TaskSpec& spec);

  // --- chaos & recovery helpers ---------------------------------------------
  // Append a task record (shared by submit and recover; recover restores the
  // attempt/exhaustion counters so the group key and retry accounting match).
  size_t submit_record(TaskSpec spec, int attempt, int exhaustions);
  // Re-enter the ready queue now (delay <= 0, the seed code path: no extra
  // simulation event) or after a backoff delay. Tasks cancelled while
  // backing off finalize as cancelled when the delay fires.
  void requeue_after(size_t record_index, double delay);
  // Consult the retry policy for a failed attempt and either requeue or
  // finalize as failed. The caller has already released worker resources.
  void requeue_or_fail(size_t record_index, chaos::FailureKind kind);
  void finalize_failed(size_t record_index, const char* reason);
  // Finalize an idle (not queued, not in-flight) record as cancelled.
  void finalize_cancelled_idle(size_t record_index);

  // --- observability (src/obs) ---------------------------------------------
  // Which lifecycle span is currently open on the task's trace lane (tid =
  // task id), so the crash and cancel paths can close it before the span
  // stack is abandoned. Tracked unconditionally (1-byte stores); trace
  // events themselves are emitted only while the recorder is enabled.
  enum class TracePhase : uint8_t { kNone = 0, kTransfer, kRun };
  void trace_task_begin(size_t record_index);
  void trace_phase_begin(size_t record_index, TracePhase phase, const char* name);
  // Close the open inner phase span, if any.
  void trace_phase_close(size_t record_index);
  // Close the inner phase and the outer task span, stamping the outcome
  // ("completed", "failed", "cancelled") and attempt as end-event args.
  void trace_task_end(size_t record_index, const char* outcome);

  // Bytes of `task`'s inputs NOT cached on `worker`.
  int64_t missing_bytes(const Worker& worker, const TaskSpec& task) const;
  double cached_bytes(const Worker& worker, const TaskSpec& task) const;
  // Index-driven worker choice: warm candidates from the inverted file
  // index first, else best fit from the availability index. Identical
  // outcome to the old all-workers argmax of (-cached, free cores, id).
  std::optional<Pick> pick_worker(const TaskSpec& task, const alloc::Resources& alloc,
                                  int signature_id) const;
  void dispatch(size_t record_index, int worker_id, const alloc::Resources& alloc);
  void start_execution(size_t record_index, int worker_id,
                       const alloc::Resources& alloc, uint64_t epoch);
  void finish_attempt(size_t record_index, int worker_id,
                      const alloc::Resources& alloc, bool exhausted,
                      const std::string& exhausted_resource, double runtime,
                      uint64_t epoch);
  void release(size_t record_index, int worker_id, const alloc::Resources& alloc);
  // True when this attempt was invalidated by a worker crash.
  bool stale(size_t record_index, uint64_t epoch) const {
    return attempt_epoch_[record_index] != epoch;
  }
  bool is_cancelled(size_t record_index) const {
    return sched_[record_index].cancelled;
  }
  void finish_cancelled(size_t record_index, int worker_id,
                        const alloc::Resources& alloc);
  // Unpin the task's cacheable inputs on its worker.
  void unpin_inputs(int worker_id, const TaskSpec& spec);
  // Make room for `bytes` in the worker's cache, evicting LRU unpinned
  // entries. Returns false when the file cannot be cached at all.
  bool make_cache_room(Worker& worker, int64_t bytes);
  void cache_insert(Worker& worker, const std::string& name, int64_t size_bytes);

  // Availability-index maintenance around mutations of Worker::available.
  void avail_erase(const Worker& worker);
  void avail_insert(const Worker& worker);

  sim::Simulation& sim_;
  sim::Network& network_;
  alloc::Labeler& labeler_;
  MasterConfig config_;
  chaos::Journal* journal_ = nullptr;
  // Fault-injection multiplier on per-dispatch filesystem costs (unpack +
  // dispatch overhead). 1.0 = nominal; the multiply is exact when unused.
  double fs_stall_factor_ = 1.0;

  std::vector<Worker> workers_;
  std::vector<TaskRecord> records_;
  std::vector<SchedState> sched_;
  MasterStats stats_;
  std::function<void(const TaskRecord&)> on_complete_;
  bool dispatch_scheduled_ = false;
  double first_ready_time_ = 0.0;
  int ready_count_ = 0;
  int running_count_ = 0;
  int live_workers_ = 0;
  int64_t worker_crashes_ = 0;
  // Attempts invalidated by a worker crash: (record index, epoch) pairs.
  std::vector<uint64_t> attempt_epoch_;
  // Open trace phase per record (TracePhase), parallel to records_.
  std::vector<uint8_t> obs_phase_;

  // --- scheduler indexes ----------------------------------------------------
  std::map<GroupKey, Group> groups_;  // node-stable: Group* live across inserts
  uint64_t next_seq_ = 0;
  // Queued-and-cancelled records awaiting their seq-ordered flush.
  std::priority_queue<std::pair<uint64_t, size_t>,
                      std::vector<std::pair<uint64_t, size_t>>,
                      std::greater<std::pair<uint64_t, size_t>>>
      cancel_flush_;
  // (free cores, id) over ready, non-retired workers.
  std::set<std::pair<double, int>> avail_index_;
  // Ready, non-retired workers with no running tasks (for release_idle_worker).
  std::set<int> idle_workers_;
  // Inverted cache index: file name -> ids of workers caching it.
  std::unordered_map<std::string, std::set<int>> file_holders_;
  // task id -> records_ index (first submission wins, as the old scan did).
  std::unordered_map<uint64_t, size_t> record_by_task_id_;
  std::unordered_map<std::string, int> category_ids_;
  std::map<std::vector<std::string>, int> signature_ids_;
  std::vector<std::vector<std::string>> signatures_;  // id -> sorted file names

  // --- per-pass scratch -----------------------------------------------------
  uint64_t pass_token_ = 0;
  bool in_pass_ = false;
  bool pass_grew_ = false;  // entries enqueued re-entrantly during the pass
  // Files newly cached by dispatches within the current cached-only pass;
  // groups blocked for lack of a warm worker are re-probed when one of
  // their signature files lands in a cache mid-pass.
  std::vector<std::string> newly_cached_names_;
  std::unordered_map<std::string, std::vector<Group*>> blocked_by_file_;
};

// Convenience: run one workload under one strategy and report stats.
struct ScenarioResult {
  MasterStats stats;
  alloc::Strategy strategy;
};

ScenarioResult run_scenario(alloc::Strategy strategy, const alloc::LabelerConfig& base,
                            const std::vector<WorkerSpec>& workers,
                            std::vector<TaskSpec> tasks,
                            const sim::NetworkParams& net_params = {},
                            const MasterConfig& master_config = {});

}  // namespace lfm::wq
