#include "wq/master.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "chaos/journal.h"
#include "obs/recorder.h"
#include "util/log.h"
#include "util/strings.h"

namespace lfm::wq {

namespace {

// The simulated master's series; every Master instance shares them
// (scenario sweeps clear between runs when they care).
obs::Count wq_tasks_submitted{"wq.tasks_submitted"};
obs::Count wq_tasks_dispatched{"wq.tasks_dispatched"};
obs::Count wq_tasks_completed{"wq.tasks_completed"};
obs::Count wq_tasks_failed{"wq.tasks_failed"};
obs::Count wq_tasks_cancelled{"wq.tasks_cancelled"};
obs::Count wq_exhaustions{"wq.exhaustions"};
obs::Count wq_cache_hits{"wq.cache_hits"};
obs::Count wq_cache_evictions{"wq.cache_evictions"};
obs::Count wq_worker_crashes{"wq.worker_crashes"};
obs::Spread wq_first_dispatch_wait_seconds{"wq.first_dispatch_wait_seconds"};
obs::Spread wq_run_seconds{"wq.run_seconds"};
obs::Spread wq_turnaround_seconds{"wq.turnaround_seconds"};

// Environment delivery under delta distribution: full and delta transfers,
// bytes shipped and saved, chunk-cache evictions.
obs::Count dist_delta_transfers{"dist.delta_transfers"};
obs::Count dist_full_transfers{"dist.full_transfers"};
obs::Count dist_bytes_shipped{"dist.bytes_shipped"};
obs::Count dist_bytes_saved{"dist.bytes_saved"};
obs::Count dist_chunk_evictions{"dist.chunk_evictions"};
obs::Spread dist_miss_fraction{"dist.miss_fraction", 1e-6, 1.0, 48};

}  // namespace

Master::Master(sim::Simulation& sim, sim::Network& network, alloc::Labeler& labeler,
               MasterConfig config)
    : sim_(sim), network_(network), labeler_(labeler), config_(config) {}

void Master::trace_task_begin(size_t record_index) {
  if (!obs::Recorder::enabled()) return;
  const TaskRecord& rec = records_[record_index];
  obs::Recorder::global().begin(obs::kPidSim, rec.spec.id, sim_.now(), "task", "task");
}

void Master::trace_phase_begin(size_t record_index, TracePhase phase, const char* name) {
  obs_phase_[record_index] = static_cast<uint8_t>(phase);
  if (!obs::Recorder::enabled()) return;
  obs::Recorder::global().begin(obs::kPidSim, records_[record_index].spec.id, sim_.now(),
                                name, "task");
}

void Master::trace_phase_close(size_t record_index) {
  if (obs_phase_[record_index] == static_cast<uint8_t>(TracePhase::kNone)) return;
  obs_phase_[record_index] = static_cast<uint8_t>(TracePhase::kNone);
  if (!obs::Recorder::enabled()) return;
  obs::Recorder::global().end(obs::kPidSim, records_[record_index].spec.id, sim_.now());
}

void Master::trace_task_end(size_t record_index, const char* outcome) {
  trace_phase_close(record_index);
  if (!obs::Recorder::enabled()) return;
  const TaskRecord& rec = records_[record_index];
  obs::Recorder::global().end(obs::kPidSim, rec.spec.id, sim_.now(), "outcome",
                              outcome, "attempt", static_cast<double>(rec.attempt));
}

void Master::avail_erase(const Worker& worker) {
  avail_index_.erase({worker.available.cores, worker.id});
}

void Master::avail_insert(const Worker& worker) {
  if (worker.ready && !worker.retired) {
    avail_index_.insert({worker.available.cores, worker.id});
  }
}

int Master::add_worker(const WorkerSpec& spec) {
  Worker w;
  w.id = static_cast<int>(workers_.size());
  w.capacity = spec.capacity;
  w.available = spec.capacity;
  w.ready_time = spec.ready_time;
  w.cache_capacity_bytes = static_cast<int64_t>(
      std::max(0.0, spec.capacity.disk_bytes * config_.cache_fraction));
  if (config_.delta_distribution) {
    w.chunks.set_capacity(static_cast<int64_t>(
        std::max(0.0, spec.capacity.disk_bytes * config_.chunk_cache_fraction)));
  }
  // A worker whose ready time has already passed is visible immediately —
  // otherwise observers polling at this same timestamp (the provisioner)
  // would undercount the pool and over-provision.
  if (spec.ready_time <= sim_.now()) w.ready = true;
  workers_.push_back(std::move(w));
  const int id = workers_.back().id;
  if (journal_) {
    journal_->worker_added(id, workers_.back().capacity, spec.ready_time, sim_.now());
  }
  if (workers_.back().ready) {
    ++live_workers_;
    avail_insert(workers_.back());
    idle_workers_.insert(id);
    try_dispatch();
  } else {
    sim_.schedule_at(spec.ready_time, [this, id] { worker_ready(id); });
  }
  return id;
}

int Master::intern_category(const std::string& name) {
  const auto [it, inserted] =
      category_ids_.emplace(name, static_cast<int>(category_ids_.size()));
  (void)inserted;
  return it->second;
}

int Master::intern_signature(const TaskSpec& spec) {
  std::vector<std::string> names;
  for (const auto& f : spec.inputs) {
    if (f.cacheable) names.push_back(f.name);
  }
  std::sort(names.begin(), names.end());
  const auto [it, inserted] =
      signature_ids_.emplace(std::move(names), static_cast<int>(signatures_.size()));
  if (inserted) signatures_.push_back(it->first);
  return it->second;
}

void Master::submit(TaskSpec spec) { submit_record(std::move(spec), 0, 0); }

size_t Master::submit_record(TaskSpec spec, int attempt, int exhaustions) {
  TaskRecord rec;
  rec.spec = std::move(spec);
  rec.submit_time = sim_.now();
  rec.attempt = attempt;
  rec.exhaustions = exhaustions;
  records_.push_back(std::move(rec));
  attempt_epoch_.push_back(0);
  obs_phase_.push_back(static_cast<uint8_t>(TracePhase::kNone));
  const size_t index = records_.size() - 1;
  if (journal_) journal_->submitted(records_[index].spec, sim_.now());
  trace_task_begin(index);
  wq_tasks_submitted.add();
  SchedState state;
  state.category_id = intern_category(records_[index].spec.category);
  state.signature_id = intern_signature(records_[index].spec);
  sched_.push_back(std::move(state));
  record_by_task_id_.emplace(records_[index].spec.id, index);
  enqueue_ready(index);
  try_dispatch();
  return index;
}

void Master::enqueue_ready(size_t record_index) {
  SchedState& state = sched_[record_index];
  state.seq = next_seq_++;
  state.queued = true;
  ++ready_count_;
  const GroupKey key{state.category_id, records_[record_index].attempt,
                     state.signature_id};
  groups_[key].fifo.push_back({state.seq, record_index});
  if (in_pass_) pass_grew_ = true;
}

void Master::worker_ready(int worker_id) {
  Worker& worker = workers_[static_cast<size_t>(worker_id)];
  if (worker.retired) return;  // crashed before the pilot connected
  worker.ready = true;
  ++live_workers_;
  avail_insert(worker);
  if (worker.running_tasks == 0) idle_workers_.insert(worker.id);
  try_dispatch();
}

int64_t Master::missing_bytes(const Worker& worker, const TaskSpec& task) const {
  int64_t bytes = 0;
  for (const auto& f : task.inputs) {
    if (!f.cacheable || worker.cache.count(f.name) == 0) bytes += f.size_bytes;
  }
  return bytes;
}

double Master::cached_bytes(const Worker& worker, const TaskSpec& task) const {
  double bytes = 0;
  for (const auto& f : task.inputs) {
    if (f.cacheable && worker.cache.count(f.name) > 0) {
      bytes += static_cast<double>(f.size_bytes);
    }
  }
  return bytes;
}

bool Master::make_cache_room(Worker& worker, int64_t bytes) {
  if (bytes > worker.cache_capacity_bytes) return false;  // never cacheable
  while (worker.cache_bytes + bytes > worker.cache_capacity_bytes) {
    // Evict the least-recently-used unpinned entry: the eviction index is
    // ordered by (last_use, name), so the victim is simply its minimum.
    if (worker.evictable.empty()) return false;  // everything pinned
    const auto victim = worker.evictable.begin();
    const auto it = worker.cache.find(victim->second);
    worker.cache_bytes -= it->second.size_bytes;
    const auto holders = file_holders_.find(victim->second);
    if (holders != file_holders_.end()) {
      holders->second.erase(worker.id);
      if (holders->second.empty()) file_holders_.erase(holders);
    }
    worker.cache.erase(it);
    worker.evictable.erase(victim);
    ++stats_.cache_evictions;
    wq_cache_evictions.add();
  }
  return true;
}

void Master::cache_insert(Worker& worker, const std::string& name,
                          int64_t size_bytes) {
  CacheEntry entry;
  entry.size_bytes = size_bytes;
  entry.last_use = sim_.now();
  entry.pins = 1;  // pinned by the dispatching task; not evictable yet
  worker.cache.emplace(name, entry);
  worker.cache_bytes += size_bytes;
  file_holders_[name].insert(worker.id);
  if (in_pass_) newly_cached_names_.push_back(name);
}

void Master::unpin_inputs(int worker_id, const TaskSpec& spec) {
  Worker& worker = workers_[static_cast<size_t>(worker_id)];
  for (const auto& f : spec.inputs) {
    if (!f.cacheable) continue;
    const auto it = worker.cache.find(f.name);
    if (it != worker.cache.end() && it->second.pins > 0) {
      it->second.pins -= 1;
      if (it->second.pins == 0) {
        worker.evictable.insert({it->second.last_use, f.name});
      }
    }
  }
}

std::optional<Master::Pick> Master::pick_worker(const TaskSpec& task,
                                                const alloc::Resources& alloc,
                                                int signature_id) const {
  // Warm path: only workers already caching one of the task's cacheable
  // inputs can score cached > 0, and the inverted index names exactly them.
  if (config_.cache_affinity && signature_id >= 0 &&
      !signatures_[static_cast<size_t>(signature_id)].empty()) {
    std::vector<int> candidates;
    for (const auto& name : signatures_[static_cast<size_t>(signature_id)]) {
      const auto holders = file_holders_.find(name);
      if (holders == file_holders_.end()) continue;
      candidates.insert(candidates.end(), holders->second.begin(),
                        holders->second.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::optional<int> best;
    double best_cached = -1.0;
    double best_free_cores = 1e300;
    for (const int id : candidates) {
      const Worker& w = workers_[static_cast<size_t>(id)];
      if (!w.ready || w.retired || !alloc.fits_in(w.available)) continue;
      const double cached = cached_bytes(w, task);
      // Prefer more cached bytes; tie-break to the most-loaded fitting
      // worker (best fit keeps large holes open for big tasks).
      if (cached > best_cached ||
          (cached == best_cached && w.available.cores < best_free_cores)) {
        best = id;
        best_cached = cached;
        best_free_cores = w.available.cores;
      }
    }
    if (best && best_cached > 0.0) return Pick{*best, best_cached};
    // All fitting workers score cached == 0: the argmax over the whole pool
    // degenerates to best fit, served by the availability index below.
  }
  // Cold path: workers ordered by (free cores, id); the first fitting entry
  // is the least-loaded-enough worker — the same min the full scan found.
  for (auto it = avail_index_.lower_bound({alloc.cores, INT_MIN});
       it != avail_index_.end(); ++it) {
    const Worker& w = workers_[static_cast<size_t>(it->second)];
    if (alloc.fits_in(w.available)) return Pick{w.id, 0.0};
  }
  return std::nullopt;
}

void Master::try_dispatch() {
  if (dispatch_scheduled_) return;
  dispatch_scheduled_ = true;
  sim_.schedule(0.0, [this] {
    dispatch_scheduled_ = false;
    run_dispatch_passes();
  });
}

void Master::run_dispatch_passes() {
  // Two passes when cache affinity is on: first dispatch queued tasks
  // whose cacheable inputs are already warm on a free worker (so a freed
  // slot goes to a matching task even if it is not at the queue head),
  // then plain FIFO for the rest. One FIFO pass otherwise.
  const int passes = config_.cache_affinity ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    const bool cached_only = config_.cache_affinity && pass == 0;
    run_pass(cached_only);
  }
  // Groups are only erased here, outside any pass, because the pass scratch
  // (blocked_by_file_, the heads heap) holds raw Group pointers.
  for (auto it = groups_.begin(); it != groups_.end();) {
    advance_head(it->second);
    it = it->second.fifo.empty() ? groups_.erase(it) : std::next(it);
  }
}

void Master::advance_head(Group& group) {
  while (!group.fifo.empty() && !entry_live(group.fifo.front())) {
    group.fifo.pop_front();
  }
}

void Master::flush_cancelled(size_t record_index) {
  TaskRecord& rec = records_[record_index];
  rec.state = TaskState::kDone;
  ++stats_.tasks_cancelled;
  if (journal_) journal_->cancelled(rec.spec.id, sim_.now());
  sched_[record_index].queued = false;
  --ready_count_;
  trace_task_end(record_index, "cancelled");
  wq_tasks_cancelled.add();
  if (on_complete_) on_complete_(rec);
}

void Master::run_pass(bool cached_only) {
  ++pass_token_;
  in_pass_ = true;
  pass_grew_ = false;
  blocked_by_file_.clear();
  newly_cached_names_.clear();

  // Min-heap of (head seq, group): groups are visited in global submission
  // order, which is exactly the order the old linear queue scan probed
  // entries — skipping a blocked group stands in for individually skipping
  // each of its members, since they share allocation and warm-worker set.
  using Head = std::pair<uint64_t, Group*>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  const auto push_group = [&heads](Group& g) {
    if (!g.fifo.empty()) heads.push({g.fifo.front().seq, &g});
  };
  for (auto& [key, group] : groups_) {
    advance_head(group);
    push_group(group);
  }

  while (true) {
    // Cancelled queued tasks flush in seq order, interleaved with dispatch
    // exactly as the old scan encountered them (ties go to the flush: the
    // old code checked is_cancelled before probing the entry).
    if (!cancel_flush_.empty() &&
        (heads.empty() || cancel_flush_.top().first <= heads.top().first)) {
      const auto [seq, record_index] = cancel_flush_.top();
      cancel_flush_.pop();
      const SchedState& state = sched_[record_index];
      if (state.queued && state.cancelled && state.seq == seq) {
        flush_cancelled(record_index);
      }
      continue;
    }
    if (heads.empty()) {
      // Re-entrant submissions (an on_complete hook submitting from inside
      // the flush above) append to the queue tail; the old scan picked them
      // up in the same pass, so rebuild the heads heap and keep going.
      if (pass_grew_) {
        pass_grew_ = false;
        for (auto& [key, group] : groups_) {
          advance_head(group);
          if (group.blocked_token != pass_token_) push_group(group);
        }
        if (!heads.empty() || !cancel_flush_.empty()) continue;
      }
      break;
    }

    const auto [seq, group] = heads.top();
    heads.pop();
    advance_head(*group);
    if (group->fifo.empty()) continue;
    if (group->fifo.front().seq != seq) {  // stale heap entry; reposition
      push_group(*group);
      continue;
    }
    if (group->blocked_token == pass_token_) continue;

    const size_t record_index = group->fifo.front().record_index;
    const TaskRecord& rec = records_[record_index];
    const alloc::Resources alloc =
        labeler_.allocation(rec.spec.category, rec.attempt);
    const auto pick =
        pick_worker(rec.spec, alloc, sched_[record_index].signature_id);
    if (!pick || (cached_only && pick->cached <= 0.0)) {
      // Infeasible for every member this pass: availability only shrinks
      // while the pass runs. The one exception — a mid-pass dispatch caching
      // one of this group's signature files on some worker — re-probes below.
      group->blocked_token = pass_token_;
      if (cached_only) {
        for (const auto& name :
             signatures_[static_cast<size_t>(sched_[record_index].signature_id)]) {
          blocked_by_file_[name].push_back(group);
        }
      }
      continue;
    }

    sched_[record_index].queued = false;
    --ready_count_;
    group->fifo.pop_front();
    dispatch(record_index, pick->worker_id, alloc);

    if (cached_only && !newly_cached_names_.empty()) {
      for (const auto& name : newly_cached_names_) {
        const auto it = blocked_by_file_.find(name);
        if (it == blocked_by_file_.end()) continue;
        for (Group* blocked : it->second) {
          if (blocked->blocked_token == pass_token_) {
            blocked->blocked_token = 0;
            advance_head(*blocked);
            push_group(*blocked);
          }
        }
        blocked_by_file_.erase(it);
      }
      newly_cached_names_.clear();
    }
    advance_head(*group);
    push_group(*group);
  }

  in_pass_ = false;
  newly_cached_names_.clear();
}

void Master::dispatch(size_t record_index, int worker_id,
                      const alloc::Resources& alloc) {
  TaskRecord& rec = records_[record_index];
  Worker& worker = workers_[static_cast<size_t>(worker_id)];
  avail_erase(worker);
  worker.available -= alloc;
  avail_insert(worker);
  if (worker.running_tasks == 0) idle_workers_.erase(worker.id);
  worker.running_tasks += 1;
  worker.inflight.insert(record_index);
  ++running_count_;
  rec.state = TaskState::kTransferring;
  rec.worker_id = worker_id;
  rec.last_allocation = alloc;
  if (journal_) {
    journal_->dispatched(rec.spec.id, worker_id, rec.attempt, alloc, sim_.now());
  }
  wq_tasks_dispatched.add();
  if (rec.start_time < 0.0) {
    wq_first_dispatch_wait_seconds.observe(sim_.now() - rec.submit_time);
  }
  if (obs::Recorder::enabled()) {
    // The label decision as applied: allocated cores and the retry attempt.
    obs::Recorder::global().instant(obs::kPidSim, rec.spec.id, sim_.now(),
                                    rec.attempt == 0 ? "label" : "label-retry",
                                    "alloc", nullptr, {}, "cores", alloc.cores);
  }
  if (rec.start_time < 0.0) rec.start_time = sim_.now();
  trace_phase_begin(record_index, TracePhase::kTransfer, "transfer");

  // Transfer the inputs this worker lacks; cacheable files enter the cache
  // (and pay their one-time unpack cost), pinned while the task runs.
  // Files too large for the cache (or with everything pinned) stream
  // through and are paid for again next time.
  int64_t bytes = 0;
  double unpack = 0.0;
  for (const auto& f : rec.spec.inputs) {
    const auto cached = worker.cache.find(f.name);
    if (f.cacheable && cached != worker.cache.end()) {
      ++stats_.cache_hits;
      wq_cache_hits.add();
      CacheEntry& entry = cached->second;
      if (entry.pins == 0) worker.evictable.erase({entry.last_use, f.name});
      entry.last_use = sim_.now();
      entry.pins += 1;
      continue;
    }
    int64_t shipped = f.size_bytes;
    if (config_.delta_distribution && f.manifest) {
      // Book only the chunks this worker's local chunk cache misses. The
      // declared size scales by the missing fraction, so a fully cold fetch
      // books exactly size_bytes and a fully warm sibling books ~0.
      const int64_t total = f.manifest->total_bytes();
      const int64_t missing = worker.chunks.missing_bytes(*f.manifest);
      const bool partial = total > 0 && missing < total;
      if (partial) {
        const double fraction =
            static_cast<double>(missing) / static_cast<double>(total);
        shipped = static_cast<int64_t>(
            std::llround(static_cast<double>(f.size_bytes) * fraction));
        ++stats_.delta_transfers;
        stats_.delta_bytes_saved += f.size_bytes - shipped;
      }
      const int64_t evictions_before = worker.chunks.evictions();
      worker.chunks.admit(*f.manifest);  // the fetched chunks land on disk
      const int64_t evicted = worker.chunks.evictions() - evictions_before;
      stats_.chunk_cache_evictions += evicted;
      (partial ? dist_delta_transfers : dist_full_transfers).add();
      dist_bytes_shipped.add(shipped);
      if (partial) {
        dist_bytes_saved.add(f.size_bytes - shipped);
        dist_miss_fraction.observe(static_cast<double>(missing) /
                                   static_cast<double>(total));
      }
      if (evicted > 0) dist_chunk_evictions.add(evicted);
    }
    bytes += shipped;
    if (f.cacheable) {
      unpack += f.unpack_seconds;
      if (make_cache_room(worker, f.size_bytes)) {
        cache_insert(worker, f.name, f.size_bytes);
      }
    }
  }

  const double overhead = config_.dispatch_overhead;
  // fs_stall_factor_ is 1.0 outside an injected stall window, so the
  // multiply is exact and the chaos-off event schedule is unchanged.
  const double extra = (unpack + overhead) * fs_stall_factor_;
  const uint64_t epoch = ++attempt_epoch_[record_index];
  if (bytes > 0) {
    ++stats_.transfers;
    stats_.transferred_bytes += bytes;
    network_.transfer(bytes, [this, record_index, worker_id, alloc, extra, epoch] {
      if (stale(record_index, epoch)) return;
      sim_.schedule(extra, [this, record_index, worker_id, alloc, epoch] {
        start_execution(record_index, worker_id, alloc, epoch);
      });
    });
  } else {
    sim_.schedule(extra, [this, record_index, worker_id, alloc, epoch] {
      start_execution(record_index, worker_id, alloc, epoch);
    });
  }
}

void Master::start_execution(size_t record_index, int worker_id,
                             const alloc::Resources& alloc, uint64_t epoch) {
  if (stale(record_index, epoch)) return;
  if (is_cancelled(record_index)) {
    finish_cancelled(record_index, worker_id, alloc);
    return;
  }
  TaskRecord& rec = records_[record_index];
  rec.state = TaskState::kRunning;
  trace_phase_close(record_index);  // transfer
  trace_phase_begin(record_index, TracePhase::kRun, "run");
  const TaskSpec& spec = rec.spec;

  // Cores are compressible: granting fewer cores than the task can use
  // stretches the runtime. Memory/disk are incompressible: exceeding the
  // allocation kills the attempt at the moment the peak occurs.
  const double granted_cores = std::max(std::min(alloc.cores, spec.true_cores), 0.25);
  // Worker speed is 1.0 unless a straggler fault is active, so the divide is
  // exact in the chaos-off configuration.
  const double runtime = spec.exec_seconds * (spec.true_cores / granted_cores) /
                         workers_[static_cast<size_t>(worker_id)].speed;

  std::string exhausted_resource;
  if (spec.true_peak.memory_bytes > alloc.memory_bytes) {
    exhausted_resource = "memory";
  } else if (spec.true_peak.disk_bytes > alloc.disk_bytes) {
    exhausted_resource = "disk";
  }

  const bool exhausted = !exhausted_resource.empty();
  const double duration = exhausted ? runtime * spec.peak_fraction : runtime;
  sim_.schedule(duration, [this, record_index, worker_id, alloc, exhausted,
                           exhausted_resource, duration, epoch] {
    finish_attempt(record_index, worker_id, alloc, exhausted, exhausted_resource,
                   duration, epoch);
  });
}

void Master::finish_cancelled(size_t record_index, int worker_id,
                              const alloc::Resources& alloc) {
  TaskRecord& rec = records_[record_index];
  rec.state = TaskState::kDone;
  ++stats_.tasks_cancelled;
  if (journal_) journal_->cancelled(rec.spec.id, sim_.now());
  trace_task_end(record_index, "cancelled");
  wq_tasks_cancelled.add();
  unpin_inputs(worker_id, rec.spec);
  release(record_index, worker_id, alloc);
  if (on_complete_) on_complete_(rec);
}

void Master::finish_attempt(size_t record_index, int worker_id,
                            const alloc::Resources& alloc, bool exhausted,
                            const std::string& exhausted_resource, double runtime,
                            uint64_t epoch) {
  if (stale(record_index, epoch)) return;
  if (is_cancelled(record_index)) {
    finish_cancelled(record_index, worker_id, alloc);
    return;
  }
  TaskRecord& rec = records_[record_index];
  stats_.total_busy_core_seconds += alloc.cores * runtime;
  trace_phase_close(record_index);  // run

  if (exhausted) {
    ++rec.exhaustions;
    ++stats_.exhaustion_retries;
    wq_exhaustions.add();
    if (obs::Recorder::enabled()) {
      obs::Recorder::global().instant(obs::kPidSim, rec.spec.id, sim_.now(),
                                      "exhausted", "task", "resource",
                                      exhausted_resource, "attempt",
                                      static_cast<double>(rec.attempt));
    }
    labeler_.observe_exhaustion(rec.spec.category, alloc, exhausted_resource);
    if (journal_) {
      journal_->observed_exhaustion(rec.spec.id, rec.spec.category, alloc,
                                    exhausted_resource, sim_.now());
    }
    unpin_inputs(worker_id, rec.spec);
    release(record_index, worker_id, alloc);
    // An exhaustion at an allocation already granting the whole node in the
    // failed dimension cannot be retried away: the task does not fit.
    if (config_.retry.classify_permanent &&
        chaos::RetryPolicy::exhaustion_is_permanent(
            alloc, labeler_.config().whole_node, exhausted_resource)) {
      finalize_failed(record_index, "permanent-exhaustion");
      return;
    }
    const chaos::RetryDecision decision = config_.retry.decide(
        chaos::FailureKind::kExhaustion, rec.spec.id, rec.exhaustions,
        rec.exhaustions + rec.requeues);
    if (!decision.retry) {
      finalize_failed(record_index, decision.reason);
      return;
    }
    rec.attempt += 1;
    rec.state = TaskState::kWaiting;
    requeue_after(record_index, decision.delay);
    return;
  }

  // Success: report observed usage to the labeler, send output back.
  alloc::Resources observed = rec.spec.true_peak;
  // The LFM can only observe parallelism up to the granted cores.
  observed.cores = std::min(observed.cores, alloc.cores);
  labeler_.observe_success(rec.spec.category, observed);
  wq_run_seconds.observe(runtime);

  rec.state = TaskState::kReturning;
  // The result return rides inside the still-open "task" span (its end time
  // is the return completion); no dedicated span — dispatch-path event
  // volume is the observability overhead budget.
  const int64_t out = rec.spec.output_bytes;
  const auto complete = [this, record_index, worker_id, alloc, observed, epoch] {
    if (stale(record_index, epoch)) return;
    TaskRecord& r = records_[record_index];
    r.state = TaskState::kDone;
    r.finish_time = sim_.now();
    ++stats_.tasks_completed;
    // Write-ahead: the terminal record lands before any downstream effect
    // (the completion callback). A master that dies after this line owes the
    // user nothing for this task; one that dies before it re-runs the attempt.
    if (journal_) journal_->completed(r.spec.id, observed, sim_.now());
    trace_task_end(record_index, "completed");
    wq_tasks_completed.add();
    wq_turnaround_seconds.observe(r.finish_time - r.submit_time);
    unpin_inputs(worker_id, r.spec);
    release(record_index, worker_id, alloc);
    if (on_complete_) on_complete_(r);
  };
  if (out > 0) {
    ++stats_.transfers;
    stats_.transferred_bytes += out;
    network_.transfer(out, complete);
  } else {
    sim_.schedule(0.0, complete);
  }
}

void Master::release(size_t record_index, int worker_id,
                     const alloc::Resources& alloc) {
  Worker& worker = workers_[static_cast<size_t>(worker_id)];
  avail_erase(worker);
  worker.available += alloc;
  avail_insert(worker);
  worker.running_tasks -= 1;
  worker.inflight.erase(record_index);
  if (worker.running_tasks == 0 && worker.ready && !worker.retired) {
    idle_workers_.insert(worker.id);
  }
  --running_count_;
  if (running_count_ < 0 || worker.running_tasks < 0) {
    throw Error("Master: running-task accounting went negative (double release)");
  }
  try_dispatch();
}

bool Master::release_idle_worker() {
  if (idle_workers_.empty()) return false;
  Worker& worker = workers_[static_cast<size_t>(*idle_workers_.begin())];
  idle_workers_.erase(idle_workers_.begin());
  avail_erase(worker);
  worker.retired = true;
  --live_workers_;
  if (journal_) journal_->worker_lost(worker.id, sim_.now());
  return true;
}

void Master::crash_worker(int worker_id) {
  // Out-of-range ids (stale provisioner handles, fuzzed fault selectors) are
  // a logged no-op rather than out-of-bounds vector access.
  if (worker_id < 0 || worker_id >= static_cast<int>(workers_.size())) {
    LFM_WARN("wq", "crash_worker: unknown worker id " +
                       std::to_string(worker_id) + " (pool size " +
                       std::to_string(workers_.size()) + "); ignoring");
    return;
  }
  Worker& worker = workers_[static_cast<size_t>(worker_id)];
  if (worker.retired) return;
  if (journal_) journal_->worker_lost(worker_id, sim_.now());
  if (worker.ready) --live_workers_;
  avail_erase(worker);
  idle_workers_.erase(worker.id);
  worker.retired = true;
  worker.ready = false;
  for (const auto& [name, entry] : worker.cache) {  // node-local storage is gone
    const auto holders = file_holders_.find(name);
    if (holders != file_holders_.end()) {
      holders->second.erase(worker.id);
      if (holders->second.empty()) file_holders_.erase(holders);
    }
  }
  worker.cache.clear();
  worker.evictable.clear();
  worker.cache_bytes = 0;
  worker.chunks.clear();  // the chunk cache lives on the same lost disk
  ++worker_crashes_;
  wq_worker_crashes.add();
  if (obs::Recorder::enabled()) {
    obs::Recorder::global().instant(obs::kPidSim, 0, sim_.now(), "worker-crash",
                                    "worker", nullptr, {}, "worker_id",
                                    static_cast<double>(worker_id));
  }

  // Invalidate and requeue every in-flight attempt on this worker. The lost
  // attempt is not an exhaustion — the labeler learns nothing from it. The
  // per-worker in-flight set (ascending) replaces the old scan over every
  // record ever submitted, preserving its requeue order.
  const std::vector<size_t> inflight(worker.inflight.begin(), worker.inflight.end());
  worker.inflight.clear();
  for (const size_t i : inflight) {
    TaskRecord& rec = records_[i];
    ++attempt_epoch_[i];  // orphan the scheduled completion events
    --running_count_;
    if (running_count_ < 0) {
      throw Error("Master: running count went negative in crash_worker");
    }
    // A crash during result return loses a result the labeler already
    // observed; the rerun will observe again.
    if (rec.state == TaskState::kReturning) ++stats_.lost_results;
    rec.state = TaskState::kWaiting;
    rec.worker_id = -1;
    trace_phase_close(i);  // the interrupted transfer/run span
    if (is_cancelled(i)) {
      finalize_cancelled_idle(i);
      continue;
    }
    if (obs::Recorder::enabled()) {
      obs::Recorder::global().instant(obs::kPidSim, rec.spec.id, sim_.now(),
                                      "crash-requeue", "task");
    }
    rec.requeues += 1;
    requeue_or_fail(i, chaos::FailureKind::kWorkerCrash);
  }
  worker.running_tasks = 0;
  worker.available = worker.capacity;
  try_dispatch();
}

void Master::finalize_failed(size_t record_index, const char* reason) {
  TaskRecord& rec = records_[record_index];
  rec.state = TaskState::kDone;
  ++stats_.tasks_failed;
  if (journal_) journal_->failed(rec.spec.id, reason, sim_.now());
  trace_task_end(record_index, "failed");
  wq_tasks_failed.add();
  if (on_complete_) on_complete_(rec);
}

void Master::finalize_cancelled_idle(size_t record_index) {
  TaskRecord& rec = records_[record_index];
  rec.state = TaskState::kDone;
  ++stats_.tasks_cancelled;
  if (journal_) journal_->cancelled(rec.spec.id, sim_.now());
  trace_task_end(record_index, "cancelled");
  wq_tasks_cancelled.add();
  if (on_complete_) on_complete_(rec);
}

void Master::requeue_after(size_t record_index, double delay) {
  if (delay <= 0.0) {
    // The seed code path: straight back into the ready queue, no extra
    // simulation event — keeps the chaos-off event schedule identical.
    enqueue_ready(record_index);
    try_dispatch();
    return;
  }
  sim_.schedule(delay, [this, record_index] {
    // While backing off the record is neither queued nor in flight; only a
    // user cancellation can reach it, and it resolves here.
    if (is_cancelled(record_index)) {
      finalize_cancelled_idle(record_index);
      return;
    }
    enqueue_ready(record_index);
    try_dispatch();
  });
}

void Master::requeue_or_fail(size_t record_index, chaos::FailureKind kind) {
  TaskRecord& rec = records_[record_index];
  const chaos::RetryDecision decision = config_.retry.decide(
      kind, rec.spec.id, rec.exhaustions, rec.exhaustions + rec.requeues);
  if (!decision.retry) {
    finalize_failed(record_index, decision.reason);
    return;
  }
  rec.state = TaskState::kWaiting;
  requeue_after(record_index, decision.delay);
}

void Master::fault_crash_worker(uint64_t selector, double rejoin_delay) {
  if (workers_.empty()) return;
  const int id = static_cast<int>(selector % workers_.size());
  Worker& worker = workers_[static_cast<size_t>(id)];
  if (worker.retired) {
    // Routine under a hostile campaign: the schedule outlives its victims.
    LFM_DEBUG("wq", "fault_crash_worker: worker " + std::to_string(id) +
                        " already gone; no-op");
    return;
  }
  const alloc::Resources capacity = worker.capacity;
  crash_worker(id);
  if (rejoin_delay >= 0.0) {
    // The pilot resubmits with the same shape; it arrives as a fresh worker
    // id with a cold cache.
    sim_.schedule(rejoin_delay,
                  [this, capacity] { add_worker({capacity, sim_.now()}); });
  }
}

void Master::fault_worker_speed(uint64_t selector, double factor) {
  if (workers_.empty()) return;
  Worker& worker = workers_[selector % workers_.size()];
  worker.speed = std::max(factor, 1e-3);
}

void Master::fault_network_scale(double scale) {
  network_.set_bandwidth_scale(scale);
}

void Master::fault_fs_stall(double factor) {
  fs_stall_factor_ = std::max(factor, 0.0);
}

void Master::fault_spurious_kill(uint64_t selector) {
  // Resolve the selector over the in-flight attempts (worker-major,
  // ascending record index — a deterministic enumeration).
  std::vector<std::pair<size_t, int>> victims;
  for (const Worker& w : workers_) {
    for (const size_t i : w.inflight) victims.emplace_back(i, w.id);
  }
  if (victims.empty()) return;  // nothing running; the fault fizzles
  const auto [record_index, worker_id] = victims[selector % victims.size()];
  TaskRecord& rec = records_[record_index];
  ++attempt_epoch_[record_index];  // orphan the attempt's scheduled events
  ++stats_.spurious_kills;
  ++rec.requeues;
  // Killed with the result in flight: the labeler observed a success that
  // will now re-run (see MasterStats::lost_results).
  if (rec.state == TaskState::kReturning) ++stats_.lost_results;
  trace_phase_close(record_index);
  if (obs::Recorder::enabled()) {
    obs::Recorder::global().instant(obs::kPidSim, rec.spec.id, sim_.now(),
                                    "spurious-kill", "task", nullptr, {},
                                    "attempt", static_cast<double>(rec.attempt));
  }
  unpin_inputs(worker_id, rec.spec);
  release(record_index, worker_id, rec.last_allocation);
  rec.worker_id = -1;
  if (is_cancelled(record_index)) {
    finalize_cancelled_idle(record_index);
    return;
  }
  // The task was innocent: no labeler feedback, no exhaustion counted.
  requeue_or_fail(record_index, chaos::FailureKind::kSpuriousKill);
}

bool Master::cancel_task(uint64_t task_id) {
  const auto it = record_by_task_id_.find(task_id);
  if (it == record_by_task_id_.end()) return false;
  const size_t index = it->second;
  if (records_[index].state == TaskState::kDone) return false;
  SchedState& state = sched_[index];
  if (!state.cancelled) {
    state.cancelled = true;
    if (state.queued) cancel_flush_.push({state.seq, index});
  }
  try_dispatch();  // flush it out of the ready queue promptly
  return true;
}

bool Master::worker_caches(int worker_id, const std::string& file_name) const {
  return workers_[static_cast<size_t>(worker_id)].cache.count(file_name) > 0;
}

int64_t Master::worker_cache_bytes(int worker_id) const {
  return workers_[static_cast<size_t>(worker_id)].cache_bytes;
}

int64_t Master::worker_chunk_bytes(int worker_id) const {
  return workers_[static_cast<size_t>(worker_id)].chunks.bytes();
}

void Master::recover(const chaos::Journal& journal) {
  if (!records_.empty() || !workers_.empty()) {
    throw Error("Master::recover: requires a fresh master (no workers, no tasks)");
  }
  struct PendingTask {
    TaskSpec spec;
    int exhaustions = 0;
    int terminal = 0;  // 0 = in progress, 1 = done, 2 = failed, 3 = cancelled
    double terminal_ts = -1.0;
    alloc::Resources peak{};  // observed peak from the "done" record
  };
  std::vector<uint64_t> order;  // submission order
  std::unordered_map<uint64_t, PendingTask> tasks;
  std::map<int, alloc::Resources> live_pool;  // journal worker id -> capacity

  for (const chaos::JournalEntry& entry : journal.entries()) {
    switch (entry.kind) {
      case chaos::EntryKind::kWorkerAdded:
        live_pool[entry.worker] = entry.res;
        break;
      case chaos::EntryKind::kWorkerLost:
        live_pool.erase(entry.worker);
        break;
      case chaos::EntryKind::kSubmitted: {
        if (tasks.count(entry.task) > 0) break;  // first submission wins
        order.push_back(entry.task);
        tasks.emplace(entry.task, PendingTask{entry.spec});
        break;
      }
      case chaos::EntryKind::kExhaustion: {
        // Replay the labeler's exhaustion observation and restore the task's
        // exhaustion count — the retry ladder resumes where it stopped.
        const auto it = tasks.find(entry.task);
        if (it != tasks.end()) it->second.exhaustions += 1;
        labeler_.observe_exhaustion(entry.text, entry.res, entry.text2);
        ++stats_.exhaustion_retries;
        break;
      }
      case chaos::EntryKind::kCompleted:
      case chaos::EntryKind::kFailed:
      case chaos::EntryKind::kCancelled: {
        const auto it = tasks.find(entry.task);
        if (it == tasks.end() || it->second.terminal != 0) break;
        it->second.terminal_ts = entry.ts;
        if (entry.kind == chaos::EntryKind::kCompleted) {
          it->second.terminal = 1;
          it->second.peak = entry.res;
          labeler_.observe_success(it->second.spec.category, it->second.peak);
        } else {
          it->second.terminal = entry.kind == chaos::EntryKind::kFailed ? 2 : 3;
        }
        break;
      }
      case chaos::EntryKind::kDispatched:
        // No replay: an attempt without a journaled terminal simply re-runs,
        // which is what makes results exactly-once.
        break;
    }
  }

  // Reconnect the surviving pool (ascending journal id; ids are reassigned).
  for (const auto& [old_id, capacity] : live_pool) {
    (void)old_id;
    add_worker({capacity, sim_.now()});
  }

  // Journaled terminal outcomes replay as done records (on_complete already
  // fired in the previous incarnation and does NOT re-fire); everything else
  // resubmits with its attempt/exhaustion counters restored.
  for (const uint64_t id : order) {
    PendingTask& p = tasks.at(id);
    if (p.terminal == 0) {
      submit_record(std::move(p.spec), p.exhaustions, p.exhaustions);
      continue;
    }
    TaskRecord rec;
    rec.spec = std::move(p.spec);
    rec.state = TaskState::kDone;
    rec.submit_time = sim_.now();
    if (p.terminal == 1) rec.finish_time = p.terminal_ts;
    records_.push_back(std::move(rec));
    attempt_epoch_.push_back(0);
    obs_phase_.push_back(static_cast<uint8_t>(TracePhase::kNone));
    const size_t index = records_.size() - 1;
    SchedState state;
    state.category_id = intern_category(records_[index].spec.category);
    state.signature_id = intern_signature(records_[index].spec);
    sched_.push_back(std::move(state));
    record_by_task_id_.emplace(records_[index].spec.id, index);
    ++stats_.tasks_recovered;
    if (p.terminal == 1) {
      ++stats_.tasks_completed;
    } else if (p.terminal == 2) {
      ++stats_.tasks_failed;
    } else {
      ++stats_.tasks_cancelled;
    }
    // Mirror the outcome into a newly attached journal so it is
    // self-contained: a second recovery sees the same terminal set.
    if (journal_) {
      journal_->submitted(records_[index].spec, sim_.now());
      if (p.terminal == 1) {
        journal_->completed(id, p.peak, sim_.now());
      } else if (p.terminal == 2) {
        journal_->failed(id, "recovered-terminal", sim_.now());
      } else {
        journal_->cancelled(id, sim_.now());
      }
    }
  }
}

MasterStats Master::run() {
  first_ready_time_ = sim_.now();
  sim_.run();
  stats_.makespan = sim_.now() - first_ready_time_;
  double pool_cores = 0.0;
  for (const auto& w : workers_) pool_cores += w.capacity.cores;
  stats_.total_capacity_core_seconds = pool_cores * stats_.makespan;
  return stats_;
}

ScenarioResult run_scenario(alloc::Strategy strategy, const alloc::LabelerConfig& base,
                            const std::vector<WorkerSpec>& workers,
                            std::vector<TaskSpec> tasks,
                            const sim::NetworkParams& net_params,
                            const MasterConfig& master_config) {
  sim::Simulation sim;
  sim::Network network(sim, net_params);
  alloc::LabelerConfig config = base;
  config.strategy = strategy;
  alloc::Labeler labeler(config);
  // Oracle: perfect per-category knowledge = the true per-category maxima.
  if (strategy == alloc::Strategy::kOracle) {
    std::map<std::string, alloc::Resources> maxima;
    for (const auto& t : tasks) {
      auto& m = maxima[t.category];
      m = alloc::Resources::elementwise_max(m, t.true_peak);
    }
    for (const auto& [cat, peak] : maxima) {
      alloc::Resources oracle = peak;
      oracle.cores = std::max(1.0, std::ceil(oracle.cores));
      labeler.set_oracle(cat, oracle);
    }
  }
  Master master(sim, network, labeler, master_config);
  for (const auto& w : workers) master.add_worker(w);
  for (auto& t : tasks) master.submit(std::move(t));
  ScenarioResult result;
  result.stats = master.run();
  result.strategy = strategy;
  return result;
}

}  // namespace lfm::wq
