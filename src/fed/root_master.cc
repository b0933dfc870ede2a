#include "fed/root_master.h"

#include <functional>
#include <utility>

#include "obs/collector.h"
#include "util/log.h"

namespace lfm::fed {

namespace {

// Groups are the units; each travels in frames of its own.
constexpr net::Dispatcher::Policy kForemanPolicy{
    .category = "fed",
    .role = "root",
    .links_key = "foremen",
    .accept_mark = "fed.accept",
    .hello_mark = "fed.hello",
    .disconnect_mark = "fed.disconnect",
    .drop_mark = "fed.injected_drop",
    .ship_mark = "fed.ship",
    .ship_key = "foreman",
    .frame_per_unit = true,
};

// Complete the offset chain: the message already accumulated every hop
// below (worker→foreman added at the foreman's MasterService), and the core
// added this link's estimate, making it source-clock minus root-clock.
std::function<void(wq::TelemetryMessage&&)> merge_into(obs::Collector* c) {
  if (c == nullptr) return {};
  return [c](wq::TelemetryMessage&& msg) {
    c->add(msg.source, msg.clock_offset, std::move(msg.events), msg.dropped);
  };
}

}  // namespace

RootMaster::RootMaster(net::EventLoop& loop, RootMasterConfig c)
    : Dispatcher(loop, kForemanPolicy,
                 {.port = c.port,
                  .bind_addr = c.bind_addr,
                  .units_per_link = static_cast<size_t>(c.groups_per_foreman),
                  .max_batch = c.max_batch,
                  .heartbeat_interval = c.heartbeat_interval,
                  .idle_timeout = c.idle_timeout,
                  .metrics = c.metrics,
                  .on_telemetry = merge_into(c.collector)}),
      journal_(c.journal) {}

void RootMaster::recover(const chaos::Journal& journal) {
  for (const uint64_t id : journal.completed_task_ids()) {
    recovered_done_.insert(id);
  }
}

void RootMaster::submit(TaskGroup group) {
  open_unit(std::move(group.files));
  for (wq::TaskMessage& task : group.tasks) {
    const bool done = recovered_done_.count(task.task_id) > 0;
    if (done) {
      ++own_.recovered_done;
      recovered_m_.add();
    }
    add_task(std::move(task), done);
  }
  ++own_.groups_submitted;
  groups_submitted_m_.add();
  // A group whose every task was done in the recovered journal is complete.
  if (!queue_unit()) ++own_.groups_completed;
}

net::Dispatcher::Link* RootMaster::route(const Unit& g) {
  // Cache affinity: prefer the link that already holds the most of this
  // group's cacheable files (each hit is a file that will NOT cross the
  // root link again); break ties toward the lightest-loaded shard.
  Link* best = nullptr;
  int best_affinity = -1;
  size_t best_load = 0;
  for (auto& [id, f] : links()) {
    if (!has_room(f)) continue;
    int affinity = 0;
    for (const auto& [name, bytes] : g.files) {
      if (f.shipped_files.count(name)) ++affinity;
    }
    if (affinity > best_affinity ||
        (affinity == best_affinity && f.inflight.size() < best_load)) {
      best = &f;
      best_affinity = affinity;
      best_load = f.inflight.size();
    }
  }
  if (best != nullptr && best_affinity > 0) affinity_hits_m_.add(best_affinity);
  return best;
}

void RootMaster::on_task_done(const Task&, const wq::ResultMessage& msg) {
  if (journal_ == nullptr) return;
  // Write-ahead: the done record lands before the completion's downstream
  // effects (group retirement, the result callback) run.
  alloc::Resources peak;
  peak.cores = msg.cores_used;
  peak.memory_bytes = static_cast<double>(msg.memory_peak_bytes);
  peak.disk_bytes = static_cast<double>(msg.disk_peak_bytes);
  journal_->completed(msg.task_id, peak, net::EventLoop::now());
}

void RootMaster::on_unit_done() {
  ++own_.groups_completed;
  groups_completed_m_.add();
}

void RootMaster::on_link_closed(const Link& f, const std::string& reason) {
  last_stats_.erase(f.conn->id());
  // A foreman that departed after the bye left nothing in flight.
  if (finishing()) return;
  if (journal_ != nullptr) {
    journal_->worker_lost(static_cast<int>(f.conn->id()), net::EventLoop::now());
  }
  // A unit leaves its link's in-flight set the moment it completes.
  const auto requeued = static_cast<int64_t>(f.inflight.size());
  if (requeued == 0) return;
  LFM_WARN("fed", "foreman '" + f.name + "' lost (" + reason + "); requeuing " +
                      std::to_string(requeued) + " group(s)");
  own_.requeued_groups += requeued;
  requeued_groups_m_.add(requeued);
}

bool RootMaster::on_frame(Link& f, wq::MessageKind kind, const std::string& wire) {
  if (kind != wq::MessageKind::kStats) return false;
  last_stats_[f.conn->id()] = wq::decode_stats(wire);
  ++own_.stats_frames;
  stats_frames_m_.add();
  // Tree-wide aggregates from the shards' latest frames: the root's view of
  // worker capacity and shard cache health without polling anything.
  int64_t workers = 0, cache_bytes = 0;
  for (const auto& [id, s] : last_stats_) {
    workers += s.workers;
    cache_bytes += s.cache_bytes;
  }
  tree_workers_m_.set(static_cast<double>(workers));
  tree_cache_bytes_m_.set(static_cast<double>(cache_bytes));
  return true;
}

RootStats RootMaster::stats() const {
  const net::NetMasterStats t = totals();
  RootStats s = own_;
  s.tasks_completed = t.tasks_completed;
  s.duplicate_results = t.duplicate_results;
  s.requeued_tasks = t.requeued_tasks;
  s.foremen_accepted = t.connections_accepted;
  s.foremen_lost = t.links_lost;
  s.foremen_departed = t.links_departed;
  s.files_sent = t.files_sent;
  s.telemetry_frames = t.telemetry_frames;
  s.bytes_sent = t.bytes_sent;
  s.bytes_received = t.bytes_received;
  return s;
}

std::map<std::string, wq::StatsMessage> RootMaster::shard_stats() const {
  std::map<std::string, wq::StatsMessage> out;
  for (const auto& [id, f] : links()) {
    auto it = last_stats_.find(id);
    if (f.open()) out[f.name] = it == last_stats_.end() ? wq::StatsMessage{} : it->second;
  }
  return out;
}

std::map<std::string, size_t> RootMaster::shard_loads() const {
  std::map<std::string, size_t> out;
  for (const auto& [id, f] : links()) {
    if (f.open()) out[f.name] = f.inflight.size();
  }
  return out;
}

void RootMaster::add_statusz(serde::ValueDict& d) const {
  const RootStats s = stats();
  d["group_queue_depth"] = static_cast<int64_t>(queue_depth());
  d["groups_submitted"] = s.groups_submitted;
  d["groups_completed"] = s.groups_completed;
  d["requeued_groups"] = s.requeued_groups;
  d["foremen_accepted"] = s.foremen_accepted;
  d["foremen_lost"] = s.foremen_lost;
  d["foremen_departed"] = s.foremen_departed;
  d["stats_frames"] = s.stats_frames;
}

void RootMaster::add_link_statusz(const Link& f, serde::ValueDict& d) const {
  auto it = last_stats_.find(f.conn->id());
  const wq::StatsMessage shard = it == last_stats_.end() ? wq::StatsMessage{} : it->second;
  d["groups_inflight"] = static_cast<int64_t>(f.inflight.size());
  d["shipped_files"] = static_cast<int64_t>(f.shipped_files.size());
  d["shard_workers"] = static_cast<int64_t>(shard.workers);
  d["shard_pending"] = shard.pending;
  d["shard_cache_bytes"] = shard.cache_bytes;
}

}  // namespace lfm::fed
