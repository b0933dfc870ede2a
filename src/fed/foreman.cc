#include "fed/foreman.h"

#include <utility>

namespace lfm::fed {

namespace {

// Local results buffered before an upward flush is forced; a loop-deferred
// flush also coalesces whatever completed in the same reactor iteration.
constexpr size_t kResultBatchMax = 64;

}  // namespace

Foreman::Foreman(ForemanConfig c)
    : Uplink({"fed", "foreman", c.name, c.root_host, c.root_port, c.capacity,
              c.reconnect, c.max_reconnect_attempts, c.service.idle_timeout},
             obs::Count(c.metrics, "foreman.telemetry_dropped")),
      config_(std::move(c)),
      m_{config_.metrics},
      service_(loop_, shard_config()) {
  service_.set_on_result(
      [this](const wq::ResultMessage& r) { on_local_result(r); });
}

net::MasterServiceConfig Foreman::shard_config() {
  net::MasterServiceConfig s = config_.service;
  if (s.metrics == nullptr) s.metrics = config_.metrics;
  // Worker telemetry relays straight upward: the service adds its
  // worker-link clock offset before this fires, the root adds the
  // foreman-link offset on receipt, so the cumulative offset walks the tree.
  s.on_telemetry = [this](wq::TelemetryMessage&& m) {
    relay_telemetry(std::move(m));
  };
  return s;
}

int64_t Foreman::run() {
  if (config_.stats_interval > 0) every(config_.stats_interval, [this] { send_stats(); });
  // After the drain: the last words (final task.inflight ends, shutdown
  // instants, late worker relays) still travel before the link closes.
  serve();
  return relayed_;
}

void Foreman::on_connected() {
  m_.connects.add();
  // The uplink starts empty on every link, and so does the root's
  // ship-once set for it.
  unnamed_.clear();
  dropped_.clear();
  // Results that completed while the link was down travel on the fresh
  // connection; the root's done flags absorb any duplicates.
  flush_results();
}

void Foreman::on_message(net::Connection& conn, std::string&& wire) {
  m_.frames_in.add();
  Uplink::on_message(conn, std::move(wire));
}

void Foreman::on_bye(net::Connection&) {
  flush_results();
  ship_telemetry();
  // Drain the local tier; the loop stops when the last worker connection
  // is gone. The upstream link stays OPEN through the drain so the
  // workers' final telemetry frames (shipped on their own byes) still relay
  // to the root; run() closes it at the end.
  service_.shutdown();
}

void Foreman::on_file(const std::string& name, size_t bytes) {
  m_.files_cached.add();
  m_.file_bytes_in.add(static_cast<int64_t>(bytes));
  unnamed_.insert(name);
}

void Foreman::on_tasks(net::Connection& conn, const std::string& wire) {
  const std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  for (const wq::TaskMessage& t : tasks) {
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      if (!dropped_.count(stanza.name)) continue;
      // The root ships a cacheable file once per link, so a task naming
      // one dropped past the bound starts the foreman over on a fresh link:
      // the root requeues this link's groups, this batch's included, and
      // re-stages their files there. The link was working: the close does
      // not count against the reconnect budget.
      m_.cache_resets.add();
      reset_budget();
      conn.close("dropped file named again");
      return;
    }
  }
  received_ += static_cast<int64_t>(tasks.size());
  m_.tasks_received.add(static_cast<int64_t>(tasks.size()));
  for (const wq::TaskMessage& t : tasks) {
    // Each task takes its own copy of the inputs the uplink holds (the
    // rest are worker-local); the local MasterService ships each cacheable
    // one once per worker connection.
    wq::FileSet files;
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      unnamed_.erase(stanza.name);
      auto it = files_.find(stanza.name);
      if (it != files_.end()) files.emplace(it->first, it->second);
    }
    // The relay hop: the batch the root encoded is decoded here and the
    // local dispatcher re-batches and re-encodes it downward.
    service_.submit(t, std::move(files));
  }
  // Only now: two tasks of one batch may name the same one-shot input.
  for (const wq::TaskMessage& t : tasks) release_inputs(t);
  if (held_bytes_ > static_cast<size_t>(config_.cache_capacity_bytes)) drop_idle_files();
}

void Foreman::drop_idle_files() {
  // Keep what a task pending here names, and what no task has named yet
  // (it arrived ahead of a batch still to come).
  for (auto it = files_.begin(); it != files_.end();) {
    if (unnamed_.count(it->first) || service_.stages(it->first)) {
      ++it;
      continue;
    }
    dropped_.insert(it->first);
    m_.files_dropped.add();
    it = drop_file(it);
  }
}

void Foreman::on_local_result(const wq::ResultMessage& result) {
  pending_results_.push_back(result);
  if (pending_results_.size() >= kResultBatchMax) {
    flush_results();
    return;
  }
  if (!flush_scheduled_) {
    // Deferred one loop turn: everything that completes in this reactor
    // iteration coalesces into a single upward batch frame.
    flush_scheduled_ = true;
    loop_.post([this] {
      flush_scheduled_ = false;
      flush_results();
    });
  }
}

void Foreman::flush_results() {
  if (pending_results_.empty()) return;
  if (!conn_ || conn_->closed()) return;  // flushes on reconnect
  net::send_batch(*conn_, pending_results_);
  relayed_ += static_cast<int64_t>(pending_results_.size());
  m_.results_relayed.add(static_cast<int64_t>(pending_results_.size()));
  pending_results_.clear();
  // Relayed progress restores the full upstream reconnect budget.
  reset_budget();
}

void Foreman::send_stats() {
  if (!conn_ || conn_->closed() || bye_) return;
  wq::StatsMessage s;
  s.source = dial_.name;
  s.workers = service_.connected_workers();
  s.pending = static_cast<int64_t>(service_.pending());
  s.completed = relayed_;
  const net::NetMasterStats ns = service_.stats();
  s.fanout_bytes = ns.bytes_sent;
  s.fanout_files = ns.files_sent;
  s.cache_files = static_cast<int64_t>(files_.size());
  s.cache_bytes = static_cast<int64_t>(held_bytes_);
  conn_->send(wq::encode(s));
  m_.stats_sent.add();
  // Telemetry piggybacks on the stats cadence: one timer, two frames.
  ship_telemetry();
}

void Foreman::relay_telemetry(wq::TelemetryMessage&& msg) {
  if (!conn_ || conn_->closed() ||
      conn_->queued_bytes() > net::kWriteBacklogBytes) {
    m_.telemetry_dropped_frames.add();
    return;
  }
  conn_->send(wq::encode(msg));
  m_.telemetry_relayed.add();
}

}  // namespace lfm::fed
