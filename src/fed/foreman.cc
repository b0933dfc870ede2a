#include "fed/foreman.h"

#include <utility>

namespace lfm::fed {

Foreman::Foreman(ForemanConfig c)
    : Uplink({"fed", "foreman", c.name, c.root_host, c.root_port, c.capacity,
              c.reconnect, c.max_reconnect_attempts, c.telemetry_backpressure_bytes},
             net::Count(c.metrics, "foreman.telemetry_dropped")),
      config_(std::move(c)),
      m_{config_.metrics},
      service_(loop_, shard_config()),
      cache_(config_.cache_capacity_bytes) {
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

void Foreman::on_file(wq::FileMessage&& fm) {
  const auto backing =
      std::make_shared<const serde::Bytes>(std::move(fm.content));
  // Second-tier cache fill: the payload is content-chunked into the shard
  // store (dedup against every file already held) and remembered as a
  // manifest; the bytes never cross the root link again while cached.
  pkg::ChunkManifest manifest = pkg::chunk_into_store(backing, cache_);
  m_.files_cached.add();
  m_.file_bytes_in.add(manifest.total_bytes());
  file_cache_[fm.name] = std::move(manifest);
}

void Foreman::on_tasks(net::Connection&, const std::string& wire) {
  const std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  received_ += static_cast<int64_t>(tasks.size());
  m_.tasks_received.add(static_cast<int64_t>(tasks.size()));
  // Reassemble each input named by this batch once from the shard cache,
  // then fan the bytes out per task (the local MasterService ships each
  // cacheable file once per worker connection regardless).
  wq::FileSet staged;
  for (const wq::TaskMessage& t : tasks) {
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      if (staged.count(stanza.name)) continue;
      auto it = file_cache_.find(stanza.name);
      if (it == file_cache_.end()) continue;  // worker-local input
      staged.emplace(stanza.name, pkg::reassemble(it->second, cache_));
      m_.cache_reassemblies.add();
    }
  }
  for (const wq::TaskMessage& t : tasks) {
    wq::FileSet files;
    for (const wq::TaskMessage::FileStanza& stanza : t.infiles) {
      auto it = staged.find(stanza.name);
      if (it != staged.end()) files.emplace(it->first, it->second);
    }
    // The relay hop: the batch the root encoded is decoded here and the
    // local dispatcher re-batches and re-encodes it downward.
    service_.submit(t, std::move(files));
  }
}

void Foreman::on_local_result(const wq::ResultMessage& result) {
  pending_results_.push_back(result);
  if (pending_results_.size() >= config_.result_batch_max) {
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
  const pkg::ChunkStore::Stats cs = cache_.stats();
  s.cache_chunks = cs.chunks;
  s.cache_bytes = cs.bytes;
  conn_->send(wq::encode(s));
  m_.stats_sent.add();
  // Telemetry piggybacks on the stats cadence: one timer, two frames.
  ship_telemetry();
}

void Foreman::relay_telemetry(wq::TelemetryMessage&& msg) {
  if (!conn_ || conn_->closed() ||
      conn_->queued_bytes() > config_.telemetry_backpressure_bytes) {
    m_.telemetry_dropped_frames.add();
    return;
  }
  conn_->send(wq::encode(msg));
  m_.telemetry_relayed.add();
}

}  // namespace lfm::fed
