#include "net/worker_client.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/recorder.h"

namespace lfm::net {

WorkerClient::WorkerClient(WorkerClientOptions o)
    : Uplink({"net", "worker", o.name, o.host, o.port, o.wire_version, o.capacity,
              o.reconnect, o.max_reconnect_attempts, o.telemetry_backpressure_bytes},
             Count(nullptr, "obs.telemetry_dropped")),
      options_(std::move(o)),
      worker_(options_.worker) {}

int64_t WorkerClient::run() {
  if (options_.idle_timeout > 0) {
    every(std::max(0.25, options_.idle_timeout / 4.0), [this] {
      if (!conn_ || conn_->closed()) return;
      const double last = std::max(conn_->last_activity(), last_send_);
      if (EventLoop::now() - last > options_.idle_timeout) {
        conn_->close("idle-timeout");
      }
    });
  }
  if (options_.telemetry_interval > 0 && obs::Recorder::enabled()) {
    every(options_.telemetry_interval, [this] { ship_telemetry(); });
  }
  serve();
  return executed_;
}

void WorkerClient::on_connected() {
  if (options_.handshake_timeout <= 0) return;
  std::weak_ptr<Connection> weak = conn_;
  loop_.run_after(options_.handshake_timeout, [this, weak] {
    const auto c = weak.lock();
    if (!c || c != conn_ || c->closed()) return;
    if (c->messages_in() == 0) c->close("handshake-timeout");
  });
}

void WorkerClient::on_file(wq::FileMessage&& fm) {
  file_cacheable_[fm.name] = fm.cacheable;
  files_[fm.name] = std::move(fm.content);
}

void WorkerClient::on_bye(Connection& conn) {
  // Final drain: whatever the recorder buffered since the last result (span
  // ends, shutdown instants) still travels before the close —
  // close_after_flush lets the frame leave the socket first.
  ship_telemetry();
  conn.close_after_flush();
}

void WorkerClient::on_tasks(Connection& conn, const std::string& wire) {
  const wq::WireVersion reply_version = wq::detect_version(wire);
  const std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  std::vector<wq::ResultMessage> results;
  results.reserve(tasks.size());
  for (const wq::TaskMessage& task : tasks) {
    // All recorder activity below (the LocalWorker's spans, the monitor's
    // usage counters) inherits the task's trace identity via the
    // thread-local scope — zero for untraced tasks, which leaves events
    // unstamped exactly as before.
    obs::TraceScope scope(task.trace_id);
    if (options_.echo_results) {
      wq::ResultMessage r;
      r.task_id = task.task_id;
      r.trace_id = task.trace_id;
      r.payload = options_.echo_payload;
      results.push_back(std::move(r));
    } else {
      results.push_back(worker_.execute(task, files_));
    }
    ++executed_;
    // Non-cacheable inputs are one-shot: the master re-stages them with
    // every dispatch that needs them.
    for (const wq::TaskMessage::FileStanza& stanza : task.infiles) {
      auto it = file_cacheable_.find(stanza.name);
      if (it != file_cacheable_.end() && !it->second) {
        files_.erase(stanza.name);
        file_cacheable_.erase(it);
      }
    }
  }
  if (conn.closed()) return;
  send_batch(conn, results, reply_version);
  last_send_ = EventLoop::now();
  // Completed work restores the full reconnect budget: the link is proven
  // end-to-end (task in, result out), so future drops start from zero.
  reset_budget();
  // Ship the spans those tasks just recorded while the results are still in
  // flight — the master's collector sees a task's run span arrive with (or
  // just behind) its result rather than a telemetry interval later.
  ship_telemetry();
}

}  // namespace lfm::net
