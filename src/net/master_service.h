// MasterService: real-socket task dispatch to workers (DESIGN.md §13).
//
// The worker-facing policy over net::Dispatcher, which serves the Work
// Queue dialogue (hello, staged files, task dispatches, results, ping/pong,
// telemetry) and holds the exactly-once bookkeeping. Each submitted task is
// its own unit of work, and a unit goes to the first worker link, in accept
// order, with room: fewer than tasks_per_worker tasks in flight and a write
// queue under kWriteBacklogBytes. Consecutive dispatches to one worker
// coalesce into batch frames of up to max_batch tasks.
//
// A worker runs its tasks' LFMs from its event loop, so it answers pings
// while it works: every worker link, busy or idle, is pinged every
// heartbeat_interval (pongs feed the net.rtt_seconds histogram) and closed
// after idle_timeout of silence — a dead or stopped peer cannot hold the
// run hostage, nor the tasks it held. A dropped connection requeues its
// in-flight tasks; a result arriving later from a reconnected worker whose
// task was re-dispatched elsewhere is counted and discarded as a duplicate.
//
// Standalone, run_until_complete() serves until every task has a result.
// Embedded in a fed::Foreman, the owner drives the loop itself, relays
// tasks in with submit(), and ends the run with shutdown().
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/dispatcher.h"
#include "net/event_loop.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

struct MasterServiceConfig {
  uint16_t port = 0;  // 0 = ephemeral; read back via port()
  std::string bind_addr = "127.0.0.1";
  // In-flight dispatches per connection (pipelining depth).
  int tasks_per_worker = 8;
  // Dispatches coalesced into one batch frame per send.
  size_t max_batch = 64;
  double heartbeat_interval = 2.0;  // ping every connection this often
  double idle_timeout = 30.0;       // close after this much silence (0 = off)
  // Metrics sink. Null records into the process-wide registry gated on
  // obs::Recorder::enabled() (the historical behaviour); non-null records
  // unconditionally into the given instance, which is how co-hosted fed
  // components keep their "net.*" series apart (obs::Metrics prefixes).
  obs::Metrics* metrics = nullptr;
  // Sink for kTelemetry frames shipped by workers. The service adds its
  // per-connection clock-offset estimate to the message's cumulative
  // clock_offset before invoking, so a relay chain accumulates the full
  // source-to-here offset hop by hop. Null drops telemetry (counted as
  // net.telemetry_dropped_frames).
  std::function<void(wq::TelemetryMessage&&)> on_telemetry;
};

class MasterService : private Dispatcher {
 public:
  MasterService(EventLoop& loop, MasterServiceConfig config = {});

  using Dispatcher::port;
  using Dispatcher::set_on_result;
  using Dispatcher::shutdown;
  using Dispatcher::statusz_value;

  // Queue a task (with its transferable input files) for dispatch; one
  // whose id is still pending here is ignored. Safe before or during
  // run_until_complete (loop thread only).
  void submit(wq::TaskMessage task, wq::FileSet files = {});

  // Run the loop until every submitted task has a result, then send bye to
  // all workers, flush, and return the aggregate stats. Throws lfm::Error
  // if `timeout` (> 0) wall seconds elapse first.
  NetMasterStats run_until_complete(double timeout = 0.0) { return run(timeout); }

  // --- fault injection & introspection -------------------------------------
  // Abruptly close the k-th (by accept order) live worker connection, as a
  // network fault would: its in-flight tasks requeue, the worker is
  // expected to reconnect with backoff. Returns false if no such
  // connection.
  bool drop_connection(size_t k) { return drop_link(k); }

  using Dispatcher::pending;
  using Dispatcher::stages;
  int connected_workers() const { return connected(); }
  NetMasterStats stats() const { return totals(); }

 private:
  Link* route(const Unit& unit) override;
  void on_task_done(const Task& t, const wq::ResultMessage& msg) override;
  void add_statusz(serde::ValueDict& d) const override;
  void add_link_statusz(const Link& link, serde::ValueDict& d) const override;
};

}  // namespace lfm::net
