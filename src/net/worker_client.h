// WorkerClient: the process on the worker node end of the transport
// (DESIGN.md §13).
//
// An Uplink to a MasterService (connect, hello, pongs, reconnect with
// backoff under a failure budget, telemetry shipping) that serves the
// dispatch dialogue: staged files accumulate in an in-memory FileSet, task
// (and v2 batch) frames execute through wq::LocalWorker — i.e. through a
// real forked monitor::LFM — and each request is answered in the wire
// version it arrived in. Bye means the run is over: drain and return.
//
// The cached FileSet survives reconnects; the master re-stages whatever
// the fresh connection is missing. Each completed task restores the full
// reconnect budget: the link is proven end to end (task in, result out).
// The worker alone bounds how long it listens to silence: idle_timeout on
// an established link, handshake_timeout on an unanswered hello.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/conn.h"
#include "net/uplink.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

struct WorkerClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string name = "worker";
  wq::WireVersion wire_version = wq::WireVersion::kV2;
  alloc::Resources capacity{4.0, 8e9, 50e9};
  wq::LocalWorkerOptions worker;
  // Echo mode, for transport benchmarks: skip the LFM and answer every task
  // immediately with exit 0 and `echo_payload` — measures the wire, not the
  // fork.
  bool echo_results = false;
  serde::Bytes echo_payload;
  chaos::RetryPolicy reconnect = default_reconnect_policy();
  // Consecutive failed connect attempts before run() gives up.
  int max_reconnect_attempts = 30;
  // Reconnect if the master goes silent this long (0 = off). Generous by
  // default: an idle-but-alive master pings well inside this.
  double idle_timeout = 60.0;
  // Give up on a connection that never answers the hello this long after
  // connect (0 = off). Tighter than idle_timeout: a live master replies to
  // a hello immediately, so a silent accept is a dead one — typically a
  // connection the kernel completed into the backlog of a listener whose
  // owner already stopped serving it. Counts against the reconnect budget
  // like any other drop.
  double handshake_timeout = 5.0;
  // Telemetry shipping (tracing runs only; inert while the obs recorder is
  // disabled). Buffered trace events drain upward in kTelemetry frames
  // after each result send, every telemetry_interval seconds (0 = no
  // timer), and before the bye-close. A backlogged link (queued bytes past
  // telemetry_backpressure_bytes) drops the batch instead of queueing more;
  // drops are counted and reported in the next frame that does ship.
  double telemetry_interval = 0.5;
  size_t telemetry_backpressure_bytes = 4u << 20;
};

class WorkerClient : private Uplink {
 public:
  explicit WorkerClient(WorkerClientOptions options);

  // Connect (retrying with backoff) and serve until the master says bye or
  // the reconnect budget exhausts. Returns the number of tasks executed.
  // Throws lfm::Error if the master was never reached at all.
  int64_t run();

  using Uplink::gave_up;
  using Uplink::stop;

  int64_t tasks_executed() const { return executed_; }
  int64_t reconnects() const { return reconnects_; }
  // Failed connects + unexpected closes since the last completed task.
  int failures_since_progress() const { return attempt_; }
  int64_t telemetry_dropped() const { return telemetry_dropped_; }

 private:
  void on_file(wq::FileMessage&& file) override;
  void on_tasks(Connection& conn, const std::string& wire) override;
  void on_bye(Connection& conn) override;
  void on_connected() override;
  void on_link_ended() override { loop_.stop(); }

  WorkerClientOptions options_;
  wq::LocalWorker worker_;
  wq::FileSet files_;
  std::map<std::string, bool> file_cacheable_;
  int64_t executed_ = 0;
};

}  // namespace lfm::net
