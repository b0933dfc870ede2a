// WorkerClient: the process on the worker node end of the transport
// (DESIGN.md §13).
//
// An Uplink to a MasterService (connect, hello, pongs, reconnect with
// backoff under a failure budget, telemetry shipping, the staged files of
// the current link) that serves the dispatch dialogue: task (and batch)
// frames queue for admission. A queued task starts
// through wq::LocalWorker — i.e. through a real forked monitor::LFM — as
// soon as it fits beside the running ones: the allocations of the tasks
// running must fit the capacity the hello announced, and a task larger
// than that capacity runs alone. Each invocation's pidfd, report pipe and
// next-sample timer are driven from the event loop (the stepping contract in
// monitor/lfm.h), so the loop stays free to answer pings however long a
// task runs. A result goes back when its task ends; results that end in
// the same loop turn share one frame. Echo replies are immediate. Bye
// means the run is over: drain and return.
//
// A result whose link closed while its task ran is dropped (the master
// requeued the task), and tasks still queued from a closed link are
// dropped on reconnect. Whatever still runs when run() returns is killed
// and reaped. A task's one-shot inputs are dropped once it starts; the
// cacheable ones stay for the life of the link, and a fresh link starts
// with none (the master re-stages them on it). Each completed task
// restores the full reconnect budget: the link is proven end to end (task
// in, result out). The worker alone bounds how long it listens to silence:
// idle_timeout on an established link, 5 s on an unanswered hello.
// Buffered trace events ship upward after each result send, every 0.5 s,
// and before the bye-close (tracing runs only).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
  // Announced in the hello, and the bound on the summed allocations of the
  // tasks running at once.
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
  // An admitted task: its LFM and the loop registrations that drive it.
  struct Running {
    std::unique_ptr<wq::LocalWorker::Run> run;
    uint64_t trace_id = 0;
    alloc::Resources footprint;  // counted against the capacity
    uint64_t link = 0;           // id of the connection it came in on
    uint64_t timer = 0;          // next-sample timer
  };

  void on_tasks(Connection& conn, const std::string& wire) override;
  void on_bye(Connection& conn) override;
  void on_connected() override;
  void on_link_ended() override { loop_.stop(); }

  // Answer every task at once with the canned payload.
  void echo(const std::vector<wq::TaskMessage>& tasks);
  // Start queued tasks while they fit.
  void admit();
  void start(const wq::TaskMessage& task, const alloc::Resources& footprint);
  // Step the invocation of running task `key`; finish it once done.
  void step(uint64_t key);
  // (Re)arm the timer that steps `key` when its next sample is due.
  void arm_sample_timer(uint64_t key, Running& r);
  // Deregister, turn the run into its result, and queue that for sending.
  void finish(uint64_t key);
  void send_results();

  WorkerClientOptions options_;
  wq::LocalWorker worker_;
  std::deque<wq::TaskMessage> queue_;  // dispatched, waiting for room
  std::map<uint64_t, Running> running_;
  uint64_t next_key_ = 1;
  std::vector<wq::ResultMessage> outbox_;  // results not yet sent
  bool send_posted_ = false;
  int64_t executed_ = 0;
};

}  // namespace lfm::net
