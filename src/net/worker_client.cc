#include "net/worker_client.h"

#include <sys/epoll.h>

#include <utility>
#include <vector>

#include "obs/recorder.h"

namespace lfm::net {

namespace {

// Seconds between telemetry shipments on tracing runs.
constexpr double kTelemetryInterval = 0.5;

// What a task holds of the capacity while it runs. A dimension the task
// leaves unsized takes the whole of it, as in Work Queue.
alloc::Resources footprint_of(const wq::TaskMessage& task,
                              const alloc::Resources& capacity) {
  const alloc::Resources& a = task.allocation;
  return {a.cores > 0 ? a.cores : capacity.cores,
          a.memory_bytes > 0 ? a.memory_bytes : capacity.memory_bytes,
          a.disk_bytes > 0 ? a.disk_bytes : capacity.disk_bytes};
}

}  // namespace

WorkerClient::WorkerClient(WorkerClientOptions o)
    : Uplink({"net", "worker", o.name, o.host, o.port, o.capacity, o.reconnect,
              o.max_reconnect_attempts, o.idle_timeout},
             obs::Count("obs.telemetry_dropped")),
      options_(std::move(o)),
      worker_(options_.worker) {}

int64_t WorkerClient::run() {
  if (obs::Recorder::enabled()) every(kTelemetryInterval, [this] { ship_telemetry(); });
  serve();
  // Whatever still runs is killed and reaped: each fd leaves the epoll set
  // before the invocation that owns it closes it.
  for (auto& [key, r] : running_) {
    loop_.cancel_timer(r.timer);
    if (const monitor::Invocation* inv = r.run->invocation()) {
      loop_.remove_fd(inv->exit_fd());
      loop_.remove_fd(inv->report_fd());
    }
  }
  running_.clear();
  queue_.clear();
  outbox_.clear();
  return executed_;
}

void WorkerClient::on_connected() {
  // Whatever the previous link left queued or unsent is void: the master
  // requeued those tasks when that link closed, and re-stages their inputs.
  queue_.clear();
  outbox_.clear();
}

void WorkerClient::on_bye(Connection& conn) {
  // Final drain: whatever the recorder buffered since the last result (span
  // ends, shutdown instants) still travels before the close —
  // close_after_flush lets the frame leave the socket first.
  ship_telemetry();
  conn.close_after_flush();
}

void WorkerClient::on_tasks(Connection&, const std::string& wire) {
  std::vector<wq::TaskMessage> tasks = wq::decode_task_batch(wire);
  if (options_.echo_results) {
    echo(tasks);
    return;
  }
  for (wq::TaskMessage& task : tasks) queue_.push_back(std::move(task));
  admit();
}

void WorkerClient::echo(const std::vector<wq::TaskMessage>& tasks) {
  for (const wq::TaskMessage& task : tasks) {
    wq::ResultMessage& r = outbox_.emplace_back();
    r.task_id = task.task_id;
    r.trace_id = task.trace_id;
    r.payload = options_.echo_payload;
    ++executed_;
    release_inputs(task);
  }
  send_results();  // at once, not a loop turn later
}

void WorkerClient::admit() {
  while (!queue_.empty()) {
    const alloc::Resources need = footprint_of(queue_.front(), options_.capacity);
    alloc::Resources in_use;
    for (const auto& [key, r] : running_) in_use += r.footprint;
    // First come, first started; a task larger than the whole capacity
    // still runs, alone.
    if (!running_.empty() && !(in_use + need).fits_in(options_.capacity)) return;
    const wq::TaskMessage task = std::move(queue_.front());
    queue_.pop_front();
    start(task, need);
  }
}

void WorkerClient::start(const wq::TaskMessage& task, const alloc::Resources& footprint) {
  // All recorder activity of this task (the LocalWorker's span, the
  // monitor's usage counters) inherits its trace identity via the
  // thread-local scope, here and in every step — zero for untraced tasks,
  // which leaves events unstamped.
  obs::TraceScope scope(task.trace_id);
  const uint64_t key = next_key_++;
  Running& r = running_[key];
  r.trace_id = task.trace_id;
  r.footprint = footprint;
  r.link = conn_ ? conn_->id() : 0;
  r.run = worker_.start(task, files_);
  release_inputs(task);
  const monitor::Invocation* inv = r.run->invocation();
  if (inv == nullptr || inv->done()) {
    finish(key);
    return;
  }
  if (inv->exit_fd() >= 0) {
    loop_.add_fd(inv->exit_fd(), EPOLLIN, [this, key](uint32_t) { step(key); });
  }
  loop_.add_fd(inv->report_fd(), EPOLLIN, [this, key](uint32_t) { step(key); });
  arm_sample_timer(key, r);
}

void WorkerClient::step(uint64_t key) {
  const auto it = running_.find(key);
  if (it == running_.end()) return;
  Running& r = it->second;
  obs::TraceScope scope(r.trace_id);
  monitor::Invocation& inv = *r.run->invocation();
  inv.step();
  if (inv.done()) {
    finish(key);
    admit();
    return;
  }
  // A pipe at EOF reads as readable forever.
  if (!inv.report_open() && loop_.has_fd(inv.report_fd())) {
    loop_.remove_fd(inv.report_fd());
  }
  arm_sample_timer(key, r);
}

void WorkerClient::arm_sample_timer(uint64_t key, Running& r) {
  loop_.cancel_timer(r.timer);
  r.timer = loop_.run_after(r.run->invocation()->next_sample() - EventLoop::now(),
                            [this, key] { step(key); });
}

void WorkerClient::finish(uint64_t key) {
  const auto it = running_.find(key);
  Running& r = it->second;
  loop_.cancel_timer(r.timer);
  if (const monitor::Invocation* inv = r.run->invocation()) {
    loop_.remove_fd(inv->exit_fd());
    loop_.remove_fd(inv->report_fd());
  }
  wq::ResultMessage result = worker_.finish(*r.run);
  const bool same_link = conn_ && !conn_->closed() && conn_->id() == r.link;
  running_.erase(it);
  ++executed_;
  // A result for a closed link is dropped: the master requeued its task.
  if (!same_link) return;
  outbox_.push_back(std::move(result));
  if (!send_posted_) {
    // Deferred one loop turn: every task that ends in this reactor
    // iteration shares one result frame.
    send_posted_ = true;
    loop_.post([this] {
      send_posted_ = false;
      send_results();
    });
  }
}

void WorkerClient::send_results() {
  if (outbox_.empty()) return;
  if (!conn_ || conn_->closed()) {
    outbox_.clear();
    return;
  }
  send_batch(*conn_, outbox_);
  outbox_.clear();
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
