#include "net/master_service.h"

#include <utility>

#include "obs/recorder.h"
#include "obs/trace.h"

namespace lfm::net {

namespace {

// Tasks are units of one, so consecutive dispatches to a worker share a
// frame. A worker running an LFM task sends nothing until it finishes.
constexpr Dispatcher::Policy kWorkerPolicy{
    .category = "net",
    .role = "master",
    .links_key = "workers",
    .accept_mark = "net.accept",
    .hello_mark = "net.hello",
    .disconnect_mark = "net.disconnect",
    .drop_mark = "net.injected_drop",
    .ship_mark = "net.dispatch",
    .ship_key = "detail",
    .silent_when_busy = true,
    .frame_per_unit = false,
};

}  // namespace

MasterService::MasterService(EventLoop& loop, MasterServiceConfig c)
    : Dispatcher(loop, kWorkerPolicy,
                 {.port = c.port,
                  .bind_addr = c.bind_addr,
                  .units_per_link = static_cast<size_t>(c.tasks_per_worker),
                  .max_batch = c.max_batch,
                  .write_high_watermark = c.write_high_watermark,
                  .heartbeat_interval = c.heartbeat_interval,
                  .idle_timeout = c.idle_timeout,
                  .metrics = c.metrics,
                  .on_telemetry = std::move(c.on_telemetry)}) {}

void MasterService::submit(wq::TaskMessage task, wq::FileSet files) {
  open_unit(std::move(files));
  add_task(std::move(task), /*done=*/false);
  queue_unit();
}

Dispatcher::Link* MasterService::route(const Unit&) {
  for (auto& [id, l] : links()) {
    if (has_room(l)) return &l;
  }
  return nullptr;
}

void MasterService::on_task_done(const Task& t, const wq::ResultMessage&) {
  // Dispatch-to-result at this tier. A foreman's service emits this span in
  // its own lane; together with the root's "task" span and the worker's
  // lfm.run it forms the cross-process chain for one trace id.
  if (!obs::Recorder::enabled() || t.task.trace_id == 0 || t.dispatched_at <= 0) {
    return;
  }
  obs::TraceScope scope(t.task.trace_id);
  obs::Recorder::global().complete(obs::kPidHost, t.task.task_id, t.dispatched_at,
                                   EventLoop::now() - t.dispatched_at,
                                   "task.inflight", "net");
}

void MasterService::add_statusz(serde::ValueDict& d) const {
  const NetMasterStats s = totals();
  d["queue_depth"] = static_cast<int64_t>(queue_depth());
  d["requeued_tasks"] = s.requeued_tasks;
  d["connections_accepted"] = s.connections_accepted;
  d["disconnects"] = s.disconnects;
}

void MasterService::add_link_statusz(const Link& l, serde::ValueDict& d) const {
  d["inflight"] = static_cast<int64_t>(l.inflight.size());
  d["cached_files"] = static_cast<int64_t>(l.shipped_files.size());
}

}  // namespace lfm::net
