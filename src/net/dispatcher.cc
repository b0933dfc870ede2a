#include "net/dispatcher.h"

#include <utility>

#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/hash.h"

namespace lfm::net {

namespace {

void add_traffic(NetMasterStats& s, const Connection& c) {
  s.bytes_sent += c.bytes_out();
  s.bytes_received += c.bytes_in();
  s.messages_sent += c.messages_out();
  s.messages_received += c.messages_in();
}

}  // namespace

// Deterministic, nonzero trace id for a task. Minted once where the task
// enters the system (the root of whatever tree is running) and carried on
// the wire from there, so every process stamps the same identity without
// coordination. Derived from the task id alone — deterministic across
// re-dispatches and restarts.
uint64_t mint_trace_id(uint64_t task_id) {
  const uint64_t id = hash_combine64(0x6c666d2d74726163ull, task_id);
  return id == 0 ? 1 : id;
}

Dispatcher::Dispatcher(EventLoop& loop, const Policy& policy, Settings settings)
    : loop_(loop),
      policy_(policy),
      settings_(std::move(settings)),
      m_{settings_.metrics, std::string(policy.category) + "."},
      listener_(loop, settings_.port, settings_.bind_addr) {
  listener_.set_on_accept([this](int fd) { on_accept(fd); });
  listener_.start();
  if (settings_.heartbeat_interval > 0) {
    heartbeat_timer_ =
        loop_.run_every(settings_.heartbeat_interval, [this] { heartbeat(); });
  }
}

Dispatcher::~Dispatcher() {
  if (heartbeat_timer_ != 0) loop_.cancel_timer(heartbeat_timer_);
  for (auto& [id, l] : links_) {
    // Detach first: teardown close() must not re-enter handle_close over a
    // half-destroyed map.
    l.conn->set_on_close({});
    if (!l.conn->closed()) l.conn->close("master shutdown");
  }
}

void Dispatcher::mark(const char* name, const std::string& detail,
                      uint64_t tid) const {
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidHost, tid, r.now(), name, policy_.category, "detail",
              detail);
  }
}

void Dispatcher::open_unit(wq::FileSet files) {
  Unit u;
  u.files = std::move(files);
  for (const auto& [name, file] : u.files) {
    if (++staged_buffers_[file.buffer().get()] == 1) staged_bytes_ += file.size();
    ++staged_names_[name];
  }
  u.first = tasks_.size();
  units_.push_back(std::move(u));
}

void Dispatcher::add_task(wq::TaskMessage task, bool done) {
  // A task still pending here is not added again: a relay tier gets a
  // requeued group back while its first copy still runs, and that copy's
  // result completes it. A second entry would never complete.
  const auto [it, fresh] = index_by_task_id_.try_emplace(task.task_id, tasks_.size());
  if (!fresh) {
    if (!tasks_[it->second].done) return;
    it->second = tasks_.size();
  }
  Unit& u = units_.back();
  Task t;
  // Trace minting happens only where the task enters the tree: tasks
  // relayed down from a root already carry their id. The recorder gate
  // keeps untraced runs' frames byte-identical (the trailing extension is
  // only emitted for trace_id != 0).
  t.minted = task.trace_id == 0 && obs::Recorder::enabled();
  if (t.minted) task.trace_id = mint_trace_id(task.task_id);
  t.task = std::move(task);
  t.unit = units_.size() - 1;
  t.done = done;
  t.submitted_at = EventLoop::now();
  tasks_.push_back(std::move(t));
  ++u.count;
  if (!done) {
    ++u.remaining;
    ++pending_;
  }
}

bool Dispatcher::queue_unit() {
  if (units_.back().remaining == 0) {
    release_files(units_.back());
    return false;
  }
  queue_.push_back(units_.size() - 1);
  dispatch();
  return true;
}

void Dispatcher::on_accept(int fd) {
  const uint64_t id = next_conn_id_++;
  auto conn = std::make_shared<Connection>(loop_, fd, id);
  conn->set_on_message([this, id](Connection& c, std::string&& wire) {
    on_message(id, c, std::move(wire));
  });
  conn->set_on_close([this, id](Connection&, const std::string& reason) {
    // Defer: close() can fire from inside dispatch()'s iteration over
    // links_; mutating the map there would invalidate the iterator.
    loop_.post([this, id, reason] { handle_close(id, reason); });
  });
  links_[id].conn = conn;
  ++totals_.connections_accepted;
  m_.accepts.add();
  mark(policy_.accept_mark, "conn " + std::to_string(id), id);
  conn->start();
  // A peer that connects while the links drain (a worker forked late, or
  // one recycling its link) is told the run is over.
  if (finishing_) say_bye(links_[id]);
}

void Dispatcher::on_message(uint64_t id, Connection& conn, std::string&& wire) {
  auto it = links_.find(id);
  if (it == links_.end()) return;
  Link& l = it->second;
  m_.frames_in.add();
  const wq::MessageKind kind = wq::classify(wire);
  switch (kind) {
    case wq::MessageKind::kHello: {
      if (finishing_) return;  // the peer has its bye and gets no work
      const wq::HelloMessage hello = wq::decode_hello(wire);
      l.helloed = true;
      l.name = hello.worker_name;
      m_.hellos.add();
      mark(policy_.hello_mark, hello.worker_name, id);
      dispatch();
      return;
    }
    case wq::MessageKind::kResult:
    case wq::MessageKind::kResultBatch: {
      if (!l.helloed) {
        conn.close("result before hello");
        return;
      }
      for (const wq::ResultMessage& msg : wq::decode_result_batch(wire)) {
        handle_result(msg);
      }
      if (!conn.closed()) dispatch();
      check_finished();
      return;
    }
    case wq::MessageKind::kControl: {
      // Only pongs mean anything here: the master is the side that pings.
      const wq::ControlMessage ctl = wq::decode_control(wire);
      if (ctl.type != wq::ControlType::kPong || ctl.nonce != l.ping_nonce ||
          l.last_ping_sent <= 0) {
        return;
      }
      const double now = EventLoop::now();
      m_.rtt.observe(now - l.last_ping_sent);
      // A pong carrying the peer's clock is an offset sample: the midpoint
      // of send/receive approximates when the remote stamped.
      if (ctl.peer_time != 0.0) l.offset.feed(l.last_ping_sent, ctl.peer_time, now);
      l.last_ping_sent = 0;
      return;
    }
    case wq::MessageKind::kTelemetry: {
      wq::TelemetryMessage msg = wq::decode_telemetry(wire);
      ++totals_.telemetry_frames;
      m_.telemetry_frames.add();
      // Accumulate this hop's clock offset: the message arrives with the
      // sender's cumulative estimate (0 for a peer's own events) and
      // leaves with sender-clock-minus-THIS-clock added on top.
      msg.clock_offset += l.offset.offset();
      if (settings_.on_telemetry) {
        settings_.on_telemetry(std::move(msg));
      } else {
        m_.telemetry_dropped.add();
      }
      return;
    }
    default:
      if (!on_frame(l, kind, wire)) conn.close("unexpected message kind");
      return;
  }
}

void Dispatcher::handle_result(const wq::ResultMessage& msg) {
  auto it = index_by_task_id_.find(msg.task_id);
  if (it == index_by_task_id_.end()) {
    m_.unknown_results.add();
    return;
  }
  Task& t = tasks_[it->second];
  if (t.done) {
    // The task was re-dispatched after a drop and both attempts reported.
    ++totals_.duplicate_results;
    m_.duplicate_results.add();
    return;
  }
  t.done = true;
  ++totals_.tasks_completed;
  --pending_;
  m_.results.add();
  on_task_done(t, msg);
  if (t.minted && obs::Recorder::enabled()) {
    // Submit-to-result, only at the tier that minted the trace id (a relay
    // tier did not see the true submit time; the root covers it). The tiers
    // below contribute their task.inflight / lfm.run spans under the same
    // id.
    obs::TraceScope scope(t.task.trace_id);
    obs::Recorder::global().complete(obs::kPidHost, t.task.task_id,
                                     t.submitted_at,
                                     EventLoop::now() - t.submitted_at, "task",
                                     policy_.category);
  }
  Unit& u = units_[t.unit];
  if (--u.remaining == 0) {
    // A unit can complete while requeued (assigned == 0) after its link
    // died; dispatch() skips drained units on pop.
    auto lit = links_.find(u.assigned);
    if (lit != links_.end()) lit->second.inflight.erase(t.unit);
    u.assigned = 0;
    release_files(u);
    on_unit_done();
  }
  if (on_result_) on_result_(msg);
}

void Dispatcher::handle_close(uint64_t id, const std::string& reason) {
  auto it = links_.find(id);
  if (it == links_.end()) return;
  Link& l = it->second;
  add_traffic(totals_, *l.conn);
  m_.bytes_out.add(l.conn->bytes_out());
  m_.bytes_in.add(l.conn->bytes_in());
  // Peers close their links as they finish once the bye is out; a close
  // before it is a loss.
  if (!finishing_) {
    ++totals_.links_lost;
    m_.links_lost.add();
  } else {
    ++totals_.links_departed;
    m_.links_departed.add();
  }
  mark(policy_.disconnect_mark, reason, id);
  on_link_closed(l, reason);
  // At-least-once: everything this link was running goes back to the front
  // of the queue so a reconnecting (or sibling) peer retries it promptly;
  // tasks that already completed stay done (assign() skips them).
  for (auto rit = l.inflight.rbegin(); rit != l.inflight.rend(); ++rit) {
    Unit& u = units_[*rit];
    u.assigned = 0;
    if (u.remaining == 0) continue;
    queue_.push_front(*rit);
    totals_.requeued_tasks += static_cast<int64_t>(u.remaining);
    m_.requeued_tasks.add(static_cast<int64_t>(u.remaining));
  }
  links_.erase(it);
  dispatch();
  check_finished();
}

bool Dispatcher::has_room(Link& l) {
  if (!l.open() || l.inflight.size() >= settings_.units_per_link) return false;
  const bool joins_frame = &l == batch_link_ && !batch_.empty();
  if (!joins_frame && l.conn->queued_bytes() >= kWriteBacklogBytes) {
    m_.backpressure_stalls.add();
    return false;
  }
  return true;
}

void Dispatcher::dispatch() {
  while (!queue_.empty()) {
    const size_t index = queue_.front();
    if (units_[index].remaining == 0) {  // completed while requeued
      queue_.pop_front();
      continue;
    }
    Link* l = route(units_[index]);
    if (l == nullptr) break;  // every link full or backpressured
    if (l != batch_link_) flush();
    batch_link_ = l;
    queue_.pop_front();
    assign(*l, index);
    if (policy_.frame_per_unit) flush();
  }
  flush();
}

void Dispatcher::assign(Link& l, size_t index) {
  Unit& u = units_[index];
  ship_files(l, u);
  if (l.conn->closed()) {
    // A send() failure mid-staging closed the link; the unit goes back so
    // the deferred handle_close path can't miss it.
    queue_.push_front(index);
    return;
  }
  u.assigned = l.conn->id();
  l.inflight.insert(index);
  const double now = EventLoop::now();
  for (size_t i = u.first; i < u.first + u.count; ++i) {
    Task& t = tasks_[i];
    if (t.done) continue;  // completed before a requeue landed
    t.dispatched_at = now;
    if (obs::Recorder::enabled() && t.task.trace_id != 0) {
      // The "ship" marker of the submit→ship→run→result chain, stamped
      // with the task's trace id via the thread-local scope.
      obs::TraceScope scope(t.task.trace_id);
      obs::Recorder::global().instant(obs::kPidHost, t.task.task_id, now,
                                      policy_.ship_mark, policy_.category,
                                      policy_.ship_key, l.name);
    }
    batch_.push_back(t.task);
    if (batch_.size() >= settings_.max_batch) {
      flush();
      batch_link_ = &l;
    }
  }
}

void Dispatcher::ship_files(Link& l, const Unit& u) {
  // Each staged input in the order the unit's pending tasks name it; a
  // cacheable one crosses each link once. The frame goes out as its header
  // plus the file's own buffer.
  for (size_t i = u.first; i < u.first + u.count; ++i) {
    if (tasks_[i].done) continue;
    for (const wq::TaskMessage::FileStanza& s : tasks_[i].task.infiles) {
      auto f = u.files.find(s.name);
      if (f == u.files.end()) continue;  // not master-staged (peer-local)
      if (s.cacheable && l.shipped_files.count(s.name)) continue;
      l.conn->send(wq::encode_file_header(s.name, s.cacheable, f->second.size()),
                   f->second.buffer());
      ++totals_.files_sent;
      m_.files_sent.add();
      m_.frames_out.add();
      if (s.cacheable) l.shipped_files.insert(s.name);
    }
  }
}

void Dispatcher::release_files(Unit& u) {
  for (const auto& [name, file] : u.files) {
    const auto buffer = staged_buffers_.find(file.buffer().get());
    if (--buffer->second == 0) {
      staged_bytes_ -= file.size();
      staged_buffers_.erase(buffer);
    }
    const auto it = staged_names_.find(name);
    if (--it->second == 0) staged_names_.erase(it);
  }
  u.files.clear();
}

void Dispatcher::flush() {
  Link* l = std::exchange(batch_link_, nullptr);
  if (l != nullptr && !batch_.empty() && !l->conn->closed()) {
    send_batch(*l->conn, batch_);
    m_.frames_out.add();
    m_.dispatched_tasks.add(static_cast<int64_t>(batch_.size()));
    m_.batch_size.observe(static_cast<double>(batch_.size()));
  }
  batch_.clear();
}

void Dispatcher::heartbeat() {
  const double now = EventLoop::now();
  // Closing inside the loop is safe: handle_close runs deferred (on_accept).
  // Every peer answers pings whatever it is running, so silence means death
  // for any link. A link that never says hello is idle-closed like any
  // other, but only a helloed one is pinged.
  for (auto& [id, l] : links_) {
    if (l.conn->closed()) continue;
    if (settings_.idle_timeout > 0 &&
        now - l.conn->last_activity() > settings_.idle_timeout) {
      m_.idle_closes.add();
      l.conn->close("idle-timeout");
      continue;
    }
    if (!l.helloed) continue;
    l.ping_nonce += 1;
    l.last_ping_sent = now;
    wq::ControlMessage ping{wq::ControlType::kPing, l.ping_nonce, now};
    l.conn->send(wq::encode(ping));
    m_.pings.add();
    m_.frames_out.add();
  }
}

void Dispatcher::begin_finish() {
  finishing_ = true;
  // The listener stays open while the links drain, and a peer accepted now
  // gets its bye too (on_accept). Closed here, it would reset the
  // connections the kernel had already completed into its backlog, and a
  // worker forked late would retry a listener that is gone.
  for (auto& [id, l] : links_) say_bye(l);
}

void Dispatcher::say_bye(Link& l) {
  if (l.conn->closed()) return;
  wq::ControlMessage bye{wq::ControlType::kBye, 0, EventLoop::now()};
  l.conn->send(wq::encode(bye));
  m_.frames_out.add();
  // Tracing runs leave the close to the peer: its bye handler ships the
  // final kTelemetry frames (a foreman's include its drained subtree's)
  // before closing its end, and closing here would stop reading first and
  // lose them. Untraced runs keep the prompt close.
  if (!obs::Recorder::enabled()) l.conn->close_after_flush();
}

void Dispatcher::check_finished() {
  if (finishing_ || (running_ && pending_ == 0 && !tasks_.empty())) shutdown();
}

void Dispatcher::shutdown() {
  if (!finishing_) begin_finish();
  if (links_.empty()) {
    // The listener closes with the loop: a peer that connects after this is
    // refused, instead of waiting in a backlog nobody serves for a hello
    // reply that never comes (and holding up its parent's waitpid).
    listener_.close();
    loop_.stop();
  }
}

NetMasterStats Dispatcher::run(double timeout) {
  running_ = true;
  finishing_ = false;
  bool timed_out = false;
  uint64_t watchdog = 0;
  if (timeout > 0 && pending_ > 0) {
    watchdog = loop_.run_after(timeout, [this, &timed_out] {
      timed_out = true;
      loop_.stop();
    });
  }
  check_finished();
  if (pending_ > 0 || !links_.empty()) loop_.run();
  running_ = false;
  if (watchdog != 0) loop_.cancel_timer(watchdog);
  if (timed_out) {
    throw Error(std::string(policy_.category) + ": " + policy_.role +
                " run timed out with " + std::to_string(pending_) +
                " tasks pending");
  }
  return totals();
}

bool Dispatcher::drop_link(size_t k) {
  size_t seen = 0;
  for (auto& [id, l] : links_) {
    if (!l.open() || seen++ != k) continue;
    mark(policy_.drop_mark, "conn " + std::to_string(id), id);
    m_.injected_drops.add();
    l.conn->close("injected drop");
    return true;
  }
  return false;
}

int Dispatcher::connected() const {
  int n = 0;
  for (const auto& [id, l] : links_) n += l.open() ? 1 : 0;
  return n;
}

NetMasterStats Dispatcher::totals() const {
  // Closed links' traffic is already in totals_; add the live ones'.
  NetMasterStats s = totals_;
  for (const auto& [id, l] : links_) add_traffic(s, *l.conn);
  return s;
}

serde::Value Dispatcher::statusz_value() const {
  const NetMasterStats s = totals();
  serde::ValueDict d;
  d["role"] = std::string(policy_.role);
  d["pending"] = static_cast<int64_t>(pending_);
  d["tasks_submitted"] = static_cast<int64_t>(tasks_.size());
  d["tasks_completed"] = s.tasks_completed;
  d["duplicate_results"] = s.duplicate_results;
  d["staged_bytes"] = static_cast<int64_t>(staged_bytes_);
  d["bytes_sent"] = s.bytes_sent;
  d["bytes_received"] = s.bytes_received;
  d["telemetry_frames"] = s.telemetry_frames;
  add_statusz(d);
  serde::ValueList links;
  for (const auto& [id, l] : links_) {
    serde::ValueDict ld;
    ld["id"] = static_cast<int64_t>(id);
    ld["name"] = l.name;
    ld["alive"] = l.open();
    ld["queued_bytes"] = static_cast<int64_t>(l.conn->queued_bytes());
    ld["clock_offset_seconds"] = l.offset.offset();
    add_link_statusz(l, ld);
    links.push_back(serde::Value(std::move(ld)));
  }
  d[policy_.links_key] = std::move(links);
  return serde::Value(std::move(d));
}

}  // namespace lfm::net
