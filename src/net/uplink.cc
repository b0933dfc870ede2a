#include "net/uplink.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "obs/collector.h"
#include "obs/recorder.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/log.h"

namespace lfm::net {

namespace {

// Give up on a connection that never answers the hello this long after
// connect. Tighter than idle_timeout: a live peer pings or dispatches within
// its heartbeat, so a silent accept is a dead one — typically a connection
// the kernel completed into the backlog of a listener whose owner already
// stopped serving it.
constexpr double kHandshakeTimeout = 5.0;

}  // namespace

chaos::RetryPolicy default_reconnect_policy() {
  chaos::RetryPolicy p;
  p.backoff_base = 0.02;
  p.backoff_multiplier = 2.0;
  p.backoff_max = 1.0;
  p.jitter_fraction = 0.25;
  return p;
}

Uplink::Uplink(Dial dial, obs::Count telemetry_dropped)
    : dial_(std::move(dial)),
      jitter_seed_(hash64(dial_.name)),
      telemetry_dropped_m_(std::move(telemetry_dropped)) {}

void Uplink::stop() {
  stopped_.store(true);
  loop_.post([this] {
    if (conn_ && !conn_->closed()) conn_->close("stopped");
    wind_down();
    loop_.stop();
  });
}

void Uplink::every(double interval, std::function<void()> fn) {
  timers_.push_back(loop_.run_every(interval, std::move(fn)));
}

void Uplink::serve() {
  bye_ = false;
  gave_up_ = false;
  attempt_ = 0;
  if (dial_.idle_timeout > 0) {
    every(std::max(0.25, dial_.idle_timeout / 4.0), [this] {
      if (!conn_ || conn_->closed()) return;
      const double last = std::max(conn_->last_activity(), last_send_);
      if (EventLoop::now() - last > dial_.idle_timeout) conn_->close("idle-timeout");
    });
  }
  try_connect();
  loop_.run();
  for (const uint64_t timer : timers_) loop_.cancel_timer(timer);
  timers_.clear();
  // Connection::send writes synchronously when the socket can take it, so
  // this works with the loop already stopped.
  ship_telemetry();
  if (conn_ && !conn_->closed()) conn_->close(std::string(dial_.role) + " shutdown");
  conn_.reset();
  if (gave_up_ && !ever_connected_) {
    throw Error(std::string(dial_.component) + ": " + dial_.role + " \"" +
                dial_.name + "\" could not reach " + dial_.host + ":" +
                std::to_string(dial_.port));
  }
}

void Uplink::try_connect() {
  if (stopped_.load()) {
    loop_.stop();
    return;
  }
  const int fd = connect_tcp(dial_.host, dial_.port);
  if (fd < 0) {
    ++attempt_;
    schedule_reconnect("connect failed");
    return;
  }
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  // Deliberately NOT resetting attempt_ here: a successful connect proves
  // only that something accepted (see the header).
  files_.clear();
  held_bytes_ = 0;
  conn_ = std::make_shared<Connection>(loop_, fd, next_conn_id_++);
  conn_->set_on_message(
      [this](Connection& c, std::string&& wire) { on_message(c, std::move(wire)); });
  conn_->set_on_close([this](Connection&, const std::string& reason) {
    loop_.post([this, reason] {
      if (bye_ || stopped_.load()) {
        on_link_ended();
        return;
      }
      ++attempt_;
      schedule_reconnect(reason);
    });
  });
  conn_->start();
  conn_->send(wq::encode(wq::HelloMessage{dial_.name, dial_.capacity}));
  last_send_ = EventLoop::now();
  std::weak_ptr<Connection> weak = conn_;
  loop_.run_after(kHandshakeTimeout, [this, weak] {
    const auto c = weak.lock();
    if (c && c == conn_ && !c->closed() && c->messages_in() == 0) {
      c->close("handshake-timeout");
    }
  });
  on_connected();
}

void Uplink::schedule_reconnect(const std::string& reason) {
  if (attempt_ > dial_.max_attempts) {
    LFM_WARN(dial_.component, std::string(dial_.role) + " " + dial_.name +
                                  " giving up after " +
                                  std::to_string(attempt_ - 1) +
                                  " failed reconnects (" + reason + ")");
    gave_up_ = true;
    // Never reached at all: nothing to land, stop right away.
    if (!ever_connected_) {
      loop_.stop();
      return;
    }
    wind_down();
    return;
  }
  const double delay = dial_.reconnect.backoff_delay(jitter_seed_, attempt_ - 1);
  loop_.run_after(delay, [this] { try_connect(); });
}

void Uplink::on_message(Connection& conn, std::string&& wire) {
  switch (wq::classify(wire)) {
    case wq::MessageKind::kFile: {
      wq::FileMessage fm = wq::decode_file(wire);
      const size_t bytes = fm.content.size();
      serde::Bytes& held = files_[fm.name];
      held_bytes_ = held_bytes_ - held.size() + bytes;
      held = std::move(fm.content);
      on_file(fm.name, bytes);
      return;
    }
    case wq::MessageKind::kTask:
    case wq::MessageKind::kTaskBatch:
      on_tasks(conn, wire);
      return;
    case wq::MessageKind::kControl:
      answer_control(conn, wire);
      return;
    default:
      conn.close(std::string("unexpected message kind for a ") + dial_.role);
      return;
  }
}

void Uplink::release_inputs(const wq::TaskMessage& task) {
  // The peer re-stages a one-shot input with every dispatch that names it.
  for (const wq::TaskMessage::FileStanza& stanza : task.infiles) {
    if (stanza.cacheable) continue;
    const auto it = files_.find(stanza.name);
    if (it != files_.end()) drop_file(it);
  }
}

wq::FileSet::iterator Uplink::drop_file(wq::FileSet::iterator it) {
  held_bytes_ -= it->second.size();
  return files_.erase(it);
}

void Uplink::answer_control(Connection& conn, const std::string& wire) {
  const wq::ControlMessage ctl = wq::decode_control(wire);
  if (ctl.type == wq::ControlType::kPing) {
    wq::ControlMessage pong{wq::ControlType::kPong, ctl.nonce, ctl.timestamp};
    // Carry this side's clock so the pinger can estimate the offset;
    // emitted only on tracing runs (the field stays off the wire otherwise,
    // keeping untraced control frames byte-identical).
    if (obs::Recorder::enabled()) pong.peer_time = EventLoop::now();
    conn.send(wq::encode(pong));
    last_send_ = EventLoop::now();
  } else if (ctl.type == wq::ControlType::kBye) {
    bye_ = true;
    on_bye(conn);
  }
}

void Uplink::ship_telemetry() {
  if (!obs::Recorder::enabled()) return;
  if (!conn_ || conn_->closed()) return;
  obs::Recorder& r = obs::Recorder::global();
  if (r.event_count() == 0 && telemetry_dropped_ == 0) return;
  if (conn_->queued_bytes() > kWriteBacklogBytes) {
    // Backpressure: the link is already choking on results/files. Trace
    // events are the one payload that may be discarded — drop the batch,
    // remember how much, and report it in the next frame that does ship.
    const std::vector<obs::TraceEvent> dropped = r.drain_events();
    telemetry_dropped_ += static_cast<int64_t>(dropped.size());
    telemetry_dropped_m_.add(static_cast<int64_t>(dropped.size()));
    return;
  }
  wq::TelemetryMessage msg;
  msg.source = dial_.name;
  msg.process_id = static_cast<uint64_t>(::getpid());
  msg.clock_offset = 0.0;  // the receiving hop adds its estimate
  msg.dropped = telemetry_dropped_;
  telemetry_dropped_ = 0;
  msg.events = obs::to_telemetry(r.drain_events());
  msg.counters = r.metrics().counters();
  msg.gauges = r.metrics().gauges();
  conn_->send(wq::encode(msg));
  last_send_ = EventLoop::now();
}

}  // namespace lfm::net
