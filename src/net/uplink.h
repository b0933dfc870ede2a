// Uplink: the dialing end of a transport link, shared by net::WorkerClient
// (toward its master) and fed::Foreman (toward its root) (DESIGN.md §13).
//
// Owns the event loop and the connection. It connects, introduces itself
// with a hello naming itself and its capacity, answers pings with pongs,
// and ships this process's own buffered trace events upward in kTelemetry
// frames (tracing runs only). A connection that dies without a bye is a
// network fault: the uplink reconnects with chaos::RetryPolicy exponential
// backoff (jitter included, deterministically seeded by the peer name).
//
// It also holds the files the peer ships, as the bytes that arrived, for
// the current link only: every new link starts empty, since the peer ships
// a cacheable file once per link and re-ships whatever a fresh link needs.
// A one-shot (non-cacheable) input is dropped once the owner hands on the
// task that names it (release_inputs).
//
// Both dialing ends follow one silence rule: the uplink closes a link whose
// peer has not answered the hello within 5 s, or that has been silent for
// the owner's idle_timeout (a worker's own option, a foreman's shard
// service.idle_timeout). Either close counts against the budget below.
//
// The reconnect budget (max_attempts) counts failures — failed connects
// plus unexpected closes — since the owner last proved the link works and
// called reset_budget(): a worker on each completed task, a foreman on each
// upward relay of results. A bare TCP accept does NOT reset it: against a
// master that accepts and immediately drops (a crash loop, a misrouted
// port) the uplink must eventually give up rather than flap forever.
// Conversely a long-lived peer that keeps making progress never exhausts
// the budget, no matter how many sparse disconnects it weathers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/recorder.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

// Reconnect backoff used when the options don't override it: 20 ms doubling
// to 1 s with 25% deterministic jitter. (RetryPolicy's own default of
// backoff_base == 0 — immediate, seed-faithful requeue — would spin against
// a dead master.)
chaos::RetryPolicy default_reconnect_policy();

class Uplink {
 public:
  // Thread-safe: make run() return after the current callback.
  void stop();

  // True when the run ended by exhausting the reconnect budget (as opposed
  // to a bye or stop()).
  bool gave_up() const { return gave_up_; }

 protected:
  // Who this end is and where it dials, copied from the owner's options.
  struct Dial {
    const char* component;  // names this end in logs and errors: "net",
    const char* role;       // "worker"
    std::string name;
    std::string host;
    uint16_t port;
    alloc::Resources capacity;
    chaos::RetryPolicy reconnect;
    int max_attempts;
    double idle_timeout;  // close after this much silence (0 = off)
  };

  // `telemetry_dropped` counts own trace events discarded under
  // backpressure.
  Uplink(Dial dial, obs::Count telemetry_dropped);
  virtual ~Uplink() = default;

  // Every frame from the peer: files are held in files_ (then on_file
  // runs), task dispatches go to on_tasks, pings get a pong (carrying this
  // side's clock on tracing runs), and anything else closes the link.
  virtual void on_message(Connection& conn, std::string&& wire);
  virtual void on_file(const std::string& /*name*/, size_t /*bytes*/) {}
  virtual void on_tasks(Connection& conn, const std::string& wire) = 0;
  // A bye arrived (the link stays open; the owner decides how to drain).
  virtual void on_bye(Connection& conn) = 0;
  virtual void on_connected() {}
  // The link closed after a bye or stop().
  virtual void on_link_ended() {}
  // End the local side without a bye: the reconnect budget ran out, or
  // stop() was called.
  virtual void wind_down() { loop_.stop(); }

  // Run `fn` every `interval` seconds while serve() runs.
  void every(double interval, std::function<void()> fn);
  // Connect (retrying with backoff) and run the loop until the owner stops
  // it, closing a silent link (see the header). Then ship this end's last
  // telemetry while the link is still up (a foreman's is: it drains its own
  // tier first), close the link, and throw lfm::Error if the peer was never
  // reached at all.
  void serve();
  void ship_telemetry();
  void reset_budget() { attempt_ = 0; }
  // Drop the one-shot inputs `task` names: it has been handed on.
  void release_inputs(const wq::TaskMessage& task);
  // Drop one held file; returns the next.
  wq::FileSet::iterator drop_file(wq::FileSet::iterator it);

  const Dial dial_;
  EventLoop loop_;
  std::shared_ptr<Connection> conn_;
  wq::FileSet files_;       // shipped on the current link
  size_t held_bytes_ = 0;   // their total size
  double last_send_ = 0.0;  // EventLoop::now() of the last frame sent
  int attempt_ = 0;         // failures since the last reset_budget()
  int64_t reconnects_ = 0;
  int64_t telemetry_dropped_ = 0;  // own events discarded under backpressure
  bool bye_ = false;

 private:
  void try_connect();
  void schedule_reconnect(const std::string& reason);
  void answer_control(Connection& conn, const std::string& wire);

  const uint64_t jitter_seed_;
  obs::Count telemetry_dropped_m_;
  std::vector<uint64_t> timers_;
  uint64_t next_conn_id_ = 1;
  bool ever_connected_ = false;
  bool gave_up_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace lfm::net
