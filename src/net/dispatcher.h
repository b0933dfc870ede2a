// Dispatcher: the one master-side dispatch core under net::MasterService and
// fed::RootMaster (DESIGN.md §13, §14).
//
// Serves the Work Queue dialogue over a listener. Peers (workers, or
// foremen) connect, introduce themselves with a hello, receive staged input
// files and task dispatches, and stream results back; every frame is the
// one wq wire format. The core owns everything that dialogue needs on
// the master side:
//   * accept, hello, ping/pong with a per-link ClockOffsetEstimator, and the
//     clock-offset accumulation on relayed kTelemetry frames; idle close
//     for every link, including one that never says hello;
//   * per-task done flags (exactly-once results, at-least-once attempts: a
//     late result for a completed task is counted as a duplicate and
//     discarded); a result goes to on_result and is not kept;
//   * each unit's staged files, held until its last task completes, as
//     buffers shared with whoever else holds them;
//   * per-link in-flight units, requeued to the front of the queue when the
//     link closes; a link that closes before the bye is lost, one that
//     closes after it has departed;
//   * the ship-once file set per link, and batch coalescing behind the
//     link's write backlog bound (a peer that stops reading stops receiving
//     work, not the whole master);
//   * the finish sequence, byte totals, common statusz fields, and metric
//     handles resolved once per instance.
//
// The scheduling unit is a group of tasks that shares its staged files and
// lands whole on one link; MasterService queues every task as a group of
// one. What really differs between the two masters is a policy, fixed by
// the derived type: which link gets the next unit (route()), whether a batch
// frame may span units, the metric/trace vocabulary, and the hooks the root
// uses for its journal and kStats frames. Liveness is one rule for every
// link: each helloed link is pinged every heartbeat, and any link silent
// for idle_timeout is closed, busy or not.
//
// A dispatcher ends the run on its own only inside run(): once every
// submitted task has a result it sends bye to every peer and stops the loop
// when the last link is gone. Outside run() (a foreman's embedded service,
// fed from above) only shutdown() starts that sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/clock.h"
#include "obs/recorder.h"
#include "serde/value.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {

// Deterministic, nonzero trace id for a task (derived from its id alone).
// Minted at whatever process is the root of the running tree — a standalone
// MasterService or a fed::RootMaster — when tracing is enabled, then
// carried in the task/result frames' trailing extension fields.
uint64_t mint_trace_id(uint64_t task_id);

struct NetMasterStats {
  int64_t tasks_completed = 0;
  int64_t duplicate_results = 0;  // results for already-completed tasks
  int64_t requeued_tasks = 0;     // in-flight dispatches returned by drops
  int64_t connections_accepted = 0;
  int64_t links_lost = 0;      // links closed before the bye
  int64_t links_departed = 0;  // links closed after it
  int64_t files_sent = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages_sent = 0;
  int64_t messages_received = 0;
  int64_t telemetry_frames = 0;  // kTelemetry frames received from peers
};

class Dispatcher {
 public:
  // Names and rules that differ between the masters; one constant instance
  // per derived type.
  struct Policy {
    const char* category;   // metric prefix ("net" -> "net.results") and
                            // trace category
    const char* role;       // statusz role
    const char* links_key;  // statusz list of links
    // Trace instants (static strings: the recorder keeps the pointer).
    const char* accept_mark;
    const char* hello_mark;
    const char* disconnect_mark;
    const char* drop_mark;
    const char* ship_mark;  // per task when it leaves on a link,
    const char* ship_key;   // with the link's name under this key
    // A batch frame never spans two units.
    bool frame_per_unit;
  };

  // The link-level limits, copied from the derived type's config.
  struct Settings {
    uint16_t port = 0;
    std::string bind_addr;
    size_t units_per_link = 1;  // in-flight units per link
    size_t max_batch = 64;      // task dispatches per batch frame
    double heartbeat_interval = 0.0;
    double idle_timeout = 0.0;
    obs::Metrics* metrics = nullptr;
    std::function<void(wq::TelemetryMessage&&)> on_telemetry;
  };

  // The loop's callbacks hold `this`.
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  uint16_t port() const { return listener_.port(); }

  // Fires once per completed task, on the loop thread, with the message as
  // decoded; the core keeps no copy.
  void set_on_result(std::function<void(const wq::ResultMessage&)> fn) {
    on_result_ = std::move(fn);
  }

  // Send bye to every peer, close links after their write queues flush, and
  // stop the loop once the last one is gone. A peer that connects in the
  // meantime gets a bye and no work; the listener closes with the loop.
  // Idempotent.
  void shutdown();

  // JSON snapshot for the /statusz endpoint: queue depth, completion
  // counts, staged bytes held (each buffer once, however many units share
  // it), and per-link liveness / in-flight / backlog / clock offset.
  serde::Value statusz_value() const;

 protected:
  struct Link {
    std::shared_ptr<Connection> conn;
    bool helloed = false;
    std::string name;
    std::set<size_t> inflight;            // unit indices in flight here
    std::set<std::string> shipped_files;  // cacheable files already sent
    double last_ping_sent = 0.0;
    uint64_t ping_nonce = 0;
    // Peer-clock-minus-local-clock, fed from pongs that carry peer_time.
    obs::ClockOffsetEstimator offset;
    bool open() const { return helloed && !conn->closed(); }
  };

  struct Task {
    wq::TaskMessage task;
    size_t unit = 0;
    bool done = false;
    bool minted = false;         // this tier minted the trace id
    double submitted_at = 0.0;   // EventLoop::now() at submit
    double dispatched_at = 0.0;  // last dispatch (re-dispatch overwrites)
  };

  struct Unit {
    wq::FileSet files;  // staged inputs, released when the unit completes
    size_t first = 0;   // its tasks are tasks_[first, first + count)
    size_t count = 0;
    size_t remaining = 0;   // tasks not yet done
    uint64_t assigned = 0;  // link running it (0 = queued)
  };

  Dispatcher(EventLoop& loop, const Policy& policy, Settings settings);
  virtual ~Dispatcher();

  // Submission: open a unit, add its tasks (a task already done, e.g.
  // recovered from a journal, is stored but never dispatched; one already
  // pending here is skipped), then queue it. queue_unit() returns false,
  // and releases the unit's files, when nothing in the unit remains to
  // run.
  void open_unit(wq::FileSet files);
  void add_task(wq::TaskMessage task, bool done);
  bool queue_unit();

  // The next unit's link, or nullptr to leave it queued.
  virtual Link* route(const Unit& unit) = 0;
  // True when `link` can take another unit now. The write backlog bound
  // gates each frame: a unit joining the batch frame open for `link` is not
  // held back by the bytes queued ahead of that frame.
  bool has_room(Link& link);

  // Policy hooks.
  virtual void on_task_done(const Task&, const wq::ResultMessage&) {}
  virtual void on_unit_done() {}
  // Before the link's in-flight units requeue.
  virtual void on_link_closed(const Link&, const std::string& /*reason*/) {}
  // A frame kind the core does not handle; false closes the link.
  virtual bool on_frame(Link&, wq::MessageKind, const std::string&) {
    return false;
  }
  virtual void add_statusz(serde::ValueDict& d) const = 0;
  virtual void add_link_statusz(const Link& link, serde::ValueDict& d) const = 0;

  // Run the loop until every submitted task has a result, then finish the
  // run. Throws lfm::Error if `timeout` (> 0) wall seconds elapse first.
  NetMasterStats run(double timeout);

  // Abruptly close the k-th (by accept order) live link, as a network
  // fault would: its in-flight units requeue.
  bool drop_link(size_t k);

  NetMasterStats totals() const;
  int connected() const;
  size_t pending() const { return pending_; }
  // True while a unit not yet complete holds a staged file of this name.
  bool stages(const std::string& name) const { return staged_names_.count(name) > 0; }
  size_t queue_depth() const { return queue_.size(); }
  bool finishing() const { return finishing_; }
  std::map<uint64_t, Link>& links() { return links_; }
  const std::map<uint64_t, Link>& links() const { return links_; }
  obs::Metrics* metrics() const { return settings_.metrics; }

 private:
  // Handles for the "<category>.<name>" series.
  struct Metrics {
    obs::Metrics* sink;
    std::string p;
    obs::Count accepts{sink, p + "accepts"};
    obs::Count frames_in{sink, p + "frames_in"};
    obs::Count frames_out{sink, p + "frames_out"};
    obs::Count hellos{sink, p + "hellos"};
    obs::Count pings{sink, p + "pings"};
    obs::Count telemetry_frames{sink, p + "telemetry_frames"};
    obs::Count telemetry_dropped{sink, p + "telemetry_dropped_frames"};
    obs::Count unknown_results{sink, p + "unknown_results"};
    obs::Count duplicate_results{sink, p + "duplicate_results"};
    obs::Count results{sink, p + "results"};
    obs::Count links_lost{sink, p + "links_lost"};
    obs::Count links_departed{sink, p + "links_departed"};
    obs::Count requeued_tasks{sink, p + "requeued_tasks"};
    obs::Count files_sent{sink, p + "files_sent"};
    obs::Count backpressure_stalls{sink, p + "backpressure_stalls"};
    obs::Count dispatched_tasks{sink, p + "dispatched_tasks"};
    obs::Count idle_closes{sink, p + "idle_closes"};
    obs::Count injected_drops{sink, p + "injected_drops"};
    obs::Count bytes_out{sink, p + "bytes_out"};
    obs::Count bytes_in{sink, p + "bytes_in"};
    obs::Spread rtt{sink, p + "rtt_seconds", 1e-6, 10.0};
    obs::Spread batch_size{sink, p + "batch_size", 1.0, 4096.0};
  };

  void mark(const char* name, const std::string& detail, uint64_t tid) const;
  void on_accept(int fd);
  void on_message(uint64_t id, Connection& conn, std::string&& wire);
  void handle_result(const wq::ResultMessage& msg);
  void handle_close(uint64_t id, const std::string& reason);
  void dispatch();
  void assign(Link& link, size_t unit);
  void ship_files(Link& link, const Unit& unit);
  void release_files(Unit& unit);
  // Send the open batch frame to its link.
  void flush();
  void heartbeat();
  void begin_finish();
  void say_bye(Link& link);
  void check_finished();

  EventLoop& loop_;
  const Policy& policy_;
  Settings settings_;
  Metrics m_;
  Listener listener_;
  std::map<uint64_t, Link> links_;  // accept order == key order
  uint64_t next_conn_id_ = 1;
  std::vector<Task> tasks_;
  std::vector<Unit> units_;
  // The bytes of the distinct buffers the units' files hold: a buffer
  // counts from the first unit that holds it to the last.
  size_t staged_bytes_ = 0;
  std::unordered_map<const serde::Bytes*, size_t> staged_buffers_;  // units holding each
  std::unordered_map<std::string, size_t> staged_names_;  // units holding each
  std::deque<size_t> queue_;  // unit indices
  std::unordered_map<uint64_t, size_t> index_by_task_id_;
  std::vector<wq::TaskMessage> batch_;  // the open batch frame,
  Link* batch_link_ = nullptr;          // bound for this link
  std::function<void(const wq::ResultMessage&)> on_result_;
  size_t pending_ = 0;
  bool running_ = false;  // inside run(): the run ends on its own
  bool finishing_ = false;
  uint64_t heartbeat_timer_ = 0;
  NetMasterStats totals_;
};

}  // namespace lfm::net
