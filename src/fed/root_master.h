// RootMaster: the top tier of the federated dispatch hierarchy (DESIGN.md
// §14).
//
// The foreman-facing policy over net::Dispatcher, the same dispatch core a
// net::MasterService runs over its workers. A root master does not talk to
// workers: it shards *task groups* across N fed::Foreman peers, each of
// which runs a net::MasterService over its own worker pool. Foremen connect
// inbound over the same framed transport workers use (hello / file / task /
// result / control), plus the kStats frame that aggregates shard telemetry
// upward — so one root sees the whole tree's health without polling any
// worker directly.
//
// Routing is cache-affinity-aware: a group is steered to the foreman that
// already holds the most of its cacheable input files (ship-once per link),
// tie-broken by lightest current load. A group's tasks travel in batch
// frames of their own. Every foreman link is pinged each heartbeat, and a
// link silent for idle_timeout is dead whether or not it holds groups.
//
// Failure semantics extend the transport's exactly-once discipline one
// level up: a dead foreman's in-flight groups requeue to sibling shards
// (minus tasks already completed), and a straggler result arriving later
// for a re-dispatched task is counted and discarded against the per-task
// done flag. A link that closes before the root's bye is a lost foreman;
// one that closes after it has departed. With a chaos::Journal attached,
// every completion (and every lost foreman) is journaled write-ahead, and
// recover() re-arms the done-flag set from a previous run's journal, so a
// restarted root never re-runs a task that already completed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "chaos/journal.h"
#include "net/dispatcher.h"
#include "net/event_loop.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::obs {
class Collector;
}  // namespace lfm::obs

namespace lfm::fed {

// The unit of root-level scheduling: a named batch of tasks plus the staged
// input files they share. The whole group lands on one foreman (its tasks
// then spread over that shard's workers), which is what makes second-tier
// file caching pay: the group's cacheable files cross the root link once.
struct TaskGroup {
  std::string name;
  std::vector<wq::TaskMessage> tasks;
  // Master-staged inputs named by the tasks' infiles. Groups whose sets
  // are built from one shared buffer (a pkg::PackedEnvironment::tar) hold
  // one copy of it between them.
  wq::FileSet files;
};

struct RootMasterConfig {
  uint16_t port = 0;  // 0 = ephemeral; read back via port()
  std::string bind_addr = "127.0.0.1";
  // In-flight groups per foreman (group-level pipelining depth).
  int groups_per_foreman = 4;
  // Task dispatches coalesced into one batch frame per send.
  size_t max_batch = 64;
  double heartbeat_interval = 2.0;  // ping every foreman this often
  double idle_timeout = 30.0;       // close after this much silence (0 = off)
  // Metrics sink: null records into the process-wide registry gated on
  // obs::Recorder::enabled(); non-null records unconditionally (co-hosted
  // fed components use namespaced obs::Metrics instances).
  obs::Metrics* metrics = nullptr;
  // Write-ahead journal for completions (and foreman loss); optional.
  chaos::Journal* journal = nullptr;
  // Sink for kTelemetry frames relayed up the tree. The root adds its
  // foreman-link clock-offset estimate to each frame's cumulative offset
  // before merging, so every remote event normalizes into root time. Null
  // drops telemetry (counted as fed.telemetry_dropped_frames).
  obs::Collector* collector = nullptr;
};

struct RootStats {
  int64_t groups_submitted = 0;
  int64_t groups_completed = 0;
  int64_t tasks_completed = 0;
  int64_t duplicate_results = 0;  // results for already-done tasks
  int64_t recovered_done = 0;     // tasks skipped via recover()'s done flags
  int64_t requeued_groups = 0;    // groups returned by foreman deaths
  int64_t requeued_tasks = 0;     // not-yet-done tasks inside those groups
  int64_t foremen_accepted = 0;
  int64_t foremen_lost = 0;      // links closed before the root's bye
  int64_t foremen_departed = 0;  // links closed after it
  int64_t files_sent = 0;
  int64_t stats_frames = 0;      // shard kStats frames received
  int64_t telemetry_frames = 0;  // kTelemetry frames received (incl. relays)
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
};

class RootMaster : private net::Dispatcher {
 public:
  RootMaster(net::EventLoop& loop, RootMasterConfig config = {});

  using Dispatcher::port;
  using Dispatcher::set_on_result;
  using Dispatcher::statusz_value;

  // Arm the done-flag set from a previous run's journal: any subsequently
  // submitted task whose id has a kCompleted record is marked done at
  // submit time and never dispatched. Call before submit().
  void recover(const chaos::Journal& journal);

  // Queue a group for dispatch (loop thread only). Task ids must be unique
  // across all submitted groups.
  void submit(TaskGroup group);

  // Run the loop until every submitted task has a result, then send bye to
  // all foremen, flush, and return the aggregate stats. Throws lfm::Error
  // if `timeout` (> 0) wall seconds elapse first.
  RootStats run_until_complete(double timeout = 0.0) {
    run(timeout);
    return stats();
  }

  // --- introspection ---------------------------------------------------------
  int connected_foremen() const { return connected(); }
  RootStats stats() const;
  // Last telemetry frame per live foreman, by name.
  std::map<std::string, wq::StatsMessage> shard_stats() const;
  // Groups currently in flight per live foreman, by name (root's own
  // bookkeeping, no telemetry lag) — fault-injection tests key off this.
  std::map<std::string, size_t> shard_loads() const;

 private:
  Link* route(const Unit& group) override;
  void on_task_done(const Task& t, const wq::ResultMessage& msg) override;
  void on_unit_done() override;
  void on_link_closed(const Link& link, const std::string& reason) override;
  bool on_frame(Link& link, wq::MessageKind kind,
                const std::string& wire) override;
  void add_statusz(serde::ValueDict& d) const override;
  void add_link_statusz(const Link& link, serde::ValueDict& d) const override;

  chaos::Journal* journal_;
  std::unordered_set<uint64_t> recovered_done_;
  std::map<uint64_t, wq::StatsMessage> last_stats_;  // by link id
  RootStats own_;  // the counts the dispatch core does not keep
  obs::Count recovered_m_{metrics(), "fed.recovered_done"};
  obs::Count groups_submitted_m_{metrics(), "fed.groups_submitted"};
  obs::Count groups_completed_m_{metrics(), "fed.groups_completed"};
  obs::Count requeued_groups_m_{metrics(), "fed.requeued_groups"};
  obs::Count affinity_hits_m_{metrics(), "fed.affinity_hits"};
  obs::Count stats_frames_m_{metrics(), "fed.stats_frames"};
  obs::Level tree_workers_m_{metrics(), "fed.tree_workers"};
  obs::Level tree_cache_bytes_m_{metrics(), "fed.tree_cache_bytes"};
};

}  // namespace lfm::fed
