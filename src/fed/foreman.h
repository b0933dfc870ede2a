// Foreman: the middle tier of the federated dispatch hierarchy (DESIGN.md
// §14).
//
// One process, one event loop, two faces. Upward it is a net::Uplink to a
// fed::RootMaster — it connects out like a worker would (hello, then task /
// file / control frames in, result / stats frames out), reconnecting with
// chaos::RetryPolicy backoff when the link drops; each relay of results
// upward restores its full reconnect budget. It follows a worker's silence
// rule: a root that leaves the hello unanswered for 5 s, or is silent for
// the shard's own service.idle_timeout, is dropped like a closed link.
// Downward it runs a net::MasterService over its own worker pool: every
// task frame the root sends is decoded and submitted into the local
// dispatch stream (the relay hop), and every local result is coalesced into
// batch frames travelling back up. The foreman drives its loop itself and
// never runs the service to completion: the run ends when the root says
// bye, which shuts the local tier down.
//
// The foreman is also the second-tier file cache: the uplink holds each
// file the root ships, whole, and each relayed task takes a copy of the
// inputs it names into the local service, which holds it until the task
// completes. A one-shot input is dropped once its batch is submitted. A
// cacheable file therefore crosses the root link once per foreman link and
// fans out to W workers from shard-local memory — the root's egress scales
// with the number of shards, not the number of workers.
//
// When a relayed batch leaves the files held past cache_capacity_bytes,
// the foreman drops every file that no task pending here names, except
// those no relayed task has named yet (they arrived ahead of a batch still
// to come); the files of the work in flight can exceed the bound. The root
// ships a cacheable file once per link, so a batch that names a dropped
// file resets the uplink: the root requeues the link's groups and
// re-stages their files on the fresh link, which starts empty. A file no
// task names again (a module named after its task) goes without a reset.
//
// Telemetry aggregates upward: a periodic kStats frame reports live worker
// count, local queue depth, relayed completions, fan-out volume, and the
// files held, so the root observes the whole subtree through one link.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/master_service.h"
#include "net/uplink.h"
#include "wq/protocol.h"

namespace lfm::fed {

struct ForemanConfig {
  std::string name = "foreman";
  std::string root_host = "127.0.0.1";
  uint16_t root_port = 0;
  // Advertised upward in the hello: nominally the shard's aggregate worker
  // capacity.
  alloc::Resources capacity{4.0, 8e9, 50e9};
  // The worker-facing MasterService tier. `service.port` is the local
  // listen port (0 = ephemeral; read back via worker_port()), and
  // `service.idle_timeout` also bounds how long the foreman listens to a
  // silent root.
  net::MasterServiceConfig service;
  chaos::RetryPolicy reconnect = net::default_reconnect_policy();
  // Upstream failures tolerated since the last relayed progress (the same
  // budget discipline net::WorkerClient applies).
  int max_reconnect_attempts = 30;
  double stats_interval = 1.0;  // kStats cadence (0 = off)
  // Bytes of shipped files held past which the idle ones are dropped.
  int64_t cache_capacity_bytes = 256LL << 20;
  // Metrics sink for the foreman's own counters; also becomes the local
  // MasterService's sink when service.metrics is unset. Null = process-wide
  // registry gated on obs::Recorder.
  obs::Metrics* metrics = nullptr;
};

class Foreman : private net::Uplink {
 public:
  explicit Foreman(ForemanConfig config);

  // The local worker-facing listen port — known before run(), so worker
  // processes can be launched first.
  uint16_t worker_port() const { return service_.port(); }

  // Connect upward (retrying with backoff) and serve until the root says
  // bye (then drain the local tier), stop() is called, or the reconnect
  // budget exhausts. Returns the number of results relayed upward. Throws
  // lfm::Error if the root was never reached at all.
  int64_t run();

  using Uplink::gave_up;
  using Uplink::stop;

  int64_t results_relayed() const { return relayed_; }
  int64_t tasks_received() const { return received_; }
  net::MasterService& service() { return service_; }

 private:
  struct Metrics {
    obs::Metrics* sink;
    obs::Count connects{sink, "foreman.connects"};
    obs::Count frames_in{sink, "foreman.frames_in"};
    obs::Count files_cached{sink, "foreman.files_cached"};
    obs::Count file_bytes_in{sink, "foreman.file_bytes_in"};
    obs::Count files_dropped{sink, "foreman.files_dropped"};
    obs::Count cache_resets{sink, "foreman.cache_resets"};
    obs::Count tasks_received{sink, "foreman.tasks_received"};
    obs::Count results_relayed{sink, "foreman.results_relayed"};
    obs::Count stats_sent{sink, "foreman.stats_sent"};
    obs::Count telemetry_dropped_frames{sink, "foreman.telemetry_dropped_frames"};
    obs::Count telemetry_relayed{sink, "foreman.telemetry_relayed"};
  };

  net::MasterServiceConfig shard_config();
  void on_message(net::Connection& conn, std::string&& wire) override;
  void on_file(const std::string& name, size_t bytes) override;
  void on_tasks(net::Connection& conn, const std::string& wire) override;
  void drop_idle_files();
  void on_bye(net::Connection& conn) override;
  void on_connected() override;
  // Abandon the run but land the local tier cleanly: workers get byes and
  // the loop stops once their connections drain.
  void wind_down() override { service_.shutdown(); }
  void on_local_result(const wq::ResultMessage& result);
  void flush_results();
  void send_stats();
  // Relay a worker's kTelemetry frame upward (the local MasterService has
  // already added its worker-link clock offset to it).
  void relay_telemetry(wq::TelemetryMessage&& msg);

  ForemanConfig config_;
  Metrics m_;
  net::MasterService service_;
  // Both per link: files held that no relayed task has named yet, and the
  // names of files dropped past the bound.
  std::unordered_set<std::string> unnamed_;
  std::unordered_set<std::string> dropped_;
  std::vector<wq::ResultMessage> pending_results_;
  bool flush_scheduled_ = false;
  int64_t relayed_ = 0;
  int64_t received_ = 0;
};

}  // namespace lfm::fed
