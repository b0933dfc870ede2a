// Foreman: the middle tier of the federated dispatch hierarchy (DESIGN.md
// §14).
//
// One process, one event loop, two faces. Upward it is a net::Uplink to a
// fed::RootMaster — it connects out like a worker would (hello, then task /
// file / control frames in, result / stats frames out), reconnecting with
// chaos::RetryPolicy backoff when the link drops; each relay of results
// upward restores its full reconnect budget. Downward it runs a
// net::MasterService over its own worker pool: every task frame the root
// sends is decoded and submitted into the local dispatch stream (the relay
// hop), and every local result is coalesced into batch frames travelling
// back up. The foreman drives its loop itself and never runs the service to
// completion: the run ends when the root says bye, which shuts the local
// tier down.
//
// The foreman is also the second-tier file cache. Each file the root ships
// is content-chunked into the shard's own pkg::ChunkStore and remembered as
// a manifest; tasks reassemble their inputs from the store at submit time.
// A cacheable file therefore crosses the root link once per foreman and
// fans out to W workers from shard-local memory — the root's egress scales
// with the number of shards, not the number of workers.
//
// Telemetry aggregates upward: a periodic kStats frame reports live worker
// count, local queue depth, relayed completions, fan-out volume, and cache
// occupancy, so the root observes the whole subtree through one link.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/master_service.h"
#include "net/uplink.h"
#include "pkg/chunk.h"
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
  // listen port (0 = ephemeral; read back via worker_port()).
  net::MasterServiceConfig service;
  chaos::RetryPolicy reconnect = net::default_reconnect_policy();
  // Upstream failures tolerated since the last relayed progress (the same
  // budget discipline net::WorkerClient applies).
  int max_reconnect_attempts = 30;
  double stats_interval = 1.0;  // kStats cadence (0 = off)
  // Local results buffered before an upward flush is forced; a loop-deferred
  // flush also coalesces whatever completed in the same reactor iteration.
  size_t result_batch_max = 64;
  int64_t cache_capacity_bytes = 256LL << 20;
  // Metrics sink for the foreman's own counters; also becomes the local
  // MasterService's sink when service.metrics is unset. Null = process-wide
  // registry gated on obs::Recorder.
  obs::Metrics* metrics = nullptr;
  // Don't queue more telemetry onto an upstream link whose unsent backlog
  // exceeds this; dropped batches are counted (foreman.telemetry_dropped).
  size_t telemetry_backpressure_bytes = 4u << 20;
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
  const pkg::ChunkStore& cache() const { return cache_; }
  net::MasterService& service() { return service_; }

 private:
  struct Metrics {
    obs::Metrics* sink;
    net::Count connects{sink, "foreman.connects"};
    net::Count frames_in{sink, "foreman.frames_in"};
    net::Count files_cached{sink, "foreman.files_cached"};
    net::Count file_bytes_in{sink, "foreman.file_bytes_in"};
    net::Count tasks_received{sink, "foreman.tasks_received"};
    net::Count cache_reassemblies{sink, "foreman.cache_reassemblies"};
    net::Count results_relayed{sink, "foreman.results_relayed"};
    net::Count stats_sent{sink, "foreman.stats_sent"};
    net::Count telemetry_dropped_frames{sink, "foreman.telemetry_dropped_frames"};
    net::Count telemetry_relayed{sink, "foreman.telemetry_relayed"};
  };

  net::MasterServiceConfig shard_config();
  void on_message(net::Connection& conn, std::string&& wire) override;
  void on_file(wq::FileMessage&& file) override;
  void on_tasks(net::Connection& conn, const std::string& wire) override;
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
  pkg::ChunkStore cache_;
  std::map<std::string, pkg::ChunkManifest> file_cache_;
  std::vector<wq::ResultMessage> pending_results_;
  bool flush_scheduled_ = false;
  int64_t relayed_ = 0;
  int64_t received_ = 0;
};

}  // namespace lfm::fed
