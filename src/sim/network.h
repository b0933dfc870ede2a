// Shared-bandwidth network model used for master<->worker transfers.
//
// The master's uplink is the contended resource: N concurrent transfers each
// get bandwidth/N (capped by a per-flow ceiling). The Network tracks live
// flows inside a Simulation so overlapping transfers slow each other down.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sim/engine.h"

namespace lfm::sim {

struct NetworkParams {
  double bandwidth = 1.25e9;       // bytes/sec aggregate (10 GbE)
  double per_flow_bandwidth = 1.25e9;
  double latency = 0.0005;         // per-transfer setup
};

// Progress-tracking shared link. Each flow's remaining bytes drain at the
// current fair share; when the flow count changes, remaining work is
// re-timed. This is a standard fluid-flow approximation.
class Network {
 public:
  Network(Simulation& sim, NetworkParams params) : sim_(sim), params_(params) {}

  // Start a transfer; `done` fires when the last byte arrives.
  void transfer(int64_t bytes, std::function<void()> done);

  int active_flows() const { return static_cast<int>(flows_.size()); }
  const NetworkParams& params() const { return params_; }

  // Scale the link's effective bandwidth (fault injection: latency spikes
  // and partitions). 1.0 is nominal; small positive values model a
  // partition — live flows crawl, and remaining work is re-timed when the
  // scale is restored. In-flight progress is drained at the old rate first,
  // so overlapping scale changes compose correctly.
  void set_bandwidth_scale(double scale);

  // Closed-form seconds for a transfer when `concurrent` flows share the
  // link for its whole duration (used by analytic benches).
  double transfer_seconds(int64_t bytes, int concurrent) const;

 private:
  struct Flow {
    double remaining_bytes;
    std::function<void()> done;
    EventId completion_event = 0;
  };

  double fair_share() const;
  void reschedule_all();
  void complete(uint64_t flow_id);

  Simulation& sim_;
  NetworkParams params_;
  std::map<uint64_t, Flow> flows_;
  uint64_t next_flow_ = 1;
  double last_update_ = 0.0;
  double scale_ = 1.0;  // fault-injection bandwidth multiplier

  void drain_progress();
};

}  // namespace lfm::sim
