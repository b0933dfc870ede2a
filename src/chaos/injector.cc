#include "chaos/injector.h"

#include "obs/recorder.h"
#include "util/log.h"
#include "util/strings.h"

namespace lfm::chaos {

namespace {

// Per-class injection counters.
obs::Count chaos_crashes{"chaos.crashes"};
obs::Count chaos_rejoins{"chaos.rejoins"};
obs::Count chaos_net_slowdowns{"chaos.net_slowdowns"};
obs::Count chaos_partitions{"chaos.partitions"};
obs::Count chaos_fs_stalls{"chaos.fs_stalls"};
obs::Count chaos_stragglers{"chaos.stragglers"};
obs::Count chaos_spurious_kills{"chaos.spurious_kills"};

// Fault-window spans render one Perfetto row per fault class.
uint64_t class_lane(FaultKind kind) { return static_cast<uint64_t>(kind) + 1; }

}  // namespace

Injector::Injector(sim::Simulation& sim, FaultSink& sink, Plan plan)
    : sim_(sim), sink_(sink), plan_(std::move(plan)) {}

void Injector::arm() {
  for (const FaultEvent& event : plan_.events) {
    sim_.schedule_at(event.time, [this, event] { deliver(event); });
  }
}

double Injector::composite(const std::map<double, int>& active) const {
  double product = 1.0;
  for (const auto& [factor, count] : active) {
    for (int i = 0; i < count; ++i) product *= factor;
  }
  return product;
}

void Injector::deliver(const FaultEvent& event) {
  const bool traced = obs::Recorder::enabled();
  switch (event.kind) {
    case FaultKind::kWorkerCrash:
      ++stats_.crashes;
      chaos_crashes.add();
      if (event.duration >= 0.0) {
        ++stats_.rejoins_scheduled;
        chaos_rejoins.add();
      }
      if (traced) {
        obs::Recorder::global().instant(
            obs::kPidChaos, class_lane(event.kind), sim_.now(), "worker-crash",
            "chaos", nullptr, {}, "rejoin_delay", event.duration);
      }
      sink_.fault_crash_worker(event.target, event.duration);
      break;

    case FaultKind::kNetworkSlow:
    case FaultKind::kPartition: {
      if (event.kind == FaultKind::kPartition) {
        ++stats_.partitions;
        chaos_partitions.add();
      } else {
        ++stats_.net_slowdowns;
        chaos_net_slowdowns.add();
      }
      if (traced) {
        obs::Recorder::global().begin(obs::kPidChaos, class_lane(event.kind),
                                      sim_.now(), fault_kind_name(event.kind),
                                      "chaos");
      }
      active_net_[event.magnitude] += 1;
      sink_.fault_network_scale(composite(active_net_));
      sim_.schedule(event.duration, [this, event] { end_window(event.kind, event); });
      break;
    }

    case FaultKind::kFsStall:
      ++stats_.fs_stalls;
      chaos_fs_stalls.add();
      if (traced) {
        obs::Recorder::global().begin(obs::kPidChaos, class_lane(event.kind),
                                      sim_.now(), "fs-stall", "chaos");
      }
      active_fs_[event.magnitude] += 1;
      sink_.fault_fs_stall(composite(active_fs_));
      sim_.schedule(event.duration, [this, event] { end_window(event.kind, event); });
      break;

    case FaultKind::kStraggler:
      ++stats_.stragglers;
      chaos_stragglers.add();
      if (traced) {
        obs::Recorder::global().begin(obs::kPidChaos, class_lane(event.kind),
                                      sim_.now(), "straggler", "chaos");
      }
      // Absolute set; the end event restores nominal speed. Overlapping
      // windows on one worker resolve last-writer-wins, which is
      // deterministic because delivery order is part of the plan.
      sink_.fault_worker_speed(event.target, event.magnitude);
      sim_.schedule(event.duration, [this, event] { end_window(event.kind, event); });
      break;

    case FaultKind::kSpuriousKill:
      ++stats_.spurious_kills;
      chaos_spurious_kills.add();
      if (traced) {
        obs::Recorder::global().instant(obs::kPidChaos, class_lane(event.kind),
                                        sim_.now(), "spurious-kill", "chaos");
      }
      sink_.fault_spurious_kill(event.target);
      break;
  }
}

void Injector::end_window(FaultKind kind, const FaultEvent& event) {
  switch (kind) {
    case FaultKind::kNetworkSlow:
    case FaultKind::kPartition: {
      auto it = active_net_.find(event.magnitude);
      if (it != active_net_.end() && --it->second == 0) active_net_.erase(it);
      sink_.fault_network_scale(composite(active_net_));
      break;
    }
    case FaultKind::kFsStall: {
      auto it = active_fs_.find(event.magnitude);
      if (it != active_fs_.end() && --it->second == 0) active_fs_.erase(it);
      sink_.fault_fs_stall(composite(active_fs_));
      break;
    }
    case FaultKind::kStraggler:
      sink_.fault_worker_speed(event.target, 1.0);
      break;
    default:
      LFM_WARN("chaos", "end_window for non-window fault " +
                            std::string(fault_kind_name(kind)));
      return;
  }
  if (obs::Recorder::enabled()) {
    obs::Recorder::global().end(obs::kPidChaos, class_lane(kind), sim_.now());
  }
}

}  // namespace lfm::chaos
