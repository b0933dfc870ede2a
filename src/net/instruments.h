// Metric handles for the transport's components (DESIGN.md §13).
//
// obs/metrics.h asks instrumentation sites to look a metric up once and
// keep the reference. A handle names one series and resolves it on its
// first record, so the per-frame cost is a branch and an atomic add, and a
// series that is never recorded never appears in the registry.
//
// The registry a handle records into is fixed when it is built: the
// configured obs::Metrics instance (always on; co-hosted fed components keep
// their series apart this way), or, when none is configured, the
// process-wide registry, recorded into only while obs::Recorder is enabled.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace lfm::net {

// One series of type T: obs::Counter, obs::Gauge, or obs::HistogramMetric
// over [lo, hi] (the shape applies when the series is created).
template <class T>
class Handle {
 public:
  Handle(obs::Metrics* configured, std::string name, double lo = 0, double hi = 0)
      : configured_(configured), name_(std::move(name)), lo_(lo), hi_(hi) {}

  void add(int64_t n = 1) {
    if (T* s = series()) s->add(n);
  }
  void set(double v) {
    if (T* s = series()) s->set(v);
  }
  void observe(double v) {
    if (T* s = series()) s->observe(v);
  }

 private:
  T* series() {
    obs::Metrics* m = configured_;
    if (m == nullptr) {
      if (!obs::Recorder::enabled()) return nullptr;
      m = &obs::Recorder::global().metrics();
    }
    if (series_ == nullptr) {
      if constexpr (std::is_same_v<T, obs::Counter>) {
        series_ = &m->counter(name_);
      } else if constexpr (std::is_same_v<T, obs::Gauge>) {
        series_ = &m->gauge(name_);
      } else {
        series_ = &m->histogram(name_, lo_, hi_);
      }
    }
    return series_;
  }

  obs::Metrics* configured_;
  std::string name_;
  double lo_, hi_;
  T* series_ = nullptr;
};

using Count = Handle<obs::Counter>;
using Level = Handle<obs::Gauge>;
using Spread = Handle<obs::HistogramMetric>;

}  // namespace lfm::net
