// Metrics registry: named counters, gauges, and log-spaced histograms.
//
// Record sites go through the handles in obs/recorder.h (obs::Count,
// obs::Level, obs::Spread), which look their series up by name (a mutexed
// map insert) on the first record, keep the returned pointer, and then
// update it lock-free (counters/gauges are atomics) or under a
// per-histogram mutex. References stay valid for the registry's lifetime —
// metrics are never removed, only reset in place by clear(). Lookup by name
// is for readers: the exporters, statusz, telemetry snapshots and tests.
//
// Exporters (export.h) snapshot the registry into Prometheus text or JSONL;
// metric names should follow the `component.metric` convention (dots are
// rewritten to '_' for Prometheus).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace lfm::obs {

class Counter {
 public:
  void add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// A thread-safe LogHistogram (util/stats.h): observations of durations or
// sizes spanning many orders of magnitude at constant relative resolution.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, size_t buckets) : hist_(lo, hi, buckets) {}

  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    hist_.add(v);
  }

  LogHistogram snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    hist_ = LogHistogram(hist_.lo(), hist_.hi(), hist_.bucket_count());
  }

 private:
  mutable std::mutex mutex_;
  LogHistogram hist_;
};

class Metrics {
 public:
  // A registry is instantiable so components co-hosted in one process (a
  // fed RootMaster plus several in-process Foremen and workers) can each
  // own a namespaced instance instead of colliding in the process-wide
  // registry. `prefix` is prepended verbatim to every metric name at
  // lookup ("f1." + "net.results" -> "f1.net.results"); the default empty
  // prefix keeps the global instance's names — and the golden Prometheus
  // exposition — byte-identical.
  Metrics() = default;
  explicit Metrics(std::string prefix) : prefix_(std::move(prefix)) {}

  const std::string& prefix() const { return prefix_; }

  // Lookup-or-create by name. The shape arguments of histogram() apply only
  // on first creation; later lookups of the same name return the existing
  // instance regardless. The default shape (1 µs .. 1 Ms over 96 buckets,
  // 8 per decade) suits second-denominated durations.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo = 1e-6, double hi = 1e6,
                             size_t buckets = 96);

  // Name-sorted snapshots for the exporters.
  std::vector<std::pair<std::string, int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, LogHistogram>> histograms() const;

  // Reset every metric to zero in place; references stay valid.
  void clear();

 private:
  std::string prefix_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace lfm::obs
