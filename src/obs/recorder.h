// The process-wide observability recorder: span tracer + metrics registry.
//
// Design constraints (DESIGN.md §9):
//   * Disabled path compiles to one relaxed atomic load per instrumentation
//     site (a metric handle first checks its registry pointer) — no
//     allocation, no locking, no string work — so fig4–fig9 and table1–3
//     outputs are byte-identical with observability off.
//   * Recording is thread-safe: events buffer under one mutex (the simulated
//     layers are single-threaded; the real LFM / flow layers are not).
//   * Timestamps are whatever clock the domain owns. Simulation-driven call
//     sites pass sim::Simulation::now() explicitly (kPidSim events), so
//     traces of simulated runs are deterministic. Wall-clock call sites
//     (kPidHost) use now(), which reads an installable clock — benches that
//     trace a single simulation install the sim clock so every domain shares
//     virtual time.
//
// Usage:
//   obs::Recorder::global().set_enabled(true);
//   auto& r = obs::Recorder::global();
//   if (obs::Recorder::enabled()) r.begin(obs::kPidSim, task_id, sim.now(), "run", "task");
//   obs::Count tasks_done{"wq.tasks_completed"};  // once, at namespace scope
//   tasks_done.add();                              // checks the gate itself
//   ...
//   obs::export_all(r, "obs_out");   // export.h
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lfm::obs {

class Recorder {
 public:
  // The process-wide instance every instrumentation site records into.
  static Recorder& global();

  // Fast global gate; every instrumentation site checks this first.
  static bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
  void set_enabled(bool on);

  // Drop all buffered events and reset metrics (clock and enabled state
  // survive). Call between traced runs sharing one process.
  void clear();

  // Clock for call sites without their own time source (kPidHost domains).
  // Defaults to steady wall seconds; install a simulation clock to fold the
  // host domains into virtual time, pass nullptr to restore the default.
  void set_clock(std::function<double()> clock);
  double now() const;
  static double wall_now();

  // --- event recording (no-ops while disabled) -----------------------------
  void begin(uint32_t pid, uint64_t tid, double ts, const char* name, const char* cat);
  // End the innermost open span on (pid, tid); optional args merge with the
  // matching begin's in the Chrome viewer (used for per-task outcomes).
  void end(uint32_t pid, uint64_t tid, double ts, const char* skey = nullptr,
           std::string_view sval = {}, const char* akey0 = nullptr, double aval0 = 0.0);
  void complete(uint32_t pid, uint64_t tid, double ts, double dur, const char* name,
                const char* cat, const char* akey0 = nullptr, double aval0 = 0.0);
  void instant(uint32_t pid, uint64_t tid, double ts, const char* name, const char* cat,
               const char* skey = nullptr, std::string_view sval = {},
               const char* akey0 = nullptr, double aval0 = 0.0);
  // A sampled series point; up to two named components per sample.
  void counter(uint32_t pid, uint64_t tid, double ts, const char* name,
               const char* akey0, double aval0, const char* akey1 = nullptr,
               double aval1 = 0.0);

  std::vector<TraceEvent> events() const;
  size_t event_count() const;

  // Move the buffered events out (telemetry shipping's batch source): the
  // internal buffer is left empty but keeps its capacity, so a periodic
  // drain never re-pays the initial reservation.
  std::vector<TraceEvent> drain_events();

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  // Mirror every lfm::log_message record into the trace as an instant event
  // (name "log", cat "log", level as a numeric arg). Off restores a null
  // hook — any previously installed hook is replaced either way.
  void mirror_logs(bool on);

 private:
  static constexpr size_t kInitialCapacity = 1 << 15;

  void push(TraceEvent&& ev);

  static std::atomic<bool> g_enabled;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::function<double()> clock_;  // empty = wall_now
  Metrics metrics_;
};

// --- metric handles ----------------------------------------------------------
// The one way to record a metric (DESIGN.md §9). A handle names one series
// and finds it in its registry the first time it records; from then on a
// record is a branch, an atomic load and the series' own update. Each
// series is declared once: at namespace scope in its module, or as a member
// where it belongs to one instance.
//
// A handle built with a registry always records into it (co-hosted fed
// components keep their series apart this way). One built without records
// into the process-wide registry, and only while the Recorder is enabled,
// so a record site needs no gate of its own. A series appears in its
// registry when it is first recorded.
//
// Handles are safe to share across threads. Threads that race on the first
// record store the same pointer (the registry returns one series per
// name); the release/acquire pair orders the series' construction before
// any other thread's first update through the cached pointer.
template <class T>
class Handle {
 public:
  // [lo, hi] over `buckets` is a histogram's shape, applied when the series
  // is created; the defaults are the registry's.
  explicit Handle(std::string name, double lo = 1e-6, double hi = 1e6,
                  size_t buckets = 96)
      : Handle(nullptr, std::move(name), lo, hi, buckets) {}
  Handle(Metrics* registry, std::string name, double lo = 1e-6, double hi = 1e6,
         size_t buckets = 96)
      : registry_(registry),
        name_(std::move(name)),
        lo_(lo),
        hi_(hi),
        buckets_(buckets) {}
  // A copy names the same series and finds it on its own first record.
  Handle(const Handle& o) : Handle(o.registry_, o.name_, o.lo_, o.hi_, o.buckets_) {}
  Handle& operator=(const Handle&) = delete;

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
    Metrics* m = registry_;
    if (m == nullptr) {
      if (!Recorder::enabled()) return nullptr;
      m = &Recorder::global().metrics();
    }
    T* s = series_.load(std::memory_order_acquire);
    if (s == nullptr) {
      if constexpr (std::is_same_v<T, Counter>) {
        s = &m->counter(name_);
      } else if constexpr (std::is_same_v<T, Gauge>) {
        s = &m->gauge(name_);
      } else {
        s = &m->histogram(name_, lo_, hi_, buckets_);
      }
      series_.store(s, std::memory_order_release);
    }
    return s;
  }

  Metrics* registry_;
  std::string name_;
  double lo_, hi_;
  size_t buckets_;
  std::atomic<T*> series_{nullptr};
};

using Count = Handle<Counter>;
using Level = Handle<Gauge>;
using Spread = Handle<HistogramMetric>;

// --- distributed trace context ----------------------------------------------
// The thread's current trace id. Recorder::push stamps it onto every event
// recorded with trace_id == 0, so all existing instrumentation (the wq
// master, the LFM monitor, the transport) inherits the task's global trace
// identity without signature changes.
uint64_t current_trace_id();

// RAII: set the thread-local trace context for the enclosed scope. Nests —
// the previous context is restored on destruction.
class TraceScope {
 public:
  explicit TraceScope(uint64_t trace_id);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  uint64_t prev_;
};

// RAII span on an arbitrary timeline, timestamped with Recorder::now().
// Captures the enabled state at construction so a mid-span toggle cannot
// emit an unbalanced end event.
class ScopedSpan {
 public:
  ScopedSpan(uint32_t pid, uint64_t tid, const char* name, const char* cat)
      : pid_(pid), tid_(tid), active_(Recorder::enabled()) {
    if (active_) {
      Recorder& r = Recorder::global();
      r.begin(pid_, tid_, r.now(), name, cat);
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Recorder& r = Recorder::global();
      r.end(pid_, tid_, r.now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t pid_;
  uint64_t tid_;
  bool active_;
};

}  // namespace lfm::obs
