#include "obs/recorder.h"

#include <chrono>

#include "util/log.h"

namespace lfm::obs {

std::atomic<bool> Recorder::g_enabled{false};

Recorder& Recorder::global() {
  static Recorder instance;
  return instance;
}

double Recorder::wall_now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

void Recorder::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

double Recorder::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return clock_ ? clock_() : wall_now();
}

void Recorder::set_enabled(bool on) {
  if (on) {
    // Pre-size the buffer so the first traced run never pays element copies
    // for early growth; clear() keeps the capacity for subsequent runs.
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.capacity() < kInitialCapacity) events_.reserve(kInitialCapacity);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

void Recorder::clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
  }
  metrics_.clear();
}

namespace {
thread_local uint64_t t_current_trace_id = 0;
Count obs_sval_truncated{"obs.sval_truncated"};
}  // namespace

uint64_t current_trace_id() { return t_current_trace_id; }

TraceScope::TraceScope(uint64_t trace_id) : prev_(t_current_trace_id) {
  t_current_trace_id = trace_id;
}

TraceScope::~TraceScope() { t_current_trace_id = prev_; }

void note_sval_truncated() { obs_sval_truncated.add(); }

void Recorder::push(TraceEvent&& ev) {
  if (ev.trace_id == 0) ev.trace_id = t_current_trace_id;
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(ev));
}

void Recorder::begin(uint32_t pid, uint64_t tid, double ts, const char* name,
                     const char* cat) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = Phase::kBegin;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.name = name;
  ev.cat = cat;
  push(std::move(ev));
}

void Recorder::end(uint32_t pid, uint64_t tid, double ts, const char* skey,
                   std::string_view sval, const char* akey0, double aval0) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = Phase::kEnd;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.skey = skey;
  ev.set_sval(sval);
  ev.akey0 = akey0;
  ev.aval0 = aval0;
  push(std::move(ev));
}

void Recorder::complete(uint32_t pid, uint64_t tid, double ts, double dur,
                        const char* name, const char* cat, const char* akey0,
                        double aval0) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = Phase::kComplete;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.dur = dur;
  ev.name = name;
  ev.cat = cat;
  ev.akey0 = akey0;
  ev.aval0 = aval0;
  push(std::move(ev));
}

void Recorder::instant(uint32_t pid, uint64_t tid, double ts, const char* name,
                       const char* cat, const char* skey, std::string_view sval,
                       const char* akey0, double aval0) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = Phase::kInstant;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.name = name;
  ev.cat = cat;
  ev.skey = skey;
  ev.set_sval(sval);
  ev.akey0 = akey0;
  ev.aval0 = aval0;
  push(std::move(ev));
}

void Recorder::counter(uint32_t pid, uint64_t tid, double ts, const char* name,
                       const char* akey0, double aval0, const char* akey1,
                       double aval1) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = Phase::kCounter;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.name = name;
  ev.akey0 = akey0;
  ev.aval0 = aval0;
  ev.akey1 = akey1;
  ev.aval1 = aval1;
  push(std::move(ev));
}

std::vector<TraceEvent> Recorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

size_t Recorder::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Recorder::drain_events() {
  std::vector<TraceEvent> out;
  out.reserve(kInitialCapacity);
  std::lock_guard<std::mutex> lock(mutex_);
  events_.swap(out);
  return out;
}

void Recorder::mirror_logs(bool on) {
  if (!on) {
    lfm::set_log_hook(nullptr);
    return;
  }
  // The hook runs under the log mutex; instant() only takes the recorder
  // mutex and never logs, so the lock order is acyclic.
  lfm::set_log_hook([this](LogLevel level, const std::string& component,
                           const std::string& message) {
    if (!enabled()) return;
    instant(kPidHost, 0, now(), "log", "log", "message", component + ": " + message,
            "level", static_cast<double>(static_cast<int>(level)));
  });
}

}  // namespace lfm::obs
