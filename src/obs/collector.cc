#include "obs/collector.h"

#include "obs/export.h"
#include "serde/json.h"

namespace lfm::obs {

TelemetryEvent to_telemetry(const TraceEvent& ev) {
  TelemetryEvent out;
  out.ph = static_cast<char>(ev.ph);
  out.pid = ev.pid;
  out.tid = ev.tid;
  out.trace_id = ev.trace_id;
  out.ts = ev.ts;
  out.dur = ev.dur;
  if (ev.name) out.name = ev.name;
  if (ev.cat) out.cat = ev.cat;
  if (ev.akey0) out.akey0 = ev.akey0;
  out.aval0 = ev.aval0;
  if (ev.akey1) out.akey1 = ev.akey1;
  out.aval1 = ev.aval1;
  if (ev.skey) {
    out.skey = ev.skey;
    out.sval = ev.sval;
  }
  return out;
}

std::vector<TelemetryEvent> to_telemetry(const std::vector<TraceEvent>& events) {
  std::vector<TelemetryEvent> out;
  out.reserve(events.size());
  for (const TraceEvent& ev : events) out.push_back(to_telemetry(ev));
  return out;
}

uint64_t Collector::lane_for(const std::string& source, uint32_t pid) {
  const auto key = std::make_pair(source, pid);
  const auto it = lanes_.find(key);
  if (it != lanes_.end()) return it->second;
  // Lane pids are dense and assigned in arrival order; label non-host
  // domains so a process that ships sim- or chaos-clock events keeps them
  // on a visibly separate (and separately-clocked) track.
  std::string label = source;
  if (pid == kPidSim) label += "/sim";
  if (pid == kPidChaos) label += "/chaos";
  lane_labels_.push_back(std::move(label));
  const uint64_t lane = lane_labels_.size();
  lanes_.emplace(key, lane);
  return lane;
}

void Collector::add(const std::string& source, double clock_offset,
                    std::vector<TelemetryEvent> events, int64_t dropped) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dropped > 0) dropped_[source] += dropped;
  for (TelemetryEvent& ev : events) {
    ev.ts -= clock_offset;
    ev.pid = static_cast<uint32_t>(lane_for(source, ev.pid));
    events_.push_back(std::move(ev));
  }
}

void Collector::add_local(const std::string& source,
                          const std::vector<TraceEvent>& events) {
  add(source, 0.0, to_telemetry(events));
}

size_t Collector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

size_t Collector::source_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lane_labels_.size();
}

int64_t Collector::dropped_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [source, n] : dropped_) total += n;
  return total;
}

std::vector<TelemetryEvent> Collector::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

serde::Value Collector::trace_value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trace_document(lane_labels_, events_);
}

std::string Collector::trace_json() const { return serde::to_json(trace_value()); }

void Collector::write(const std::string& path) const {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "" : path.substr(0, slash);
  const std::string file = slash == std::string::npos ? path : path.substr(slash + 1);
  write_text_file(dir, file, trace_json());
}

}  // namespace lfm::obs
