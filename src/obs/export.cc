#include "obs/export.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "serde/json.h"
#include "util/error.h"
#include "util/strings.h"

namespace lfm::obs {
namespace {

constexpr double kSecondsToMicros = 1e6;

std::string hex_trace_id(uint64_t id) {
  return strformat("0x%016llx", static_cast<unsigned long long>(id));
}

serde::Value event_value(const TelemetryEvent& ev) {
  serde::ValueDict d;
  d["ph"] = std::string(1, ev.ph);
  d["ts"] = ev.ts * kSecondsToMicros;
  d["pid"] = static_cast<int64_t>(ev.pid);
  d["tid"] = static_cast<int64_t>(ev.tid);
  if (!ev.name.empty()) d["name"] = ev.name;
  if (!ev.cat.empty()) d["cat"] = ev.cat;
  if (ev.ph == static_cast<char>(Phase::kComplete)) d["dur"] = ev.dur * kSecondsToMicros;
  if (ev.ph == static_cast<char>(Phase::kInstant)) d["s"] = std::string("t");  // thread-scoped
  serde::ValueDict args;
  if (ev.trace_id != 0) args["trace_id"] = hex_trace_id(ev.trace_id);
  if (!ev.akey0.empty()) args[ev.akey0] = ev.aval0;
  if (!ev.akey1.empty()) args[ev.akey1] = ev.aval1;
  if (!ev.skey.empty()) args[ev.skey] = ev.sval;
  if (!args.empty()) d["args"] = std::move(args);
  return serde::Value(std::move(d));
}

serde::Value process_name_value(size_t lane, const std::string& label) {
  serde::ValueDict d;
  d["ph"] = std::string("M");
  d["name"] = std::string("process_name");
  d["pid"] = static_cast<int64_t>(lane);
  serde::ValueDict args;
  args["name"] = label;
  d["args"] = std::move(args);
  return serde::Value(std::move(d));
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

// %g-style shortest form is fine for Prometheus values; full precision for
// sums where drift would accumulate.
std::string prom_number(double v) { return strformat("%.17g", v); }

}  // namespace

serde::Value trace_document(const std::vector<std::string>& lane_labels,
                            const std::vector<TelemetryEvent>& events) {
  serde::ValueList list;
  list.reserve(lane_labels.size() + events.size());
  for (size_t i = 0; i < lane_labels.size(); ++i) {
    list.push_back(process_name_value(i + 1, lane_labels[i]));
  }
  for (const TelemetryEvent& ev : events) list.push_back(event_value(ev));
  serde::ValueDict doc;
  doc["traceEvents"] = std::move(list);
  doc["displayTimeUnit"] = std::string("ms");
  return serde::Value(std::move(doc));
}

serde::Value chrome_trace_value(const std::vector<TraceEvent>& events) {
  static_assert(kPidSim == 1 && kPidHost == 2 && kPidChaos == 3,
                "the pid domains are lanes 1-3");
  return trace_document(
      {"sim (virtual clock)", "host (wall clock)", "chaos (injected faults)"},
      to_telemetry(events));
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  return serde::to_json(chrome_trace_value(events));
}

std::string prometheus_text(const Metrics& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.counters()) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : metrics.gauges()) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_number(value) + "\n";
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    const std::string n = prometheus_name(name);
    out += "# TYPE " + n + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < hist.bucket_count(); ++i) {
      cumulative += hist.bucket(i);
      out += n + "_bucket{le=\"" + prom_number(hist.bucket_edge(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count()) + "\n";
    out += n + "_sum " + prom_number(hist.sum()) + "\n";
    out += n + "_count " + std::to_string(hist.count()) + "\n";
  }
  return out;
}

void write_text_file(const std::string& dir, const std::string& filename,
                     const std::string& content) {
  if (!dir.empty()) {
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
      throw Error("obs: mkdir " + dir + ": " + std::strerror(errno));
    }
  }
  const std::string path = dir.empty() ? filename : dir + "/" + filename;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw Error("obs: open " + path + ": " + std::strerror(errno));
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    throw Error("obs: short write to " + path);
  }
}

}  // namespace lfm::obs
