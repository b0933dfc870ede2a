#include "monitor/report.h"

#include "serde/json.h"

namespace lfm::monitor {
namespace {

serde::Value usage_value(const ResourceUsage& usage) {
  serde::ValueDict d;
  d["wall_time"] = usage.wall_time;
  d["cpu_time"] = usage.cpu_time;
  d["cores"] = usage.cores;
  d["rss_bytes"] = usage.rss_bytes;
  d["max_rss_bytes"] = usage.max_rss_bytes;
  d["disk_read_bytes"] = usage.disk_read_bytes;
  d["disk_write_bytes"] = usage.disk_write_bytes;
  d["processes"] = usage.processes;
  d["max_processes"] = usage.max_processes;
  return serde::Value(std::move(d));
}

serde::Value timeline_value(const UsageTimeline& timeline) {
  serde::ValueList samples;
  samples.reserve(timeline.size());
  for (const UsageSample& s : timeline.samples()) {
    serde::ValueDict d;
    d["t"] = s.wall_time;
    d["cpu"] = s.cpu_time;
    d["rss"] = s.rss_bytes;
    d["io_w"] = s.disk_write_bytes;
    d["procs"] = s.processes;
    samples.push_back(serde::Value(std::move(d)));
  }
  return serde::Value(std::move(samples));
}

}  // namespace

std::string to_json(const ResourceUsage& usage) {
  return serde::to_json(usage_value(usage));
}

std::string to_json(const TaskOutcome& outcome) {
  serde::ValueDict d;
  d["status"] = task_status_name(outcome.status);
  if (!outcome.error.empty()) d["error"] = outcome.error;
  if (!outcome.violated_resource.empty()) {
    d["violated_resource"] = outcome.violated_resource;
  }
  d["usage"] = usage_value(outcome.usage);
  if (!outcome.timeline.empty()) d["timeline"] = timeline_value(outcome.timeline);
  return serde::to_json(serde::Value(std::move(d)));
}

}  // namespace lfm::monitor
