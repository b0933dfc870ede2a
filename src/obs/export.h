// Exporters for the observability subsystem.
//
//   * Chrome trace_event JSON — load the file in chrome://tracing or
//     https://ui.perfetto.dev; one process track per pid domain, one row per
//     tid (task id), nested spans per lifecycle phase.
//   * Prometheus text exposition — counters, gauges, and histograms with
//     cumulative `_bucket{le=...}` series, `_sum`, `_count`.
//   * JSONL metrics — one self-describing JSON object per metric per line,
//     for ad-hoc analysis (jq, pandas).
//
// All JSON passes through the serde layer (serde::Value -> to_json), so the
// emitted documents round-trip through serde::from_json in tests.
#pragma once

#include <string>
#include <vector>

#include "obs/collector.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "serde/value.h"

namespace lfm::obs {

// The default output directory used by benches and examples (gitignored).
inline constexpr const char* kDefaultOutputDir = "obs_out";

// {"traceEvents": [...], "displayTimeUnit": "ms"}; timestamps in
// microseconds as the format requires. The events follow one process_name
// metadata record per lane, labelling lane pid i + 1 with lane_labels[i].
// An event that carries a trace id gets it as a hex `trace_id` argument
// (64-bit ids do not survive a double). Both the local trace below and the
// collector's merged trace are written through it.
serde::Value trace_document(const std::vector<std::string>& lane_labels,
                            const std::vector<TelemetryEvent>& events);

// The local recorder's trace: one lane per pid domain.
serde::Value chrome_trace_value(const std::vector<TraceEvent>& events);
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

// Prometheus text exposition format. Metric names have '.' and '-'
// rewritten to '_'; histogram buckets are emitted cumulatively.
std::string prometheus_text(const Metrics& metrics);

// One JSON object per line: {"type":"counter","name":...,"value":...} etc.
std::string metrics_jsonl(const Metrics& metrics);

// Create `dir` (one level) if needed and write `content`; throws lfm::Error
// on I/O failure.
void write_text_file(const std::string& dir, const std::string& filename,
                     const std::string& content);

// Convenience: write trace.json, metrics.prom, and metrics.jsonl under dir.
void export_all(const Recorder& recorder, const std::string& dir = kDefaultOutputDir);

}  // namespace lfm::obs
