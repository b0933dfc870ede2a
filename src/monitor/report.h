// JSON rendering of task outcomes — the monitor's "report resource
// consumption" path, in a form schedulers and log collectors can ingest.
// Each report is built as a serde::Value and written by serde::to_json, so
// keys come out in sorted order and reals at full precision.
#pragma once

#include <string>

#include "monitor/lfm.h"
#include "monitor/timeline.h"

namespace lfm::monitor {

// {"error": "...", "status": "...", "timeline": [...], "usage": {...},
//  "violated_resource": "..."}; error, timeline and violated_resource only
// when present.
std::string to_json(const TaskOutcome& outcome);

// {"cores": ..., "cpu_time": ..., "wall_time": ..., ...}
std::string to_json(const ResourceUsage& usage);

}  // namespace lfm::monitor
