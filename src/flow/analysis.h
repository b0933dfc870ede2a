// Bulk dependency analysis: the parallel front end of the paper's step-1/
// step-2 pipeline (static analysis -> pinned requirements), used by the
// funcX registration path and the scale benches.
//
// `analyze_all` fans N module/function analyses across parallel_for's
// work-stealing pool (util/parallel.h). Each result lands in its request's
// pre-sized slot, so threads share nothing but the read-only index and the
// content-addressed caches; the result vector is positionally aligned with
// the requests and is byte-identical for any thread count.
#pragma once

#include <string>
#include <vector>

#include "flow/plan.h"

namespace lfm::flow {

struct AnalysisRequest {
  std::string source;         // full module source text
  std::string function_name;  // empty: analyze the whole module
};

// Analyze every request against `installed`. `threads <= 0` uses the
// hardware concurrency (capped by the request count). Duplicate requests
// cost one parse/scan; the rest are cache hits.
std::vector<DependencyPlan> analyze_all(
    const std::vector<AnalysisRequest>& requests,
    const pkg::PackageIndex& installed, int threads = 0,
    const std::map<std::string, std::string>& aliases = default_import_aliases());

}  // namespace lfm::flow
