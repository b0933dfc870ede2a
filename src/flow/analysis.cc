#include "flow/analysis.h"

#include "obs/recorder.h"
#include "util/parallel.h"

namespace lfm::flow {
namespace {

obs::Count flow_analyses{"flow.analyses"};

// One complete-span per bulk analysis call, sized by the request count.
struct AnalysisTrace {
  bool active = obs::Recorder::enabled();
  double t0 = active ? obs::Recorder::global().now() : 0.0;
  size_t count = 0;

  ~AnalysisTrace() {
    if (!active) return;
    obs::Recorder& r = obs::Recorder::global();
    r.complete(obs::kPidHost, 0, t0, r.now() - t0, "flow.analyze_all", "flow",
               "requests", static_cast<double>(count));
    flow_analyses.add(static_cast<int64_t>(count));
  }
};

}  // namespace

std::vector<DependencyPlan> analyze_all(
    const std::vector<AnalysisRequest>& requests,
    const pkg::PackageIndex& installed, int threads,
    const std::map<std::string, std::string>& aliases) {
  AnalysisTrace trace;
  trace.count = requests.size();
  // Each plan lands in its request's own slot, so output order never
  // depends on scheduling, and no locks are held beyond the shared caches'.
  // The first analysis error (e.g. a SyntaxError) rethrows on the caller.
  std::vector<DependencyPlan> plans(requests.size());
  parallel_for(requests.size(), threads, [&](size_t i) {
    const auto& req = requests[i];
    plans[i] = req.function_name.empty()
                   ? plan_module_dependencies(req.source, installed, aliases)
                   : plan_function_dependencies(req.source, req.function_name,
                                                installed, aliases);
  });
  return plans;
}

}  // namespace lfm::flow
