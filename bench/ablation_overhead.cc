// Ablation: per-invocation LFM overhead — REAL measurements on this host.
//
// The paper's core claim is that the LFM "uses Python-specific techniques to
// keep overhead low enough that containment can be applied to individual
// invocations" (§II). This bench measures, on real processes:
//   * bare function call (no containment)
//   * monitored invocation (fork + pipe + /proc polling + reap)
//   * monitored invocation of INTERPRETED Python source (the full
//     python_app path: parse + interpret inside the LFM child)
//   * modeled container cold start per invocation (Table I), the
//     alternative the paper replaces
// and reports what fraction of a 1-second task each containment mode costs.
//
// The BM_fork_cost rows split one monitored call's cost against the memory
// of the process that forks it:
//   ./build/bench/ablation_overhead --benchmark_filter=BM_fork_cost
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

#include "alloc/labeler.h"
#include "flow/pyapp.h"
#include "monitor/lfm.h"
#include "monitor/proc_reader.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "sim/site.h"
#include "util/rng.h"
#include "wq/master.h"

namespace {

using namespace lfm;
using serde::Value;

Value native_fib_task(const Value& args) {
  const int64_t n = args.is_list() ? args.as_list()[0].as_int() : args.as_int();
  // Iterative fib: a cheap, deterministic payload.
  int64_t a = 0, b = 1;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t next = a + b;
    a = b;
    b = next;
  }
  return Value(a);
}

const char* kPySource = R"(
def fib(n):
    a = 0
    b = 1
    i = 0
    while i < n:
        a, b = b, a + b
        i = i + 1
    return a
)";

double time_once(const std::function<void()>& fn, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

void print_table() {
  std::printf("\n================================================================\n");
  std::printf("Ablation: per-invocation containment overhead (REAL measurements)\n");
  std::printf("(quantifies the §II 'lightweight' claim on this host)\n");
  std::printf("================================================================\n");

  constexpr int kReps = 30;
  const Value args = Value(serde::ValueList{Value(int64_t{80})});

  const double bare = time_once([&] { native_fib_task(args); }, 1000);

  monitor::MonitorOptions options;
  options.poll_interval = 0.002;
  const double monitored = time_once(
      [&] { monitor::run_monitored(native_fib_task, args, options); }, kReps);

  flow::PythonAppOptions py_options;
  const flow::App py = flow::python_app(kPySource, "fib", py_options);
  const double interpreted_only = time_once([&] { py.fn(args); }, 200);
  const double py_monitored =
      time_once([&] { monitor::run_monitored(py.fn, args, options); }, kReps);

  const double container = sim::docker_runtime().cold_start_seconds();

  std::printf("%-36s %14s %18s\n", "mode", "per call", "overhead on 1s task");
  const auto row = [&](const char* label, double seconds) {
    std::printf("%-36s %11.3f ms %17.2f%%\n", label, seconds * 1e3,
                seconds * 100.0);
  };
  row("bare C++ function call", bare);
  row("LFM (fork+pipe+poll+reap)", monitored);
  row("mini-Python interpret (no LFM)", interpreted_only);
  row("python_app under LFM (full path)", py_monitored);
  row("container per invocation (modeled)", container);
  std::printf(
      "\n(expected: LFM containment costs milliseconds per invocation —\n"
      " orders of magnitude under the per-invocation container alternative,\n"
      " and negligible against the paper's 40-70 s HEP tasks)\n");
}

// One Auto-strategy master scenario exercising the dispatch hot path:
// multi-category workload, cacheable environments, retries. Returns the
// wall-clock seconds for submit + run.
double time_master_scenario(int workers, int tasks) {
  sim::Simulation sim;
  sim::Network network(sim, {});
  alloc::LabelerConfig cfg;
  cfg.strategy = alloc::Strategy::kAuto;
  cfg.whole_node = alloc::Resources{16.0, 64e9, 128e9};
  cfg.guess = alloc::Resources{1.0, 2e9, 4e9};
  cfg.warmup_samples = 3;
  alloc::Labeler labeler(cfg);
  wq::Master master(sim, network, labeler);
  for (int w = 0; w < workers; ++w) {
    master.add_worker({alloc::Resources{16.0, 64e9, 128e9}, 0.0});
  }
  Rng rng(7);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < tasks; ++i) {
    wq::TaskSpec t;
    t.id = static_cast<uint64_t>(i + 1);
    t.category = "cat-" + std::to_string(i % 4);
    t.exec_seconds = rng.uniform(20.0, 80.0);
    t.true_cores = 1.0;
    t.true_peak = alloc::Resources{1.0, rng.uniform(0.5e9, 1.5e9), 1e9};
    wq::InputFile env;
    env.name = "env-" + std::to_string(i % 4) + ".tar.gz";
    env.size_bytes = 100LL * 1000 * 1000;
    env.cacheable = true;
    t.inputs.push_back(std::move(env));
    master.submit(std::move(t));
  }
  master.run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void print_tracing_overhead() {
  std::printf("\n================================================================\n");
  std::printf("Ablation: observability overhead on the dispatch hot path\n");
  std::printf("(same master scenario, obs::Recorder off vs on; target < 10%%)\n");
  std::printf("================================================================\n");

  constexpr int kWorkers = 20;
  constexpr int kTasks = 4000;
  constexpr int kReps = 5;
  obs::Recorder& recorder = obs::Recorder::global();

  // Interleaved min-of-N: the minimum is the run least disturbed by the
  // scheduler/allocator, so the ratio reflects instrumentation cost, not
  // machine noise.
  time_master_scenario(kWorkers, kTasks);  // warm caches/allocator once
  double off = 1e30;
  double on = 1e30;
  size_t events = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    recorder.set_enabled(false);
    off = std::min(off, time_master_scenario(kWorkers, kTasks));
    recorder.set_enabled(true);
    recorder.clear();
    on = std::min(on, time_master_scenario(kWorkers, kTasks));
    events = recorder.event_count();
  }
  recorder.set_enabled(false);
  recorder.clear();

  std::printf("%-36s %11.1f ms\n", "master dispatch, tracing off", off * 1e3);
  std::printf("%-36s %11.1f ms   (%zu events)\n", "master dispatch, tracing on",
              on * 1e3, events);
  std::printf("%-36s %11.2f %%\n", "tracing overhead",
              off > 0.0 ? (on - off) / off * 100.0 : 0.0);
}

void BM_bare_call(benchmark::State& state) {
  const Value args = Value(serde::ValueList{Value(int64_t{80})});
  for (auto _ : state) benchmark::DoNotOptimize(native_fib_task(args));
}
BENCHMARK(BM_bare_call);

void BM_lfm_invocation(benchmark::State& state) {
  const Value args = Value(serde::ValueList{Value(int64_t{80})});
  monitor::MonitorOptions options;
  options.poll_interval = 0.002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor::run_monitored(native_fib_task, args, options));
  }
}
BENCHMARK(BM_lfm_invocation)->Unit(benchmark::kMillisecond);

// The monitored call from a process holding range(0) MB of touched
// ballast, split per call into:
//   fork_us       the parent's time in fork() (the lfm.fork_us histogram)
//   child_minflt  the child's minor faults, from the reap (lfm.child_minflt)
//   start_us      the invocation's start: pipe, fork, pidfd, first sample
//   reap_us       from then until the child is reaped: its run and exit,
//                 the wake-up and wait4
//   report_us     decoding the child's report
//   rss_mb        this process's resident memory while the rows run
void BM_fork_cost(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  // Mapped and unmapped here, so no allocator cache carries it between rows.
  const size_t ballast_bytes = static_cast<size_t>(state.range(0)) << 20;
  void* ballast = ::mmap(nullptr, ballast_bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (ballast == MAP_FAILED) {
    state.SkipWithError("mmap failed");
    return;
  }
  std::memset(ballast, 1, ballast_bytes);
  const Value args = Value(serde::ValueList{Value(int64_t{80})});
  obs::Recorder& recorder = obs::Recorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  double start = 0.0, reap = 0.0, report = 0.0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    monitor::FunctionInvocation invocation(native_fib_task, args, {});
    const auto t1 = clock::now();
    monitor::wait_until_done(invocation);
    const auto t2 = clock::now();
    benchmark::DoNotOptimize(invocation.finish());
    const auto t3 = clock::now();
    start += std::chrono::duration<double>(t1 - t0).count();
    reap += std::chrono::duration<double>(t2 - t1).count();
    report += std::chrono::duration<double>(t3 - t2).count();
  }
  recorder.set_enabled(false);
  obs::Metrics& metrics = recorder.metrics();
  const double calls = static_cast<double>(state.iterations());
  state.counters["fork_us"] = metrics.histogram("lfm.fork_us").snapshot().mean();
  state.counters["child_minflt"] = metrics.histogram("lfm.child_minflt").snapshot().mean();
  state.counters["start_us"] = 1e6 * start / calls;
  state.counters["reap_us"] = 1e6 * reap / calls;
  state.counters["report_us"] = 1e6 * report / calls;
  const auto self = monitor::sample_process(::getpid());
  state.counters["rss_mb"] = self ? static_cast<double>(self->rss_bytes) / (1 << 20) : 0.0;
  recorder.clear();
  ::munmap(ballast, ballast_bytes);
}
BENCHMARK(BM_fork_cost)->Arg(2)->Arg(18)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_tracing_overhead();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
