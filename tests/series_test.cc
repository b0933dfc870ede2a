// The series a traced run exports. One fixed workload reaches every metric
// record site in src/ (the simulated master under injected faults, a cold
// pack, every frame kind, a socket flush, the bulk analysis, a dataflow run,
// funcX, the monitor and the worker) and the test checks the registry
// against a table recorded from the code before its record sites became
// obs handles: every series that run exported with a nonzero count, with its
// kind and histogram shape, and the value of every counter the workload
// fixes.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/labeler.h"
#include "chaos/injector.h"
#include "chaos/plan.h"
#include "faas/funcx.h"
#include "flow/analysis.h"
#include "flow/dfk.h"
#include "monitor/lfm.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/recorder.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "pkg/solver.h"
#include "sim/network.h"
#include "util/rng.h"
#include "wq/master.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm {
namespace {

using serde::Value;

// --- the workload ------------------------------------------------------------

alloc::Resources node() { return alloc::Resources{16.0, 64e9, 128e9}; }

pkg::PackageMeta package(const std::string& name) {
  pkg::PackageMeta meta;
  meta.name = name;
  meta.version = pkg::Version::parse("1.0.0");
  meta.file_count = 200;
  meta.size_bytes = 4000000;
  return meta;
}

// Three sibling environments (two shared packages and one of their own),
// each packed cold (the pack cache is cleared first); the first is packed
// a second time, a cache hit.
std::vector<pkg::PackedEnvironment> pack_siblings() {
  pkg::PackageIndex index;
  for (const char* name : {"base-a", "base-b", "own-0", "own-1", "own-2"}) {
    index.add(package(name));
  }
  pkg::clear_pack_cache();
  std::vector<pkg::PackedEnvironment> packs;
  for (int e = 0; e < 3; ++e) {
    auto resolution = pkg::Solver(index).resolve(
        {pkg::Requirement::parse("base-a"), pkg::Requirement::parse("base-b"),
         pkg::Requirement::parse("own-" + std::to_string(e))});
    EXPECT_TRUE(resolution.ok());
    const pkg::Environment env("sibling-" + std::to_string(e),
                               std::move(resolution).take());
    packs.push_back(pkg::packed_environment(env));
    if (e == 0) pkg::packed_environment(env);
  }
  return packs;
}

// Delta distribution of the siblings to two workers whose disks hold about
// one environment: partial fetches, evictions from both the file cache and
// the chunk cache, and two cancelled tasks (one queued, one running).
void delta_campaign(const std::vector<pkg::PackedEnvironment>& envs) {
  constexpr double kDisk = 80000;  // a 23.5 KB environment each
  sim::Simulation sim;
  sim::Network network(sim, {});
  alloc::LabelerConfig lc;
  lc.whole_node = alloc::Resources{1.0, 8e9, kDisk};
  lc.guess = alloc::Resources{1.0, 1e9, 1e3};
  alloc::Labeler labeler(lc);
  wq::MasterConfig mc;
  mc.delta_distribution = true;
  wq::Master master(sim, network, labeler, mc);
  for (int w = 0; w < 2; ++w) master.add_worker({lc.whole_node, 0.0});
  uint64_t id = 1;
  for (int round = 0; round < 2; ++round) {
    for (size_t e = 0; e < envs.size(); ++e) {
      for (int w = 0; w < 2; ++w) {
        wq::TaskSpec t;
        t.id = id++;
        t.category = "env";
        t.exec_seconds = 10.0;
        t.true_cores = 1.0;
        t.true_peak = alloc::Resources{1.0, 1e8, 1e3};
        wq::InputFile f;
        f.name = "env-" + std::to_string(e) + ".tar";
        f.size_bytes = envs[e].manifest->total_bytes();
        f.cacheable = true;
        f.unpack_seconds = 1.0;
        f.manifest = envs[e].manifest;
        t.inputs.push_back(std::move(f));
        master.submit(std::move(t));
      }
    }
  }
  master.cancel_task(id - 1);
  sim.schedule_at(5.0, [&master] { master.cancel_task(1); });
  const wq::MasterStats stats = master.run();
  EXPECT_GT(stats.delta_transfers, 0);
  EXPECT_GT(stats.cache_evictions, 0);
  EXPECT_GT(stats.chunk_cache_evictions, 0);
  EXPECT_EQ(stats.tasks_cancelled, 2);
}

// A chaos campaign on the simulated master, set up as bench/chaos_soak sets
// up a seed.
void simulated_campaign() {
  constexpr uint64_t kSeed = 7;
  constexpr int kWorkers = 6;
  sim::Simulation sim;
  sim::Network network(sim, {});
  alloc::LabelerConfig lc;
  lc.strategy = alloc::Strategy::kAuto;
  lc.whole_node = node();
  lc.guess = alloc::Resources{1.0, 2e9, 4e9};
  lc.warmup_samples = 3;
  alloc::Labeler labeler(lc);
  wq::MasterConfig mc;
  mc.retry.backoff_base = 0.5;
  mc.retry.backoff_multiplier = 2.0;
  mc.retry.backoff_max = 30.0;
  mc.retry.jitter_fraction = 0.2;
  mc.retry.jitter_seed = kSeed;
  wq::Master master(sim, network, labeler, mc);
  const chaos::Plan plan =
      chaos::compile_plan(kSeed, chaos::default_campaign(100.0), kWorkers, 1);
  chaos::Injector injector(sim, master, plan);
  injector.arm();
  for (int w = 0; w < kWorkers; ++w) master.add_worker({node(), 0.0});
  Rng rng(kSeed);
  for (int i = 0; i < 120; ++i) {
    wq::TaskSpec t;
    t.id = static_cast<uint64_t>(i + 1);
    t.true_cores = 1.0;
    t.output_bytes = 1000 * 1000;
    if (i < 2) {  // above the whole node: exhausts at every rung, then fails
      t.category = "impossible";
      t.exec_seconds = rng.uniform(2.0, 5.0);
      t.true_peak = alloc::Resources{1.0, 96e9, 1e9};
    } else {
      const int cat = i % 3;
      t.category = "cat-" + std::to_string(cat);
      t.exec_seconds = rng.uniform(10.0, 40.0);
      const double mem = rng.uniform(0.8, 1.2) * (0.5 + 0.25 * cat) * 1e9;
      t.true_peak = alloc::Resources{1.0, mem, rng.uniform(1e9, 2e9)};
      wq::InputFile f;
      f.name = "env-" + std::to_string(cat) + ".tar.gz";
      f.size_bytes = 200LL * 1000 * 1000;
      f.cacheable = true;
      f.unpack_seconds = 0.3;
      t.inputs.push_back(std::move(f));
    }
    master.submit(std::move(t));
  }
  master.run();
}

// Every frame kind, encoded and decoded once.
void every_frame_kind() {
  wq::TaskMessage task;
  task.task_id = 1;
  task.category = "series";
  task.command_line = "exit 0";
  task.infiles.push_back({"in.bin", 3, true});
  wq::ResultMessage result;
  result.task_id = 1;
  result.payload = serde::Bytes(16, 7);
  wq::TelemetryMessage telemetry;
  telemetry.source = "series";
  telemetry.counters = {{"c", 1}};
  wq::decode_task(wq::encode(task));
  wq::decode_result(wq::encode(result));
  wq::decode_hello(wq::encode(wq::HelloMessage{"series", node()}));
  wq::decode_file(wq::encode(wq::FileMessage{"in.bin", true, serde::Bytes(3, 1)}));
  wq::decode_control(wq::encode(wq::ControlMessage{wq::ControlType::kPing, 1, 0.5}));
  wq::decode_stats(wq::encode(wq::StatsMessage{"series", 1, 2, 3, 4, 5, 6, 7}));
  wq::decode_telemetry(wq::encode(telemetry));
  wq::decode_task_batch(wq::encode_batch(std::vector<wq::TaskMessage>(3, task)));
  wq::decode_result_batch(wq::encode_batch(std::vector<wq::ResultMessage>(3, result)));
}

// One frame written through a Connection, which sets the write-queue gauge
// when it flushes.
void one_socket_flush() {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  net::EventLoop loop;
  const auto conn = std::make_shared<net::Connection>(loop, fds[0], 1);
  conn->start();
  conn->send(wq::encode(wq::ControlMessage{wq::ControlType::kPing, 2, 0.0}));
  conn->close("done");
  ::close(fds[1]);
}

void bulk_analysis() {
  std::vector<flow::AnalysisRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back({"import json\ndef f" + std::to_string(i) + "(x):\n    return x\n",
                        "f" + std::to_string(i)});
  }
  const auto plans = flow::analyze_all(requests, pkg::standard_index(), 2);
  EXPECT_EQ(plans.size(), requests.size());
}

// Four apps on forked LFMs: one waits on another's future, one fails, and
// one depends on the failure. The two upstream apps sleep first, so both
// dependents are submitted while their dependency is still pending (a
// dependency already done when its dependent is submitted records neither
// a resolve wait nor a dependency failure).
void dataflow_run() {
  flow::LocalLfmExecutor exec(2);
  flow::DataFlowKernel dfk(exec);
  const flow::App one = flow::App::make("one", [](const Value&) { return Value(1); });
  const flow::App slow = flow::App::make("slow", [](const Value&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Value(1);
  });
  const flow::App fail = flow::App::make("fail", [](const Value&) -> Value {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    throw std::runtime_error("deliberate");
  });
  const flow::Future a = dfk.submit(slow, {});
  const flow::Future b = dfk.submit(one, {flow::Arg(a)});
  const flow::Future bad = dfk.submit(fail, {});
  const flow::Future dependent = dfk.submit(one, {flow::Arg(bad)});
  dfk.wait_all();
  EXPECT_TRUE(b.outcome().ok());
  EXPECT_FALSE(dependent.outcome().ok());
}

void funcx_round() {
  faas::FuncXService service;
  flow::InlineExecutor exec;
  service.add_endpoint(std::make_shared<faas::Endpoint>("ep", exec));
  const faas::FunctionId id = service.registry().register_function(
      "square", [](const Value& v) { return Value(v.as_int() * v.as_int()); });
  EXPECT_EQ(service.submit(id, "ep", Value(9)).result().as_int(), 81);
}

// One monitored call that returns, one the wall-time limit kills, and one
// Python task through the worker.
void monitored_runs() {
  monitor::MonitorOptions options;
  options.poll_interval = 0.005;
  EXPECT_TRUE(monitor::run_monitored([](const Value&) { return Value(1); }, Value(),
                                     options)
                  .ok());
  options.limits.wall_time = 0.05;
  const auto killed = monitor::run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::seconds(5));
        return Value(1);
      },
      Value(), options);
  EXPECT_EQ(killed.status, monitor::TaskStatus::kLimitExceeded);

  wq::LocalWorkerOptions wo;
  wo.poll_interval = 0.005;
  wq::LocalWorker worker(wo);
  serde::ValueList args;
  args.push_back(Value(int64_t{4}));
  auto [task, files] = wq::make_python_task(3, "series", "def f(x):\n    return x + 1\n",
                                            "f", Value(std::move(args)),
                                            alloc::Resources{1.0, 512e6, 1e9});
  EXPECT_EQ(worker.execute(task, files).exit_code, 0);
}

// --- the table ---------------------------------------------------------------

struct Series {
  char kind;  // 'c' counter, 'g' gauge, 'h' histogram
  double lo = 0, hi = 0;
  size_t buckets = 0;
  int64_t value = 0;  // counters: the value; histograms: the count
};

constexpr int64_t kAny = -1;  // a counter whose value the workload leaves open

struct Expected {
  const char* name;
  char kind;
  double lo, hi;
  size_t buckets;
  int64_t value;  // counters only; kAny if timing decides it
};

// Recorded from a build of the code before the obs handles, with the
// registry's own lookups at every record site. lfm.polls depends on how
// many samples the monitor takes before each child exits.
const Expected kExpected[] = {
    {"chaos.crashes", 'c', 0, 0, 0, 4},
    {"chaos.fs_stalls", 'c', 0, 0, 0, 5},
    {"chaos.net_slowdowns", 'c', 0, 0, 0, 4},
    {"chaos.partitions", 'c', 0, 0, 0, 3},
    {"chaos.rejoins", 'c', 0, 0, 0, 1},
    {"chaos.spurious_kills", 'c', 0, 0, 0, 5},
    {"chaos.stragglers", 'c', 0, 0, 0, 5},
    {"dist.bytes_saved", 'c', 0, 0, 0, 54740},
    {"dist.bytes_shipped", 'c', 0, 0, 0, 86572},
    {"dist.chunk_evictions", 'c', 0, 0, 0, 44},
    {"dist.delta_transfers", 'c', 0, 0, 0, 4},
    {"dist.full_transfers", 'c', 0, 0, 0, 2},
    {"dist.miss_fraction", 'h', 1e-06, 1, 48, 0},
    {"faas.functions_registered", 'c', 0, 0, 0, 1},
    {"faas.invocations", 'c', 0, 0, 0, 1},
    {"flow.analyses", 'c', 0, 0, 0, 4},
    {"flow.apps_completed", 'c', 0, 0, 0, 3},
    {"flow.apps_submitted", 'c', 0, 0, 0, 4},
    {"flow.dep_failures", 'c', 0, 0, 0, 1},
    {"flow.resolve_wait_seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"labeler.exhaustions", 'c', 0, 0, 0, 22},
    {"labeler.peak_mem_gb", 'h', 0.001, 10000, 70, 0},
    {"labeler.samples", 'c', 0, 0, 0, 128},
    {"lfm.child_minflt", 'h', 1e-06, 1e+06, 96, 0},
    {"lfm.fork_us", 'h', 1e-06, 1e+06, 96, 0},
    {"lfm.invocation_seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"lfm.invocations", 'c', 0, 0, 0, 6},
    {"lfm.limit_kills", 'c', 0, 0, 0, 1},
    {"lfm.polls", 'c', 0, 0, 0, kAny},
    {"net.write_queue_bytes", 'g', 0, 0, 0, 0},
    {"obs.sval_truncated", 'c', 0, 0, 0, 1},
    {"pack.archive_bytes", 'h', 1, 1e+12, 96, 0},
    {"pack.cache_hits", 'c', 0, 0, 0, 1},
    {"pack.chunks", 'c', 0, 0, 0, 27},
    {"pack.cold_packs", 'c', 0, 0, 0, 3},
    {"pack.requests", 'c', 0, 0, 0, 4},
    {"pack.seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"sim.events_cancelled", 'c', 0, 0, 0, 48},
    {"sim.events_executed", 'c', 0, 0, 0, 724},
    {"wire.bytes_decoded", 'c', 0, 0, 0, 497},
    {"wire.bytes_encoded", 'c', 0, 0, 0, 512},
    {"wire.encoded_batch_size", 'h', 1, 100000, 48, 0},
    {"wire.frames_decoded", 'c', 0, 0, 0, 9},
    {"wire.frames_encoded", 'c', 0, 0, 0, 10},
    {"worker.tasks_executed", 'c', 0, 0, 0, 1},
    {"wq.cache_evictions", 'c', 0, 0, 0, 4},
    {"wq.cache_hits", 'c', 0, 0, 0, 119},
    {"wq.exhaustions", 'c', 0, 0, 0, 22},
    {"wq.first_dispatch_wait_seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"wq.run_seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"wq.tasks_cancelled", 'c', 0, 0, 0, 2},
    {"wq.tasks_completed", 'c', 0, 0, 0, 128},
    {"wq.tasks_dispatched", 'c', 0, 0, 0, 159},
    {"wq.tasks_failed", 'c', 0, 0, 0, 2},
    {"wq.tasks_submitted", 'c', 0, 0, 0, 132},
    {"wq.turnaround_seconds", 'h', 1e-06, 1e+06, 96, 0},
    {"wq.worker_crashes", 'c', 0, 0, 0, 3},
};

std::map<std::string, Series> exported(const obs::Metrics& m) {
  std::map<std::string, Series> out;
  for (const auto& [name, v] : m.counters()) out[name] = Series{'c', 0, 0, 0, v};
  for (const auto& [name, v] : m.gauges()) out[name] = Series{'g', 0, 0, 0, 0};
  for (const auto& [name, h] : m.histograms()) {
    out[name] = Series{'h', h.lo(), h.hi(), h.bucket_count(),
                       static_cast<int64_t>(h.count())};
  }
  return out;
}

std::string row(const std::string& name, const Series& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "    {\"%s\", '%c', %g, %g, %zu, %lld},", name.c_str(),
                s.kind, s.lo, s.hi, s.buckets,
                static_cast<long long>(s.kind == 'c' ? s.value : 0));
  return buf;
}

TEST(Series, TracedWorkloadExportsTheRecordedSeries) {
  obs::Recorder& r = obs::Recorder::global();
  r.clear();
  r.set_enabled(true);
  simulated_campaign();
  const std::vector<pkg::PackedEnvironment> envs = pack_siblings();
  delta_campaign(envs);
  every_frame_kind();
  one_socket_flush();
  bulk_analysis();
  dataflow_run();
  funcx_round();
  monitored_runs();
  r.instant(obs::kPidHost, 0, r.now(), "long", "series", "text", std::string(4096, 'x'));
  r.set_enabled(false);

  const std::map<std::string, Series> got = exported(r.metrics());
  std::string table;
  for (const auto& [name, s] : got) {
    if (s.kind == 'g' || s.value > 0) table += row(name, s) + "\n";
  }
  std::map<std::string, const Expected*> want;
  for (const Expected& e : kExpected) want[e.name] = &e;
  for (const auto& [name, e] : want) {
    const auto it = got.find(name);
    if (it == got.end()) {
      ADD_FAILURE() << name << " is not exported";
      continue;
    }
    const Series& s = it->second;
    EXPECT_EQ(s.kind, e->kind) << name;
    if (e->kind == 'h') {
      EXPECT_EQ(s.lo, e->lo) << name;
      EXPECT_EQ(s.hi, e->hi) << name;
      EXPECT_EQ(s.buckets, e->buckets) << name;
      EXPECT_GT(s.value, 0) << name << " recorded nothing";
    }
    if (e->kind == 'c') {
      if (e->value == kAny) {
        EXPECT_GT(s.value, 0) << name;
      } else {
        EXPECT_EQ(s.value, e->value) << name;
      }
    }
  }
  // No series recorded outside the table.
  for (const auto& [name, s] : got) {
    if (s.kind != 'g' && s.value == 0) continue;
    EXPECT_EQ(want.count(name), 1u) << name << " is exported but not in the table";
  }
  if (HasFailure()) std::printf("exported:\n%s", table.c_str());
  r.clear();
}

}  // namespace
}  // namespace lfm
