// Tests for the observability subsystem: recorder gating, the metrics
// registry, the Chrome trace read back through the tests' JSON parser,
// the Prometheus golden file, and end-to-end span coverage of the WQ master
// and the real LFM monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "monitor/lfm.h"
#include "obs/clock.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "support/json_parse.h"
#include "util/log.h"
#include "wq/master.h"

namespace lfm::obs {
namespace {

// The recorder is process-global; every test starts disabled and empty and
// leaves no clock, hook, or enabled state behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::global().set_enabled(false);
    Recorder::global().clear();
  }
  void TearDown() override {
    Recorder& r = Recorder::global();
    r.set_enabled(false);
    r.mirror_logs(false);
    r.set_clock(nullptr);
    r.clear();
  }
};

TEST_F(ObsTest, DisabledRecorderRecordsNoEvents) {
  Recorder& r = Recorder::global();
  ASSERT_FALSE(Recorder::enabled());
  r.begin(kPidSim, 1, 0.0, "task", "task");
  r.end(kPidSim, 1, 1.0);
  r.complete(kPidHost, 2, 0.0, 0.5, "analyze", "flow");
  r.instant(kPidSim, 1, 0.5, "label", "alloc");
  r.counter(kPidHost, 1, 0.5, "lfm.usage", "rss_mb", 12.0);
  { ScopedSpan span(kPidHost, 3, "scoped", "test"); }
  EXPECT_EQ(r.event_count(), 0u);
  EXPECT_TRUE(r.events().empty());
}

TEST_F(ObsTest, EnableDisableGatesRecording) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  r.instant(kPidSim, 1, 0.0, "one", "test");
  r.set_enabled(false);
  r.instant(kPidSim, 1, 1.0, "two", "test");
  ASSERT_EQ(r.event_count(), 1u);
  EXPECT_STREQ(r.events()[0].name, "one");
}

TEST_F(ObsTest, InstallableClockDrivesHostTimestamps) {
  Recorder& r = Recorder::global();
  double fake_now = 42.0;
  r.set_clock([&fake_now] { return fake_now; });
  EXPECT_DOUBLE_EQ(r.now(), 42.0);
  fake_now = 43.5;
  EXPECT_DOUBLE_EQ(r.now(), 43.5);
  r.set_clock(nullptr);
  // Default clock: steady wall seconds, monotone non-decreasing.
  const double a = r.now();
  const double b = r.now();
  EXPECT_GE(b, a);
}

TEST_F(ObsTest, MetricsRegistryReturnsStableReferences) {
  Metrics m;
  Counter& c1 = m.counter("wq.tasks");
  Counter& c2 = m.counter("wq.tasks");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  c2.add();
  EXPECT_EQ(c1.value(), 4);

  Gauge& g = m.gauge("wq.queue_depth");
  g.set(17.5);
  EXPECT_DOUBLE_EQ(m.gauge("wq.queue_depth").value(), 17.5);

  HistogramMetric& h1 = m.histogram("wq.run_seconds");
  HistogramMetric& h2 = m.histogram("wq.run_seconds", 1.0, 2.0, 3);  // shape ignored
  EXPECT_EQ(&h1, &h2);
  h1.observe(0.5);
  EXPECT_EQ(h2.snapshot().count(), 1);

  // Snapshots are name-sorted.
  m.counter("alpha").add();
  const auto counters = m.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "wq.tasks");

  // clear() resets values in place; previously returned references survive.
  m.clear();
  EXPECT_EQ(c1.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h1.snapshot().count(), 0);
  c1.add();
  EXPECT_EQ(m.counter("wq.tasks").value(), 1);
}

TEST_F(ObsTest, PrefixedRegistriesNamespaceWithoutTouchingTheDefault) {
  // Co-hosted fed components (a RootMaster plus in-process Foremen) each
  // own a prefixed Metrics instance; the same source-level metric name
  // lands under distinct exported names, and the process-wide default
  // registry — and hence the golden Prometheus exposition — is untouched.
  Metrics root("root."), shard("f1.");
  root.counter("net.results").add(3);
  shard.counter("net.results").add(4);
  shard.gauge("fed.tree_workers").set(8.0);
  shard.histogram("net.rtt").observe(0.25);

  EXPECT_EQ(root.counter("net.results").value(), 3);
  EXPECT_EQ(shard.counter("net.results").value(), 4);

  // Snapshots carry the prefixed names (that is what exporters see).
  const auto root_counters = root.counters();
  ASSERT_EQ(root_counters.size(), 1u);
  EXPECT_EQ(root_counters[0].first, "root.net.results");
  EXPECT_EQ(root_counters[0].second, 3);
  for (const auto& [name, value] : shard.counters()) {
    EXPECT_EQ(name.rfind("f1.", 0), 0u) << name;
  }
  ASSERT_EQ(shard.gauges().size(), 1u);
  EXPECT_EQ(shard.gauges()[0].first, "f1.fed.tree_workers");
  ASSERT_EQ(shard.histograms().size(), 1u);
  EXPECT_EQ(shard.histograms()[0].first, "f1.net.rtt");

  // Repeated lookups return the same instance (reference stability holds
  // per registry, prefixed or not).
  EXPECT_EQ(&root.counter("net.results"), &root.counter("net.results"));
  EXPECT_NE(&root.counter("net.results"), &shard.counter("net.results"));

  // Nothing leaked into the process-wide default registry.
  for (const auto& [name, value] : Recorder::global().metrics().counters()) {
    EXPECT_EQ(name.find("net.results"), std::string::npos) << name;
  }
  EXPECT_TRUE(Recorder::global().metrics().prefix().empty());
}

TEST_F(ObsTest, HandleRecordsWhereItsRegistryRuleSays) {
  Metrics own("own.");
  Count configured(&own, "h.count");
  Count never(&own, "h.never");
  Count global("h.count");
  Spread shaped("h.shape", 1.0, 100.0, 8);
  const auto global_count = [] {
    for (const auto& [name, v] : Recorder::global().metrics().counters()) {
      if (name == "h.count") return v;
    }
    return int64_t{0};
  };

  // Recorder off: a handle with a registry records, one without does not.
  // A series appears in its registry once it is first recorded.
  configured.add(2);
  global.add(5);
  EXPECT_EQ(own.counter("h.count").value(), 2);
  EXPECT_EQ(own.counters().size(), 1u) << "a never-recorded handle exported a series";
  EXPECT_EQ(global_count(), 0);

  Recorder::global().set_enabled(true);
  global.add(5);
  shaped.observe(3.0);
  Recorder::global().set_enabled(false);
  global.add(5);
  EXPECT_EQ(global_count(), 5);
  const LogHistogram h = Recorder::global().metrics().histogram("h.shape").snapshot();
  EXPECT_EQ(h.lo(), 1.0);
  EXPECT_EQ(h.hi(), 100.0);
  EXPECT_EQ(h.bucket_count(), 8u);
  EXPECT_EQ(h.count(), 1);

  // A copy names the same series.
  Count copy(configured);
  copy.add();
  EXPECT_EQ(own.counter("h.count").value(), 3);
}

TEST_F(ObsTest, HandleCountsExactlyAcrossThreads) {
  // Threads start together, so several race on the first record through
  // each handle; every update still lands in the one series.
  constexpr int kThreads = 8, kAdds = 20000;
  Metrics own;
  Count global("threads.count");
  Spread spread("threads.spread");
  Count configured(&own, "threads.count");
  Recorder::global().set_enabled(true);
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kAdds; ++i) {
        global.add();
        configured.add(2);
        if (i % 100 == 0) spread.observe(1e-3);
      }
    });
  }
  for (auto& t : pool) t.join();
  Recorder::global().set_enabled(false);
  Metrics& m = Recorder::global().metrics();
  EXPECT_EQ(m.counter("threads.count").value(), int64_t{kThreads} * kAdds);
  EXPECT_EQ(m.histogram("threads.spread").snapshot().count(), kThreads * kAdds / 100);
  EXPECT_EQ(own.counter("threads.count").value(), int64_t{2} * kThreads * kAdds);
}

TEST_F(ObsTest, ChromeTraceRoundTripsThroughSerdeJson) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  r.begin(kPidSim, 7, 1.0, "task", "task");
  r.begin(kPidSim, 7, 1.25, "run", "task");
  r.instant(kPidSim, 7, 1.5, "label", "alloc", "category", "hep", "cores", 2.0);
  r.end(kPidSim, 7, 2.0);
  r.end(kPidSim, 7, 2.5, "outcome", "completed", "attempt", 0.0);
  r.complete(kPidHost, 0, 0.0, 0.125, "flow.analyze_all", "flow", "requests", 3.0);
  r.counter(kPidHost, 7, 0.5, "lfm.usage", "rss_mb", 64.0, "cores", 1.5);

  const serde::Value doc = serde::from_json(chrome_trace_json(r.events()));
  ASSERT_TRUE(doc.is_dict());
  EXPECT_EQ(doc.as_dict().at("displayTimeUnit").as_str(), "ms");
  const auto& list = doc.as_dict().at("traceEvents").as_list();
  ASSERT_EQ(list.size(), r.event_count() + 3);  // + process_name metadata

  // The first three entries label the pid domains.
  for (size_t i = 0; i < 3; ++i) {
    const auto& meta = list[i].as_dict();
    EXPECT_EQ(meta.at("ph").as_str(), "M");
    EXPECT_EQ(meta.at("name").as_str(), "process_name");
  }

  // Every recorded event carries the required fields; timestamps are µs.
  for (size_t i = 3; i < list.size(); ++i) {
    const auto& ev = list[i].as_dict();
    EXPECT_EQ(ev.count("ph"), 1u);
    EXPECT_EQ(ev.count("ts"), 1u);
    EXPECT_EQ(ev.count("pid"), 1u);
    EXPECT_EQ(ev.count("tid"), 1u);
  }
  const auto& task_begin = list[3].as_dict();
  EXPECT_EQ(task_begin.at("ph").as_str(), "B");
  EXPECT_DOUBLE_EQ(task_begin.at("ts").as_real(), 1.0e6);
  EXPECT_EQ(task_begin.at("pid").as_int(), static_cast<int64_t>(kPidSim));
  EXPECT_EQ(task_begin.at("tid").as_int(), 7);

  const auto& instant = list[5].as_dict();
  EXPECT_EQ(instant.at("ph").as_str(), "i");
  EXPECT_EQ(instant.at("s").as_str(), "t");
  EXPECT_EQ(instant.at("args").as_dict().at("category").as_str(), "hep");
  EXPECT_DOUBLE_EQ(instant.at("args").as_dict().at("cores").as_real(), 2.0);

  const auto& outcome_end = list[7].as_dict();
  EXPECT_EQ(outcome_end.at("ph").as_str(), "E");
  EXPECT_EQ(outcome_end.at("args").as_dict().at("outcome").as_str(), "completed");

  const auto& complete = list[8].as_dict();
  EXPECT_EQ(complete.at("ph").as_str(), "X");
  EXPECT_DOUBLE_EQ(complete.at("dur").as_real(), 0.125e6);
}

// Walk a parsed trace and check that, per (pid, tid) lane, B/E events nest:
// depth never goes negative and every lane closes at depth zero.
void check_span_nesting(const serde::Value& doc) {
  std::map<std::pair<int64_t, int64_t>, int> depth;
  for (const auto& item : doc.as_dict().at("traceEvents").as_list()) {
    const auto& ev = item.as_dict();
    const std::string ph = ev.at("ph").as_str();
    if (ph != "B" && ph != "E") continue;
    const auto lane = std::make_pair(ev.at("pid").as_int(), ev.at("tid").as_int());
    if (ph == "B") {
      ++depth[lane];
    } else {
      ASSERT_GT(depth[lane], 0) << "E without open B on tid " << lane.second;
      --depth[lane];
    }
  }
  for (const auto& [lane, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << lane.second;
  }
}

TEST_F(ObsTest, MasterTraceCoversEveryTaskRecord) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);

  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::LabelerConfig cfg;
  cfg.whole_node = alloc::Resources{8, 8e9, 16e9};
  cfg.guess = alloc::Resources{1, 1e9, 2e9};
  cfg.strategy = alloc::Strategy::kGuess;
  alloc::Labeler labeler(cfg);
  wq::Master master(sim, net, labeler);
  master.add_worker({alloc::Resources{8, 8e9, 16e9}, 0.0});
  master.add_worker({alloc::Resources{8, 8e9, 16e9}, 0.0});
  for (uint64_t i = 1; i <= 24; ++i) {
    wq::TaskSpec t;
    t.id = i;
    t.category = "u";
    t.exec_seconds = 20.0;
    t.true_cores = 1.0;
    t.true_peak = alloc::Resources{1.0, 500e6, 1e9};
    master.submit(std::move(t));
  }
  // Exercise the unhappy paths the span state machine must close: a worker
  // crash mid-flight (requeues + cancels) and user cancellations of both a
  // queued and a running task.
  sim.schedule(5.0, [&] { master.crash_worker(0); });
  sim.schedule(1.0, [&] { master.cancel_task(24); });
  sim.schedule(6.0, [&] { master.cancel_task(3); });
  const wq::MasterStats stats = master.run();

  const auto events = r.events();
  ASSERT_GT(events.size(), 0u);

  // Every TaskRecord gets exactly one "task" begin span on its own lane.
  std::map<uint64_t, int> task_begins;
  std::map<uint64_t, int> outcome_ends;
  for (const TraceEvent& ev : events) {
    if (ev.ph == Phase::kBegin && std::string(ev.name ? ev.name : "") == "task") {
      ++task_begins[ev.tid];
    }
    if (ev.ph == Phase::kEnd && ev.skey && std::string(ev.skey) == "outcome") {
      ++outcome_ends[ev.tid];
    }
  }
  ASSERT_EQ(task_begins.size(), master.records().size());
  for (const auto& rec : master.records()) {
    EXPECT_EQ(task_begins[rec.spec.id], 1) << "task " << rec.spec.id;
    EXPECT_EQ(outcome_ends[rec.spec.id], 1) << "task " << rec.spec.id;
  }

  // The exported trace is valid JSON with monotone nesting per lane, even
  // through the crash/cancel paths.
  const serde::Value doc = serde::from_json(chrome_trace_json(events));
  check_span_nesting(doc);

  // Master metrics reconcile with the run's stats.
  Metrics& m = r.metrics();
  EXPECT_EQ(m.counter("wq.tasks_submitted").value(), 24);
  EXPECT_EQ(m.counter("wq.tasks_completed").value(), stats.tasks_completed);
  EXPECT_EQ(m.counter("wq.tasks_cancelled").value(), stats.tasks_cancelled);
  EXPECT_EQ(m.counter("wq.worker_crashes").value(), 1);
  EXPECT_EQ(m.histogram("wq.turnaround_seconds").snapshot().count(),
            stats.tasks_completed);
}

TEST_F(ObsTest, MonitorEmitsSpanAndUsageSeries) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);

  monitor::MonitorOptions options;
  options.poll_interval = 0.01;
  options.trace_tid = 77;
  const auto outcome = monitor::run_monitored(
      [](const serde::Value&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return serde::Value(int64_t{1});
      },
      serde::Value(), options);
  ASSERT_TRUE(outcome.ok());

  int usage_samples = 0;
  int begins = 0;
  int ends = 0;
  for (const TraceEvent& ev : r.events()) {
    if (ev.pid != kPidHost || ev.tid != 77) continue;
    if (ev.ph == Phase::kCounter && std::string(ev.name) == "lfm.usage") ++usage_samples;
    if (ev.ph == Phase::kBegin && std::string(ev.name) == "lfm.run") ++begins;
    if (ev.ph == Phase::kEnd) ++ends;
  }
  EXPECT_GT(usage_samples, 0);
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(r.metrics().counter("lfm.invocations").value(), 1);
  EXPECT_GT(r.metrics().counter("lfm.polls").value(), 0);
  EXPECT_EQ(r.metrics().histogram("lfm.invocation_seconds").snapshot().count(), 1);
}

TEST_F(ObsTest, PrometheusTextMatchesGoldenFile) {
  Metrics m;
  m.counter("wq.tasks_dispatched").add(128);
  m.counter("lfm.limit-kills").add(3);  // '-' rewrites to '_'
  m.gauge("wq.queue_depth").set(17.5);
  HistogramMetric& h = m.histogram("demo.latency_seconds", 1e-3, 1e3, 12);
  h.observe(0.0005);  // underflow -> bucket 0
  h.observe(0.25);
  h.observe(0.5);
  h.observe(8.0);
  h.observe(5000.0);  // overflow -> last bucket
  const std::string actual = prometheus_text(m);

  const std::string golden_path =
      std::string(LFM_SOURCE_DIR) + "/tests/golden/metrics.prom";
  std::FILE* f = std::fopen(golden_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "missing golden file " << golden_path;
  std::string golden;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) golden.append(buf, n);
  std::fclose(f);

  EXPECT_EQ(actual, golden) << "regenerate with:\n" << actual;
}

TEST_F(ObsTest, LogHookMirrorsRecordsAsInstantEvents) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  set_log_sink([](LogLevel, const std::string&, const std::string&) {});  // mute stderr
  r.mirror_logs(true);
  log_message(LogLevel::kWarn, "wq", "cache full");
  r.mirror_logs(false);
  log_message(LogLevel::kWarn, "wq", "not mirrored");
  set_log_sink(nullptr);

  const auto events = r.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, Phase::kInstant);
  EXPECT_STREQ(events[0].name, "log");
  EXPECT_STREQ(events[0].sval, "wq: cache full");
  EXPECT_DOUBLE_EQ(events[0].aval0, static_cast<double>(static_cast<int>(LogLevel::kWarn)));
}

TEST_F(ObsTest, LongStringPayloadsTruncateSafely) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  const std::string long_text(200, 'x');
  r.instant(kPidHost, 0, 0.0, "log", "log", "message", long_text);
  const auto events = r.events();
  ASSERT_EQ(events.size(), 1u);
  const std::string stored(events[0].sval);
  EXPECT_EQ(stored.size(), sizeof(TraceEvent::sval) - 1);
  EXPECT_EQ(stored, long_text.substr(0, stored.size()));
  // Still exports as valid JSON.
  serde::from_json(chrome_trace_json(events));
}

TEST_F(ObsTest, SvalTruncationBumpsCounter) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  const int64_t before = r.metrics().counter("obs.sval_truncated").value();
  r.instant(kPidHost, 0, 0.0, "log", "log", "message", std::string(200, 'y'));
  r.instant(kPidHost, 0, 0.0, "log", "log", "message", "short");
  EXPECT_EQ(r.metrics().counter("obs.sval_truncated").value(), before + 1);
}

TEST_F(ObsTest, TraceScopeStampsAndRestores) {
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  r.instant(kPidHost, 0, 0.0, "outside", "test");
  {
    TraceScope outer(0x1111);
    r.instant(kPidHost, 0, 0.1, "outer", "test");
    {
      TraceScope inner(0x2222);
      r.instant(kPidHost, 0, 0.2, "inner", "test");
    }
    r.instant(kPidHost, 0, 0.3, "outer-again", "test");
  }
  r.instant(kPidHost, 0, 0.4, "outside-again", "test");
  const auto events = r.events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0x1111u);
  EXPECT_EQ(events[2].trace_id, 0x2222u);
  EXPECT_EQ(events[3].trace_id, 0x1111u);
  EXPECT_EQ(events[4].trace_id, 0u);
  // The local trace carries a stamped id as the merged trace does.
  const serde::Value doc = chrome_trace_value(events);
  const auto& list = doc.at("traceEvents").as_list();
  ASSERT_EQ(list.size(), 3 + events.size());  // + process_name metadata
  EXPECT_EQ(list[3].as_dict().count("args"), 0u);
  EXPECT_EQ(list[4].at("args").at("trace_id").as_str(), "0x0000000000001111");
  EXPECT_EQ(list[5].at("args").at("trace_id").as_str(), "0x0000000000002222");
}

// --- clock-offset estimation -------------------------------------------------

TEST(ClockOffset, FirstSampleInitializesDirectly) {
  ClockOffsetEstimator est;
  EXPECT_DOUBLE_EQ(est.offset(), 0.0);
  // Peer clock runs 10s ahead; symmetric 20ms RTT.
  est.feed(100.0, 110.01, 100.02);
  EXPECT_EQ(est.samples(), 1);
  EXPECT_NEAR(est.offset(), 10.0, 1e-9);
  EXPECT_NEAR(est.last_rtt(), 0.02, 1e-9);
}

TEST(ClockOffset, AsymmetricRttErrorBoundedByHalfRtt) {
  // True offset 5s, but the outbound leg takes 1ms and the return 9ms:
  // ping at t=0 arrives at peer t=5.001, answered immediately, pong back
  // at local t=0.010. Midpoint sample = 5.001 - 0.005 = 4.996 — wrong by
  // 4ms, within rtt/2 = 5ms of truth.
  ClockOffsetEstimator est;
  est.feed(0.0, 5.001, 0.010);
  EXPECT_NEAR(est.offset(), 5.0, est.last_rtt() / 2.0 + 1e-9);
  EXPECT_NEAR(est.offset(), 4.996, 1e-9);
}

TEST(ClockOffset, EwmaSmoothsJitter) {
  ClockOffsetEstimator est(0.125);
  est.feed(0.0, 2.0, 0.0);  // initialize at exactly 2.0
  // Jittered sample: midpoint says 2.4 (within the step threshold).
  est.feed(10.0, 12.4, 10.0);
  EXPECT_NEAR(est.offset(), 2.0 + 0.125 * 0.4, 1e-9);
  EXPECT_EQ(est.samples(), 2);
}

TEST(ClockOffset, ClockStepResetsInsteadOfConverging) {
  ClockOffsetEstimator est;
  for (int i = 0; i < 20; ++i) {
    const double t = i * 1.0;
    est.feed(t, t + 3.0 + 0.005, t + 0.01);  // steady offset 3s, 10ms RTT
  }
  EXPECT_NEAR(est.offset(), 3.0, 1e-6);
  // Peer restarts: its clock now reads 40s ahead. A single post-step
  // sample must snap the estimate, not nudge it by alpha.
  est.feed(30.0, 70.005, 30.01);
  EXPECT_NEAR(est.offset(), 40.0, 1e-6);
}

TEST(ClockOffset, NegativeRttSamplesIgnored) {
  ClockOffsetEstimator est;
  est.feed(5.0, 7.0, 4.0);  // t_recv before t_send: bogus
  EXPECT_EQ(est.samples(), 0);
  EXPECT_DOUBLE_EQ(est.offset(), 0.0);
}

// --- root-side collector -----------------------------------------------------

namespace {
TelemetryEvent make_span(uint64_t trace_id, double ts, double dur,
                         const std::string& name, uint32_t pid = kPidHost) {
  TelemetryEvent ev;
  ev.ph = 'X';
  ev.pid = pid;
  ev.tid = 7;
  ev.trace_id = trace_id;
  ev.ts = ts;
  ev.dur = dur;
  ev.name = name;
  ev.cat = "test";
  return ev;
}
}  // namespace

TEST(Collector, NormalizesClockAndAssignsLanes) {
  Collector c;
  // Worker's clock runs 100s ahead of the root's: a span it recorded at
  // its t=105 really happened at root t=5.
  c.add("w0", 100.0, {make_span(1, 105.0, 0.5, "lfm.run")}, 3);
  c.add("w1", -2.0, {make_span(1, 4.0, 0.25, "lfm.run")});
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  r.complete(kPidHost, 7, 4.5, 2.0, "task", "fed");
  c.add_local("root", r.drain_events());
  r.set_enabled(false);

  EXPECT_EQ(c.event_count(), 3u);
  EXPECT_EQ(c.source_count(), 3u);
  EXPECT_EQ(c.dropped_total(), 3);
  const auto events = c.events();
  std::map<std::string, double> ts_by_source;
  std::map<uint64_t, int> lane_seen;
  for (const auto& ev : events) {
    ++lane_seen[ev.pid];
    if (ev.name == "lfm.run") ts_by_source[ev.cat + std::to_string(ev.ts)] = ev.ts;
  }
  // Three distinct lanes, one per (source, pid-domain).
  EXPECT_EQ(lane_seen.size(), 3u);
  // Normalized timestamps: 105-100=5 and 4-(-2)=6 land inside the root's
  // 4.5..6.5 task span.
  std::vector<double> ts;
  for (const auto& ev : events) ts.push_back(ev.ts);
  std::sort(ts.begin(), ts.end());
  EXPECT_NEAR(ts[0], 4.5, 1e-9);
  EXPECT_NEAR(ts[1], 5.0, 1e-9);
  EXPECT_NEAR(ts[2], 6.0, 1e-9);
}

TEST(Collector, TraceJsonCarriesLaneNamesAndHexTraceIds) {
  Collector c;
  c.add("w0", 0.0, {make_span(0xDEADBEEFull, 1.0, 0.5, "lfm.run")});
  const serde::Value doc = serde::from_json(c.trace_json());
  ASSERT_TRUE(doc.is_dict());
  ASSERT_EQ(doc.as_dict().count("displayTimeUnit"), 1u);
  const auto& events = doc.as_dict().at("traceEvents").as_list();
  bool saw_process_name = false;
  bool saw_hex_id = false;
  for (const auto& item : events) {
    const auto& ev = item.as_dict();
    const std::string ph = ev.at("ph").as_str();
    if (ph == "M") {
      if (ev.at("args").as_dict().at("name").as_str() == "w0") {
        saw_process_name = true;
      }
    }
    if (ph == "X") {
      const auto& args = ev.at("args").as_dict();
      ASSERT_EQ(args.count("trace_id"), 1u);
      EXPECT_EQ(args.at("trace_id").as_str(), "0x00000000deadbeef");
      saw_hex_id = true;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_hex_id);
}

TEST(Collector, WriteProducesLoadableFile) {
  Collector c;
  c.add("w0", 0.0, {make_span(1, 0.0, 1.0, "lfm.run")});
  const std::string path = "obs_out/collector_test.trace.json";
  c.write(path);
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(&text[0], 1, text.size(), f));
  std::fclose(f);
  serde::from_json(text);  // throws if malformed
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lfm::obs
