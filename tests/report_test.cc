// Tests for usage timelines, JSON reports, and the serde JSON export.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "monitor/report.h"
#include "serde/json.h"
#include "serde/pickle.h"
#include <cmath>
#include <limits>

namespace lfm {
namespace {

using monitor::ResourceUsage;
using monitor::TaskOutcome;
using monitor::TaskStatus;
using monitor::UsageSample;
using monitor::UsageTimeline;

TEST(Timeline, PeakTracking) {
  UsageTimeline tl;
  tl.add({0.1, 0.05, 100, 0, 1});
  tl.add({0.2, 0.15, 500, 10, 2});
  tl.add({0.3, 0.25, 300, 20, 1});
  EXPECT_EQ(tl.peak_rss(), 500);
  EXPECT_DOUBLE_EQ(tl.peak_rss_time(), 0.2);
  EXPECT_EQ(tl.size(), 3u);
}

TEST(Timeline, MeanCores) {
  UsageTimeline tl;
  tl.add({0.0, 0.0, 0, 0, 1});
  tl.add({2.0, 1.0, 0, 0, 1});  // 1 CPU-second over 2 wall-seconds
  EXPECT_DOUBLE_EQ(tl.mean_cores(), 0.5);
}

TEST(Timeline, EmptyAndSingleSampleSafe) {
  UsageTimeline tl;
  EXPECT_EQ(tl.peak_rss(), 0);
  EXPECT_DOUBLE_EQ(tl.mean_cores(), 0.0);
  tl.add({1.0, 1.0, 42, 0, 1});
  EXPECT_DOUBLE_EQ(tl.mean_cores(), 0.0);
  EXPECT_EQ(tl.peak_rss(), 42);
}

TEST(Report, OutcomeJsonEscapesItsText) {
  TaskOutcome outcome;
  outcome.status = TaskStatus::kException;
  outcome.error = std::string("a\"b\\c\nd\x01", 8);
  const std::string json = monitor::to_json(outcome);
  EXPECT_NE(json.find("\"error\":\"a\\\"b\\\\c\\nd\\u0001\""), std::string::npos)
      << json;
  EXPECT_EQ(serde::from_json(json).at("error").as_str(), outcome.error);
}

TEST(Report, UsageJsonHasAllFields) {
  ResourceUsage usage;
  usage.wall_time = 1.5;
  usage.cpu_time = 0.75;
  usage.max_rss_bytes = 1048576;
  const std::string json = monitor::to_json(usage);
  EXPECT_NE(json.find("\"wall_time\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"max_rss_bytes\":1048576"), std::string::npos);
  EXPECT_NE(json.find("\"cores\":"), std::string::npos);
}

TEST(Report, OutcomeJsonIncludesStatusAndViolation) {
  TaskOutcome outcome;
  outcome.status = TaskStatus::kLimitExceeded;
  outcome.error = "resource limit exceeded: memory";
  outcome.violated_resource = "memory";
  const std::string json = monitor::to_json(outcome);
  EXPECT_NE(json.find("\"status\":\"limit_exceeded\""), std::string::npos);
  EXPECT_NE(json.find("\"violated_resource\":\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"usage\":{"), std::string::npos);
  EXPECT_EQ(json.find("\"timeline\""), std::string::npos);  // none recorded
}

TEST(Report, OutcomeJsonIncludesTimelineWhenRecorded) {
  TaskOutcome outcome;
  outcome.status = TaskStatus::kSuccess;
  outcome.timeline.add({0.1, 0.05, 2048, 0, 1});
  const serde::Value report = serde::from_json(monitor::to_json(outcome));
  const serde::Value& sample = report.at("timeline").as_list().at(0);
  EXPECT_EQ(sample.at("t").as_real(), 0.1);
  EXPECT_EQ(sample.at("rss").as_int(), 2048);
}

TEST(Report, LiveMonitorRecordsTimeline) {
  monitor::MonitorOptions options;
  options.poll_interval = 0.01;
  options.record_timeline = true;
  const auto outcome = monitor::run_monitored(
      [](const serde::Value&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return serde::Value(1);
      },
      serde::Value(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.timeline.size(), 2u);
  // Samples are time-ordered.
  for (size_t i = 1; i < outcome.timeline.size(); ++i) {
    EXPECT_GE(outcome.timeline.samples()[i].wall_time,
              outcome.timeline.samples()[i - 1].wall_time);
  }
  const std::string json = monitor::to_json(outcome);
  EXPECT_NE(json.find("\"timeline\""), std::string::npos);
}

// --- serde JSON ---------------------------------------------------------------

using serde::Value;
using serde::ValueDict;
using serde::ValueList;

TEST(SerdeJson, Scalars) {
  EXPECT_EQ(serde::to_json(Value()), "null");
  EXPECT_EQ(serde::to_json(Value(true)), "true");
  EXPECT_EQ(serde::to_json(Value(false)), "false");
  EXPECT_EQ(serde::to_json(Value(-42)), "-42");
  EXPECT_EQ(serde::to_json(Value(0.5)), "0.5");
  EXPECT_EQ(serde::to_json(Value("hi\n")), "\"hi\\n\"");
}

TEST(SerdeJson, NanAndInfBecomeNull) {
  EXPECT_EQ(serde::to_json(Value(std::nan(""))), "null");
  EXPECT_EQ(serde::to_json(Value(std::numeric_limits<double>::infinity())), "null");
}

TEST(SerdeJson, Containers) {
  ValueList l{Value(1), Value("x")};
  EXPECT_EQ(serde::to_json(Value(l)), "[1,\"x\"]");
  ValueDict d;
  d["b"] = Value(2);
  d["a"] = Value(ValueList{Value(true)});
  EXPECT_EQ(serde::to_json(Value(d)), "{\"a\":[true],\"b\":2}");
}

TEST(SerdeJson, BytesAsBase64) {
  EXPECT_EQ(serde::to_json(Value(serde::Bytes{'M', 'a', 'n'})), "\"TWFu\"");
  EXPECT_EQ(serde::to_json(Value(serde::Bytes{'M', 'a'})), "\"TWE=\"");
  EXPECT_EQ(serde::to_json(Value(serde::Bytes{'M'})), "\"TQ==\"");
  EXPECT_EQ(serde::to_json(Value(serde::Bytes{})), "\"\"");
}

TEST(SerdeJson, Base64KnownVectors) {
  const auto enc = [](const std::string& s) {
    return serde::base64_encode(serde::Bytes(s.begin(), s.end()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(SerdeJson, RoundValueThroughBothCodecs) {
  // The same Value can go over the wire as pickle and be logged as JSON.
  ValueDict d;
  d["result"] = Value(ValueList{Value(1), Value(2.5), Value("ok")});
  const Value v(std::move(d));
  const Value back = serde::loads(serde::dumps(v));
  EXPECT_EQ(serde::to_json(back), serde::to_json(v));
}

}  // namespace
}  // namespace lfm
