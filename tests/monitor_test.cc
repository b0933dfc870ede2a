// Tests for the real LFM: fork/pipe execution, /proc measurement, limit
// enforcement, exception transport, crash reporting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "monitor/lfm.h"
#include "monitor/proc_reader.h"
#include "serde/value.h"

namespace lfm::monitor {
namespace {

using serde::Value;
using serde::ValueDict;

TEST(Resources, FirstViolation) {
  ResourceUsage usage;
  usage.wall_time = 10.0;
  usage.max_rss_bytes = 500;
  ResourceLimits limits;
  EXPECT_FALSE(first_violation(usage, limits).has_value());
  EXPECT_TRUE(limits.unlimited());

  limits.wall_time = 5.0;
  ASSERT_TRUE(first_violation(usage, limits).has_value());
  EXPECT_EQ(*first_violation(usage, limits), "wall_time");

  limits.wall_time.reset();
  limits.memory_bytes = 400;
  EXPECT_EQ(*first_violation(usage, limits), "memory");

  usage.max_rss_bytes = 100;
  EXPECT_FALSE(first_violation(usage, limits).has_value());
}

TEST(Resources, SummaryMentionsKeyFields) {
  ResourceUsage usage;
  usage.wall_time = 1.5;
  usage.max_rss_bytes = 1000000;
  const std::string s = usage.summary();
  EXPECT_NE(s.find("wall="), std::string::npos);
  EXPECT_NE(s.find("rss_peak="), std::string::npos);
}

TEST(ProcReader, SampleSelf) {
  const auto sample = sample_process(::getpid());
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->pid, ::getpid());
  EXPECT_GT(sample->rss_bytes, 0);
  EXPECT_GE(sample->utime + sample->stime, 0.0);
}

TEST(ProcReader, SampleMissingProcess) {
  // PID near the max is almost certainly unused.
  EXPECT_FALSE(sample_process(4194000).has_value());
}

TEST(ProcReader, SubtreeContainsSelf) {
  const auto tree = process_subtree(::getpid());
  bool found = false;
  for (const pid_t pid : tree) {
    if (pid == ::getpid()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProcReader, SubtreeAggregation) {
  const ResourceUsage usage = sample_subtree(::getpid(), 2.0);
  EXPECT_DOUBLE_EQ(usage.wall_time, 2.0);
  EXPECT_GT(usage.rss_bytes, 0);
  EXPECT_GE(usage.processes, 1);
}

// --- run_monitored ------------------------------------------------------------

TEST(Lfm, SuccessReturnsValue) {
  const auto outcome = run_monitored(
      [](const Value& args) {
        return Value(args.at("x").as_int() * 2);
      },
      Value(ValueDict{{"x", Value(21)}}));
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.as_int(), 42);
  EXPECT_GT(outcome.usage.wall_time, 0.0);
}

TEST(Lfm, ResultSurvivesChildMemoryIsolation) {
  // Mutations in the child must not leak back: copy-on-write semantics.
  static int global_counter = 0;
  const auto outcome = run_monitored(
      [](const Value&) {
        global_counter = 999;  // visible only in the child
        return Value(global_counter);
      },
      Value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.as_int(), 999);
  EXPECT_EQ(global_counter, 0);  // parent state untouched
}

TEST(Lfm, ExceptionTransported) {
  const auto outcome = run_monitored(
      [](const Value&) -> Value { throw std::runtime_error("task exploded"); },
      Value());
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("task exploded"), std::string::npos);
}

TEST(Lfm, LfmErrorTransported) {
  const auto outcome = run_monitored(
      [](const Value& v) -> Value { return Value(v.at("missing")); }, Value(ValueDict{}));
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("missing"), std::string::npos);
}

TEST(Lfm, CrashDetected) {
  const auto outcome = run_monitored(
      [](const Value&) -> Value { ::_exit(3); }, Value());
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_FALSE(outcome.error.empty());
}

TEST(Lfm, WallTimeLimitKillsTask) {
  MonitorOptions options;
  options.limits.wall_time = 0.15;
  options.poll_interval = 0.02;
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return Value(1);
      },
      Value(), options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "wall_time");
  EXPECT_LT(elapsed, 10.0);  // killed long before the sleep finished
}

TEST(Lfm, MemoryLimitKillsHog) {
  MonitorOptions options;
  options.limits.memory_bytes = 48LL << 20;  // 48 MiB
  options.poll_interval = 0.01;
  const auto outcome = run_monitored(
      [](const Value&) {
        std::vector<std::string> hoard;
        for (int i = 0; i < 100000; ++i) {
          hoard.emplace_back(1 << 20, 'x');
          // Touch the pages so RSS actually grows.
          for (size_t j = 0; j < hoard.back().size(); j += 4096) hoard.back()[j] = 'y';
        }
        return Value(1);
      },
      Value(), options);
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "memory");
  EXPECT_GT(outcome.usage.max_rss_bytes, 48LL << 20);
}

TEST(Lfm, PollCallbackInvoked) {
  MonitorOptions options;
  options.poll_interval = 0.01;
  int polls = 0;
  options.on_poll = [&polls](const ResourceUsage& u) {
    ++polls;
    EXPECT_GE(u.wall_time, 0.0);
  };
  const auto outcome = run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return Value(1);
      },
      Value(), options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_GE(polls, 2);
}

TEST(Lfm, MeasuresCpuBoundWork) {
  MonitorOptions options;
  options.poll_interval = 0.01;
  const auto outcome = run_monitored(
      [](const Value&) {
        // Spin until the process has consumed a fixed amount of CPU time
        // (not wall time): under a loaded test machine a wall-clocked spin
        // can be descheduled for most of its window and burn too little CPU
        // for the assertions below.
        volatile double sink = 0.0;
        const auto cpu_now = [] {
          return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
        };
        const double cpu0 = cpu_now();
        while (cpu_now() - cpu0 < 0.1) {
          for (int i = 1; i < 5000; ++i) sink += 1.0 / i;
        }
        return Value(sink);
      },
      Value(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.usage.cpu_time, 0.05);
}

void fork_child_and_outlive_it() {
  const pid_t child = ::fork();
  if (child == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::_exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
}

TEST(Lfm, TracksChildProcessesOfTask) {
  // A task that forks its own child: the subtree walk must see the combined
  // process count. The kernel lists a child under the thread that forked
  // it, so a walk that reads only the main thread's children list misses
  // the child a live second thread forked.
  const TaskFn from_main_thread = [](const Value&) {
    fork_child_and_outlive_it();
    return Value(1);
  };
  const TaskFn from_second_thread = [](const Value&) {
    std::thread forker(fork_child_and_outlive_it);
    forker.join();
    return Value(1);
  };
  for (const TaskFn& fn : {from_main_thread, from_second_thread}) {
    MonitorOptions options;
    options.poll_interval = 0.01;
    int max_procs = 0;
    options.on_poll = [&max_procs](const ResourceUsage& u) {
      max_procs = std::max(max_procs, u.processes);
    };
    const auto outcome = run_monitored(fn, Value(), options);
    EXPECT_TRUE(outcome.ok());
    EXPECT_GE(max_procs, 2);
  }
}

Value fifty_thousand_ints(const Value&) {
  serde::ValueList big;
  for (int i = 0; i < 50000; ++i) big.push_back(Value(int64_t{i}));
  return Value(std::move(big));
}

TEST(Lfm, LargeResultPayload) {
  // Results bigger than the pipe buffer must still arrive intact.
  const auto outcome = run_monitored(fifty_thousand_ints, Value());
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.result.as_list().size(), 50000u);
  EXPECT_EQ(outcome.result.as_list()[49999].as_int(), 49999);
}

TEST(Lfm, ReturnsWhenTaskExitsNotAtNextPoll) {
  // The monitor wakes on the child's exit and on result bytes, so a coarse
  // poll interval delays neither a trivial task nor a result that refills
  // the pipe buffer several times.
  MonitorOptions options;
  options.poll_interval = 1.0;
  const TaskFn trivial = [](const Value&) { return Value(1); };
  for (const TaskFn& fn : {trivial, TaskFn(fifty_thousand_ints)}) {
    const auto start = std::chrono::steady_clock::now();
    const auto outcome = run_monitored(fn, Value(), options);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_TRUE(outcome.ok());
    EXPECT_LT(elapsed, 0.5);
  }
}

TEST(Lfm, KernelPeakCoversMemoryBetweenSamples) {
  // Only the sample right after the fork runs before this task ends; the
  // reap's rusage still reports the 64 MiB it touched after that sample.
  constexpr size_t kBytes = size_t{64} << 20;
  MonitorOptions options;
  options.poll_interval = 1.0;
  const auto outcome = run_monitored(
      [](const Value&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const std::string hoard(kBytes, 'x');  // writes, so maps, every page
        return Value(static_cast<int64_t>(hoard[kBytes / 2]));
      },
      Value(), options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.usage.max_rss_bytes, static_cast<int64_t>(kBytes));
}

TEST(Lfm, MonitoredDecoratorBindsOptions) {
  MonitorOptions options;
  options.limits.wall_time = 60.0;
  const Monitored wrapped([](const Value& v) { return Value(v.as_int() + 1); }, options);
  const auto outcome = wrapped(Value(41));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.as_int(), 42);
  EXPECT_EQ(wrapped.options().limits.wall_time, 60.0);
}

TEST(Lfm, StatusNames) {
  EXPECT_STREQ(task_status_name(TaskStatus::kSuccess), "success");
  EXPECT_STREQ(task_status_name(TaskStatus::kException), "exception");
  EXPECT_STREQ(task_status_name(TaskStatus::kLimitExceeded), "limit_exceeded");
  EXPECT_STREQ(task_status_name(TaskStatus::kCrashed), "crashed");
}

TEST(Lfm, SequentialInvocationsIndependent) {
  for (int i = 0; i < 5; ++i) {
    const auto outcome =
        run_monitored([](const Value& v) { return Value(v.as_int() * v.as_int()); },
                      Value(int64_t{i}));
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.result.as_int(), i * i);
  }
}

}  // namespace
}  // namespace lfm::monitor
