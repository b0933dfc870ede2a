// Tests for the worker-side task handler: protocol in, real monitored
// execution, protocol out.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "serde/pickle.h"
#include "wq/worker.h"

namespace lfm::wq {
namespace {

TaskMessage make_task(const std::string& command) {
  TaskMessage task;
  task.task_id = 1;
  task.category = "test";
  task.command_line = command;
  task.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return task;
}

TEST(LocalWorker, ExecutesCommandAndReportsUsage) {
  LocalWorker worker;
  const ResultMessage result = worker.execute(make_task("exit 0"));
  EXPECT_EQ(result.task_id, 1u);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_FALSE(result.exhausted);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_EQ(worker.tasks_executed(), 1);
}

TEST(LocalWorker, NonZeroExitPropagates) {
  LocalWorker worker;
  EXPECT_EQ(worker.execute(make_task("exit 5")).exit_code, 5);
}

TEST(LocalWorker, WireRoundtrip) {
  LocalWorker worker;
  const std::string request = encode(make_task("echo hi"));
  const std::string reply = encode(worker.execute(decode_task(request)));
  const ResultMessage result = decode_result(reply);
  EXPECT_EQ(result.task_id, 1u);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(LocalWorker, AllocationEnforcedAsLfmLimit) {
  LocalWorkerOptions options;
  options.poll_interval = 0.01;
  LocalWorker worker(options);
  TaskMessage task = make_task(
      // Allocate ~128 MB in shell via a base64 blob in memory: use dd into a
      // shell variable substitute — simplest portable hog: python-free, use
      // /bin/sh with a recursive variable doubling.
      "x=0123456789abcdef; i=0; while [ $i -lt 23 ]; do x=\"$x$x\"; i=$((i+1)); done; echo ${#x}");
  task.allocation = alloc::Resources{1.0, 32e6, 1e9};  // 32 MB cap
  const ResultMessage result = worker.execute(task);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.exhausted_resource, "memory");
  EXPECT_GT(result.memory_peak_bytes, 32e6);
}

TEST(LocalWorker, MeasuredUsageFeedsLabelerShape) {
  LocalWorkerOptions options;
  options.poll_interval = 0.01;
  LocalWorker worker(options);
  TaskMessage task = make_task("i=0; while [ $i -lt 100000 ]; do i=$((i+1)); done");
  const ResultMessage result = worker.execute(task);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_GT(result.memory_peak_bytes, 0);
  EXPECT_GE(result.cores_used, 0.0);
}

TEST(LocalWorker, MalformedWireRunsNothing) {
  LocalWorker worker;
  EXPECT_THROW(worker.execute(decode_task("garbage\nend\n")), Error);
  EXPECT_EQ(worker.tasks_executed(), 0);
}

TEST(LocalWorker, ScratchDirectoryUsed) {
  LocalWorkerOptions options;
  options.scratch_dir = "/tmp";
  LocalWorker worker(options);
  TaskMessage task = make_task("pwd");
  const ResultMessage result = worker.execute(task);
  EXPECT_EQ(result.exit_code, 0);
}


TEST(LocalWorker, PythonFunctionOverTheWire) {
  // The paper's actual task form: the Python interpreter invoked with the
  // function source + pickled inputs as transferable files; pickled result
  // returned in the reply payload.
  const char* module = R"(
def weigh(items, factor):
    total = 0
    for item in items:
        total += item * factor
    return {'total': total, 'n': len(items)}
)";
  serde::ValueList args;
  args.push_back(serde::Value(serde::ValueList{serde::Value(1), serde::Value(2),
                                               serde::Value(3)}));
  args.push_back(serde::Value(10));
  auto [task, files] = make_python_task(7, "weigh", module, "weigh",
                                        serde::Value(std::move(args)),
                                        alloc::Resources{1.0, 512e6, 1e9});
  ASSERT_EQ(task.infiles.size(), 2u);
  // The module is named after its task, so no other task names it: both
  // inputs are one-shot.
  EXPECT_FALSE(task.infiles[0].cacheable);
  EXPECT_FALSE(task.infiles[1].cacheable);

  LocalWorkerOptions options;
  options.poll_interval = 0.01;
  LocalWorker worker(options);
  // Full wire round trip, exactly as master<->worker would exchange.
  const std::string reply = encode(worker.execute(decode_task(encode(task)), files));
  const ResultMessage result = decode_result(reply);
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_FALSE(result.payload.empty());
  const serde::Value value = serde::loads(result.payload);
  EXPECT_EQ(value.at("total").as_int(), 60);
  EXPECT_EQ(value.at("n").as_int(), 3);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(LocalWorker, PythonExceptionShipsBack) {
  const char* module = "def bad(x):\n    raise ValueError('no ' + str(x))\n";
  auto [task, files] =
      make_python_task(8, "bad", module, "bad",
                       serde::Value(serde::ValueList{serde::Value(5)}),
                       alloc::Resources{1.0, 512e6, 1e9});
  LocalWorker worker;
  const ResultMessage result = worker.execute(task, files);
  EXPECT_EQ(result.exit_code, 1);
  const serde::Value error = serde::loads(result.payload);
  EXPECT_NE(error.as_str().find("ValueError"), std::string::npos);
  EXPECT_NE(error.as_str().find("no 5"), std::string::npos);
}

TEST(LocalWorker, PythonMemoryHogExhaustsAllocation) {
  const char* module = R"(
def hoard(n):
    data = []
    i = 0
    while i < n:
        data.append('z' * 1000000)
        i = i + 1
    return len(data)
)";
  auto [task, files] = make_python_task(
      9, "hoard", module, "hoard",
      serde::Value(serde::ValueList{serde::Value(int64_t{100000})}),
      alloc::Resources{1.0, 48e6, 1e9});
  LocalWorkerOptions options;
  options.poll_interval = 0.01;
  LocalWorker worker(options);
  const ResultMessage result = worker.execute(task, files);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.exhausted_resource, "memory");
}

TEST(LocalWorker, BatchFrameExecutesAllAndRepliesBatched) {
  LocalWorker worker;
  std::vector<TaskMessage> batch;
  for (int i = 0; i < 3; ++i) {
    TaskMessage task = make_task("exit " + std::to_string(i));
    task.task_id = 20 + static_cast<uint64_t>(i);
    batch.push_back(std::move(task));
  }
  std::vector<ResultMessage> replies;
  for (const TaskMessage& task : decode_task_batch(encode_batch(batch))) {
    replies.push_back(worker.execute(task));
  }
  const std::vector<ResultMessage> results = decode_result_batch(encode_batch(replies));
  ASSERT_EQ(results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].task_id, 20u + static_cast<uint64_t>(i));
    EXPECT_EQ(results[static_cast<size_t>(i)].exit_code, i);
  }
  EXPECT_EQ(worker.tasks_executed(), 3);
}

TEST(LocalWorker, PythonTaskMissingFilesFails) {
  auto [task, files] = make_python_task(10, "c", "def f():\n    return 1\n", "f",
                                        serde::Value(serde::ValueList{}),
                                        alloc::Resources{1.0, 1e9, 1e9});
  LocalWorker worker;
  const ResultMessage result = worker.execute(task, {});  // no files shipped
  EXPECT_EQ(result.exit_code, -1);
  // Nothing is forked for it: the run is ready to finish at once.
  const std::unique_ptr<LocalWorker::Run> run = worker.start(task, {});
  EXPECT_EQ(run->invocation(), nullptr);
  EXPECT_EQ(worker.finish(*run).exit_code, -1);
}

TEST(LocalWorker, StartedTasksRunSideBySideAndFinishLikeExecute) {
  // Runs started together overlap; finish() gives what execute() gives.
  const char* module = "def inc(x):\n    return x + 1\n";
  auto [py, py_files] = make_python_task(30, "c", module, "inc",
                                         serde::Value(serde::ValueList{serde::Value(41)}),
                                         alloc::Resources{1.0, 1e9, 1e9});
  TaskMessage slow_a = make_task("sleep 0.3; exit 4");
  slow_a.task_id = 31;
  TaskMessage slow_b = make_task("sleep 0.3; exit 5");
  slow_b.task_id = 32;

  LocalWorkerOptions options;
  options.poll_interval = 0.01;
  LocalWorker worker(options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<LocalWorker::Run>> runs;
  runs.push_back(worker.start(slow_a));
  runs.push_back(worker.start(slow_b));
  runs.push_back(worker.start(py, py_files));
  py_files.clear();  // the child already has its own copy
  std::vector<ResultMessage> results;
  for (const auto& run : runs) {
    ASSERT_NE(run->invocation(), nullptr);
    monitor::wait_until_done(*run->invocation());
    results.push_back(worker.finish(*run));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.55);  // one after another would take 0.6 s
  EXPECT_EQ(worker.tasks_executed(), 3);
  EXPECT_EQ(results[0].task_id, 31u);
  EXPECT_EQ(results[0].exit_code, 4);
  EXPECT_EQ(results[1].task_id, 32u);
  EXPECT_EQ(results[1].exit_code, 5);
  EXPECT_GE(results[1].wall_seconds, 0.3);
  EXPECT_EQ(results[2].task_id, 30u);
  ASSERT_EQ(results[2].exit_code, 0);
  EXPECT_EQ(serde::loads(results[2].payload).as_int(), 42);
}

}  // namespace
}  // namespace lfm::wq
