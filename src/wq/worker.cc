#include "wq/worker.h"

#include <cmath>

#include "obs/recorder.h"
#include "pysrc/interp.h"
#include "pysrc/parse_cache.h"
#include "serde/pickle.h"
#include "util/strings.h"

namespace lfm::wq {
namespace {

obs::Count worker_tasks_executed{"worker.tasks_executed"};

monitor::MonitorOptions monitor_options_for(const TaskMessage& task,
                                            double poll_interval) {
  monitor::MonitorOptions options;
  options.poll_interval = poll_interval;
  // The allocation from the wire becomes enforced LFM limits. Zero/absent
  // dimensions mean unlimited (a whole-node allocation is encoded as the
  // node size, which is still a real cap).
  if (task.allocation.memory_bytes > 0.0) {
    options.limits.memory_bytes = static_cast<int64_t>(task.allocation.memory_bytes);
  }
  if (task.allocation.disk_bytes > 0.0) {
    options.limits.disk_bytes = static_cast<int64_t>(task.allocation.disk_bytes);
  }
  // Put the monitor's span and per-poll resource series on the task's own
  // trace lane rather than the child pid's.
  options.trace_tid = task.task_id;
  return options;
}

void fill_usage(ResultMessage& result, const monitor::ResourceUsage& usage) {
  result.wall_seconds = usage.wall_time;
  result.cores_used = usage.cores;
  result.memory_peak_bytes = usage.max_rss_bytes;
  result.disk_peak_bytes = usage.disk_write_bytes;
}

void python_result(ResultMessage& result, const monitor::TaskOutcome& outcome) {
  fill_usage(result, outcome.usage);
  switch (outcome.status) {
    case monitor::TaskStatus::kSuccess:
      result.exit_code = 0;
      result.payload = serde::dumps(outcome.result);
      break;
    case monitor::TaskStatus::kLimitExceeded:
      result.exit_code = -1;
      result.exhausted = true;
      result.exhausted_resource = outcome.violated_resource;
      break;
    case monitor::TaskStatus::kException: {
      result.exit_code = 1;
      // Ship the exception text back as a pickled string payload.
      result.payload = serde::dumps(serde::Value(outcome.error));
      break;
    }
    case monitor::TaskStatus::kCrashed:
      result.exit_code = -1;
      break;
  }
}

void command_result(ResultMessage& result, const monitor::CommandOutcome& outcome) {
  fill_usage(result, outcome.usage);
  switch (outcome.status) {
    case monitor::TaskStatus::kSuccess:
      result.exit_code = outcome.result.exit_code;
      break;
    case monitor::TaskStatus::kLimitExceeded:
      result.exit_code = -1;
      result.exhausted = true;
      result.exhausted_resource = outcome.violated_resource;
      break;
    case monitor::TaskStatus::kException:
    case monitor::TaskStatus::kCrashed:
      result.exit_code = -1;
      break;
  }
}

}  // namespace

monitor::Invocation* LocalWorker::Run::invocation() const {
  if (function_) return function_.get();
  return command_.get();
}

void LocalWorker::start_python(const TaskMessage& task, const FileSet& files,
                               Run& run) {
  ResultMessage& result = run.result_;
  const auto parts = split_nonempty(task.command_line, ' ');
  if (parts.size() != 4) {
    result.exit_code = -1;
    return;
  }
  const auto module_it = files.find(parts[1]);
  const auto args_it = files.find(parts[2]);
  const std::string function = parts[3];
  if (module_it == files.end() || args_it == files.end()) {
    result.exit_code = -1;  // missing transferable files
    return;
  }
  // Read-decode-execute without copying the transferred bytes: the module
  // parses straight off the file buffer through the shared parse cache (the
  // AST, not the source, is what the interpreter runs), and the pickled
  // args decode zero-copy — string/bytes leaves are views into the file
  // bytes. The child is forked before start() returns, and fork() gives it
  // its own copy of the parent's memory, so the views stay valid inside the
  // LFM child whatever the caller does with `files` afterwards.
  const serde::Bytes& module_bytes = module_it->second;
  const std::string_view module_source(
      reinterpret_cast<const char*>(module_bytes.data()), module_bytes.size());
  std::shared_ptr<const pysrc::Module> module;
  try {
    module = pysrc::parse_module_shared(module_source);
  } catch (const Error& e) {
    // Same shape a parse failure inside the child produced: exception
    // status with the error text shipped as a pickled string payload.
    result.exit_code = 1;
    result.payload = serde::dumps(serde::Value(std::string(e.what())));
    return;
  }
  const serde::Value args = serde::loads_view(args_it->second);

  // The function runs in the interpreter INSIDE the forked LFM child; its
  // pickled result returns over the monitor's pipe.
  const monitor::TaskFn body = [module = std::move(module),
                                function](const serde::Value& a) {
    std::vector<serde::Value> positional;
    if (a.is_list()) positional = a.as_list();
    return pysrc::run_python_function(module, function, std::move(positional));
  };
  run.function_ = std::make_unique<monitor::FunctionInvocation>(
      body, args, monitor_options_for(task, options_.poll_interval));
}

std::unique_ptr<LocalWorker::Run> LocalWorker::start(const TaskMessage& task,
                                                     const FileSet& files) {
  ++tasks_executed_;
  auto run = std::make_unique<Run>();
  run->result_.task_id = task.task_id;
  run->result_.trace_id = task.trace_id;
  if (obs::Recorder::enabled()) {
    // The run span on the worker's own host lane, forked LFM included, from
    // start to finish. Its trace id arrives via the caller's TraceScope
    // (WorkerClient sets it per task), so the span joins the
    // submit→dispatch chain minted at the root.
    obs::Recorder& r = obs::Recorder::global();
    worker_tasks_executed.add();
    r.begin(obs::kPidHost, task.task_id, r.now(), "lfm.run", "worker");
    run->span_ = true;
  }
  if (starts_with(task.command_line, "lfm-pyrun ")) {
    start_python(task, files, *run);
    return run;
  }
  monitor::CommandOptions command_options;
  command_options.monitor = monitor_options_for(task, options_.poll_interval);
  command_options.working_directory = options_.scratch_dir;
  run->command_ = std::make_unique<monitor::CommandInvocation>(
      std::vector<std::string>{"/bin/sh", "-c", task.command_line}, command_options);
  return run;
}

ResultMessage LocalWorker::finish(Run& run) {
  ResultMessage result = std::move(run.result_);
  if (run.function_) python_result(result, run.function_->finish());
  if (run.command_) command_result(result, run.command_->finish());
  if (run.span_) {
    obs::Recorder& r = obs::Recorder::global();
    r.end(obs::kPidHost, result.task_id, r.now());
    run.span_ = false;
  }
  return result;
}

ResultMessage LocalWorker::execute(const TaskMessage& task, const FileSet& files) {
  const std::unique_ptr<Run> run = start(task, files);
  if (monitor::Invocation* invocation = run->invocation()) {
    monitor::wait_until_done(*invocation);
  }
  return finish(*run);
}

std::pair<TaskMessage, FileSet> make_python_task(
    uint64_t task_id, const std::string& category, const std::string& module_source,
    const std::string& function, const serde::Value& args,
    const alloc::Resources& allocation) {
  if (!valid_token(function)) throw Error("make_python_task: bad function name");
  TaskMessage task;
  task.task_id = task_id;
  task.category = category;
  task.allocation = allocation;

  const std::string module_file = strformat("fn-%llu.py", (unsigned long long)task_id);
  const std::string args_file = strformat("args-%llu.pkl", (unsigned long long)task_id);
  task.command_line = "lfm-pyrun " + module_file + " " + args_file + " " + function;

  FileSet files;
  files.emplace(module_file, serde::Bytes(module_source.begin(), module_source.end()));
  files.emplace(args_file, serde::dumps(args));

  // Both inputs are one-shot: the module is named after its task, so no
  // other task names it, and each tier drops it once it hands the task on.
  // The worker's parse cache is keyed by content, so a source shared by
  // many tasks still parses once.
  task.infiles.push_back({module_file, static_cast<int64_t>(files[module_file].size())});
  task.infiles.push_back({args_file, static_cast<int64_t>(files[args_file].size())});
  return {std::move(task), std::move(files)};
}

}  // namespace lfm::wq
