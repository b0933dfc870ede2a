// The worker-side task handler: the piece that runs ON the worker node.
//
// Receives a TaskMessage (wire form), enforces the allocation carried in the
// message by running the command inside a real lightweight function monitor,
// and produces the ResultMessage the master's labeler consumes — measured
// cores/memory/disk peaks, wall time, and the exhausted resource when the
// LFM killed the attempt. This closes the loop: the same protocol bytes the
// simulated master would emit drive genuine monitored execution.
#pragma once

#include <map>
#include <string>

#include "monitor/command.h"
#include "wq/protocol.h"

namespace lfm::wq {

// The task's transferable input files, by name (the paper's "function
// inputs pickled into transferable files").
using FileSet = std::map<std::string, serde::Bytes>;

struct LocalWorkerOptions {
  double poll_interval = 0.02;
  // Scratch directory for task sandboxes ("" = no sandbox, inherit cwd).
  std::string scratch_dir;
};

class LocalWorker {
 public:
  explicit LocalWorker(LocalWorkerOptions options = {}) : options_(options) {}

  // Execute one task. Two command forms:
  //   * any shell command line — fork/exec under the LFM (bash_app path)
  //   * "lfm-pyrun <module_file> <args_file> <function>" — run the named
  //     function from the shipped module source in the mini-Python
  //     interpreter, inside a forked LFM child; the pickled result returns
  //     in ResultMessage::payload (python_app path, paper §III.A)
  ResultMessage execute(const TaskMessage& task, const FileSet& files = {});

  int64_t tasks_executed() const { return tasks_executed_; }

 private:
  ResultMessage execute_python(const TaskMessage& task, const FileSet& files);

  LocalWorkerOptions options_;
  int64_t tasks_executed_ = 0;
};

// Master-side helper: build the "lfm-pyrun" TaskMessage + FileSet for one
// Python function invocation (module source + pickled args as files).
std::pair<TaskMessage, FileSet> make_python_task(
    uint64_t task_id, const std::string& category, const std::string& module_source,
    const std::string& function, const serde::Value& args,
    const alloc::Resources& allocation);

}  // namespace lfm::wq
