// The worker-side task handler: the piece that runs ON the worker node.
//
// Receives a TaskMessage (wire form), enforces the allocation carried in the
// message by running the command inside a real lightweight function monitor,
// and produces the ResultMessage the master's labeler consumes — measured
// cores/memory/disk peaks, wall time, and the exhausted resource when the
// LFM killed the attempt. This closes the loop: the same protocol bytes the
// simulated master would emit drive genuine monitored execution.
//
// start() forks the task's LFM and returns at once; the caller drives the
// run's monitor::Invocation (lfm.h) and hands the run to finish() when it is
// done. net::WorkerClient runs many at a time this way from its event loop;
// execute() is the blocking one-task form.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "monitor/command.h"
#include "wq/protocol.h"

namespace lfm::wq {

// One staged file's bytes: an immutable buffer that every holder in a
// process shares — a task group, the dispatcher's units, an uplink, a
// foreman's relay, a file frame still queued on a link. Copying one copies
// the handle, not the bytes. Built from serde::Bytes (moved in, or copied
// from an lvalue) or from a buffer already shared, such as
// pkg::PackedEnvironment::tar (never null); reads as const serde::Bytes&.
class StagedFile {
 public:
  StagedFile() : StagedFile(serde::Bytes{}) {}
  StagedFile(serde::Bytes bytes)  // NOLINT
      : buffer_(std::make_shared<const serde::Bytes>(std::move(bytes))) {}
  StagedFile(std::shared_ptr<const serde::Bytes> buffer)  // NOLINT
      : buffer_(std::move(buffer)) {}

  operator const serde::Bytes&() const { return *buffer_; }  // NOLINT
  size_t size() const { return buffer_->size(); }
  const std::shared_ptr<const serde::Bytes>& buffer() const { return buffer_; }

 private:
  std::shared_ptr<const serde::Bytes> buffer_;
};

// The task's transferable input files, by name (the paper's "function
// inputs pickled into transferable files").
using FileSet = std::map<std::string, StagedFile>;

struct LocalWorkerOptions {
  double poll_interval = 0.02;
  // Scratch directory for task sandboxes ("" = no sandbox, inherit cwd).
  std::string scratch_dir;
};

class LocalWorker {
 public:
  // A task between start() and finish().
  class Run {
   public:
    // The LFM to drive until done(); null when the task failed before
    // anything was forked, so finish() can follow at once.
    monitor::Invocation* invocation() const;

   private:
    friend class LocalWorker;
    ResultMessage result_;  // the ids, or the whole result if nothing forked
    std::unique_ptr<monitor::FunctionInvocation> function_;
    std::unique_ptr<monitor::CommandInvocation> command_;
    bool span_ = false;  // the worker's lfm.run span is open
  };

  explicit LocalWorker(LocalWorkerOptions options = {}) : options_(options) {}

  // Start one task. Two command forms:
  //   * any shell command line — fork/exec under the LFM (bash_app path)
  //   * "lfm-pyrun <module_file> <args_file> <function>" — run the named
  //     function from the shipped module source in the mini-Python
  //     interpreter, inside a forked LFM child; the pickled result returns
  //     in ResultMessage::payload (python_app path, paper §III.A)
  // `files` is read only here: the child gets its own copy of them.
  std::unique_ptr<Run> start(const TaskMessage& task, const FileSet& files = {});
  // The result of a run whose invocation is done (or absent).
  ResultMessage finish(Run& run);
  // start(), wait for the LFM, finish().
  ResultMessage execute(const TaskMessage& task, const FileSet& files = {});

  int64_t tasks_executed() const { return tasks_executed_; }

 private:
  void start_python(const TaskMessage& task, const FileSet& files, Run& run);

  LocalWorkerOptions options_;
  int64_t tasks_executed_ = 0;
};

// Master-side helper: build the "lfm-pyrun" TaskMessage + FileSet for one
// Python function invocation (module source + pickled args as one-shot
// files).
std::pair<TaskMessage, FileSet> make_python_task(
    uint64_t task_id, const std::string& category, const std::string& module_source,
    const std::string& function, const serde::Value& args,
    const alloc::Resources& allocation);

}  // namespace lfm::wq
