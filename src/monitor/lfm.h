// The Lightweight Function Monitor (paper §II, §VI.B.1) — real implementation.
//
// Each invocation runs in a fresh child process forked from the calling
// "interpreter" process, so the task sees the parent's memory state but its
// mutations are confined to the copy-on-write child. Results (or the error
// description on exception) return to the parent over a pipe, serialized with
// the serde codec — the C++ analogue of the multiprocessing result queue the
// paper establishes before forking. The parent samples the child's /proc
// subtree right after the fork and then once per poll interval, tracks
// peaks, invokes the user callback at each sample, and kills the task's
// process group when any limit is exceeded. Between samples it waits on the
// child's exit (a pidfd — the event half of the paper's fork/exit
// interception) and on the result pipe, so a task is reaped the moment it
// exits rather than at the next poll. The reap's kernel rusage sets a floor
// under the measured peak RSS and CPU time.
//
// One stepped Invocation does all of that without ever blocking; its owner
// decides how to wait. run_monitored() and run_command_monitored() drive one
// invocation with poll(); net::WorkerClient drives many from its event loop.
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>

#include "monitor/resources.h"
#include "monitor/timeline.h"
#include "serde/value.h"

namespace lfm::monitor {

// A task body: executed in the child; receives deserialized args, returns a
// result value. Throwing reports an exception outcome to the parent.
using TaskFn = std::function<serde::Value(const serde::Value&)>;

// Invoked in the parent at every polling interval with the latest snapshot.
using PollCallback = std::function<void(const ResourceUsage&)>;

struct MonitorOptions {
  ResourceLimits limits;
  double poll_interval = 0.02;   // seconds between /proc samples
  PollCallback on_poll;          // optional
  bool record_timeline = false;  // keep one UsageSample per poll
  // Trace lane (obs tid) for this invocation's span and per-poll resource
  // series; 0 uses the child's pid. Only read while the recorder is enabled.
  uint64_t trace_tid = 0;
};

enum class TaskStatus {
  kSuccess,        // function returned a value
  kException,      // function threw; error holds the message
  kLimitExceeded,  // killed for violating a resource limit
  kCrashed,        // child died without reporting (signal, _exit, ...)
};

const char* task_status_name(TaskStatus status);

struct TaskOutcome {
  TaskStatus status = TaskStatus::kCrashed;
  serde::Value result;            // valid when status == kSuccess
  std::string error;              // exception text or crash description
  std::string violated_resource;  // which limit tripped, when kLimitExceeded
  ResourceUsage usage;            // final measured usage (peaks included)
  UsageTimeline timeline;         // per-poll samples when record_timeline set

  bool ok() const { return status == TaskStatus::kSuccess; }
};

// One monitored child, advanced by whoever drives it. Construction makes the
// report pipe, forks, opens the pidfd and takes the first sample. The child
// gets its own process group and is SIGKILLed if the thread that forked it
// exits, so that thread must outlive the run.
//
// The stepping contract:
//   * While !done(), call step() whenever exit_fd() or report_fd() turns
//     readable, and at the latest at next_sample(). step() never blocks: it
//     drains the pipe, reaps the child if it has exited, and samples (or
//     kills for a limit) when a sample is due.
//   * Stop waiting on report_fd() once report_open() is false: a pipe at
//     EOF reads as readable forever. exit_fd() is -1 where pidfd_open is
//     unavailable (kernels before 5.3); then next_sample() alone paces the
//     wait.
//   * Once done(), call the derived type's finish() once.
//   * Both fds stay open until the invocation is destroyed, and an owner
//     that registered them with epoll must remove them before that. Children
//     forked later hold copies of them (fork without exec), and epoll keeps
//     reporting a closed fd whose file description is still open elsewhere.
//   * Destroying an invocation whose child still runs kills the child's
//     process group and reaps it.
class Invocation {
 public:
  Invocation(const Invocation&) = delete;
  Invocation& operator=(const Invocation&) = delete;

  void step();
  bool done() const { return done_; }
  pid_t pid() const { return pid_; }
  int exit_fd() const { return pidfd_; }
  int report_fd() const { return read_fd_; }
  bool report_open() const { return report_open_; }
  // Steady-clock seconds (EventLoop::now()'s base) when a sample is due.
  double next_sample() const { return next_sample_; }

 protected:
  // Forks `child_main`, which runs in the child with the report pipe's write
  // end and must not return.
  Invocation(const std::function<void(int report_fd)>& child_main,
             MonitorOptions options);
  ~Invocation();

  // How the run ended, for the derived finish().
  std::string start_error_;        // the pipe or fork failed: nothing ran
  int wait_status_ = 0;
  std::string violated_resource_;  // set when killed for a limit
  serde::Bytes report_;            // everything the child wrote to the pipe
  ResourceUsage usage_;
  UsageTimeline timeline_;

 private:
  void sample();
  void end();

  MonitorOptions options_;
  pid_t pid_ = -1;
  int read_fd_ = -1;
  int pidfd_ = -1;
  bool report_open_ = false;
  bool done_ = false;
  bool traced_ = false;  // recording at the fork: the lfm.run span opened
  uint64_t trace_tid_ = 0;
  double start_ = 0.0;
  double next_sample_ = 0.0;
  double fork_seconds_ = 0.0;  // the parent's time in fork()
  long child_minflt_ = -1;     // the reap's ru_minflt; -1 until reaped
};

// A function invocation: the child runs fn(args) and reports its result.
class FunctionInvocation : public Invocation {
 public:
  FunctionInvocation(const TaskFn& fn, const serde::Value& args,
                     MonitorOptions options);
  // Decode the child's report. Call once, after done().
  TaskOutcome finish();
};

// Step `invocation` until it is done, sleeping in poll() on its fds until
// the next sample is due.
void wait_until_done(Invocation& invocation);

// Run one function invocation inside a lightweight function monitor.
TaskOutcome run_monitored(const TaskFn& fn, const serde::Value& args,
                          const MonitorOptions& options = {});

// Decorator-style wrapper mirroring the paper's Python decorator: returns a
// callable with the limits/callback bound, so call sites read like plain
// function invocation.
class Monitored {
 public:
  Monitored(TaskFn fn, MonitorOptions options)
      : fn_(std::move(fn)), options_(std::move(options)) {}

  TaskOutcome operator()(const serde::Value& args) const {
    return run_monitored(fn_, args, options_);
  }

  const MonitorOptions& options() const { return options_; }

 private:
  TaskFn fn_;
  MonitorOptions options_;
};

}  // namespace lfm::monitor
