#include "monitor/lfm.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "monitor/proc_reader.h"
#include "obs/recorder.h"
#include "serde/pickle.h"
#include "util/io.h"
#include "util/log.h"

namespace lfm::monitor {
namespace {

// Child -> parent report framing: 1 status byte + pickled payload.
constexpr uint8_t kReportSuccess = 0;
constexpr uint8_t kReportException = 1;

obs::Count lfm_invocations{"lfm.invocations"};
obs::Count lfm_polls{"lfm.polls"};
obs::Count lfm_limit_kills{"lfm.limit_kills"};
obs::Spread lfm_invocation_seconds{"lfm.invocation_seconds"};
obs::Spread lfm_fork_us{"lfm.fork_us"};
obs::Spread lfm_child_minflt{"lfm.child_minflt"};

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

[[noreturn]] void function_child(const TaskFn& fn, const serde::Value& args,
                                 int report_fd) {
  uint8_t status = kReportSuccess;
  serde::Bytes payload;
  try {
    serde::dumps_into(fn(args), payload);
  } catch (const std::exception& e) {
    status = kReportException;
    serde::dumps_into(serde::Value(std::string(e.what())), payload);
  } catch (...) {
    status = kReportException;
    serde::dumps_into(serde::Value(std::string("unknown exception")), payload);
  }
  io::write_all(report_fd, &status, 1);
  io::write_all(report_fd, payload.data(), payload.size());
  ::close(report_fd);
  ::_exit(0);
}

void merge_peaks(ResourceUsage& acc, const ResourceUsage& snapshot) {
  acc.wall_time = snapshot.wall_time;
  acc.rss_bytes = snapshot.rss_bytes;
  acc.processes = snapshot.processes;
  acc.disk_read_bytes = std::max(acc.disk_read_bytes, snapshot.disk_read_bytes);
  acc.disk_write_bytes = std::max(acc.disk_write_bytes, snapshot.disk_write_bytes);
  // CPU counters are cumulative but the subtree membership fluctuates, so
  // keep the maximum observed total.
  acc.cpu_time = std::max(acc.cpu_time, snapshot.cpu_time);
  acc.max_rss_bytes = std::max(acc.max_rss_bytes, snapshot.rss_bytes);
  acc.max_processes = std::max(acc.max_processes, snapshot.processes);
  acc.cores = acc.wall_time > 0.0 ? acc.cpu_time / acc.wall_time : 0.0;
}

}  // namespace

const char* task_status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::kSuccess: return "success";
    case TaskStatus::kException: return "exception";
    case TaskStatus::kLimitExceeded: return "limit_exceeded";
    case TaskStatus::kCrashed: return "crashed";
  }
  return "?";
}

Invocation::Invocation(const std::function<void(int)>& child_main,
                       MonitorOptions options)
    : options_(std::move(options)) {
  int pipe_fds[2];
  // Close-on-exec keeps this read end out of every command a sibling
  // invocation execs.
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    start_error_ = std::string("pipe: ") + std::strerror(errno);
    done_ = true;
    return;
  }
  const pid_t parent = ::getpid();
  std::fflush(nullptr);  // avoid duplicated stdio buffers in the child
  const double fork_start = now_seconds();
  pid_ = ::fork();
  fork_seconds_ = now_seconds() - fork_start;
  if (pid_ < 0) {
    start_error_ = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    done_ = true;
    return;
  }
  if (pid_ == 0) {
    // Own process group so the parent can kill the whole task tree at once.
    ::setpgid(0, 0);
    // Die with the forking thread: a forked child that never execs holds
    // every fd of its parent, its TCP socket included. The getppid check
    // covers a parent that died before the prctl.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(pipe_fds[0]);
    child_main(pipe_fds[1]);  // never returns
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  read_fd_ = pipe_fds[0];
  report_open_ = true;
  ::fcntl(read_fd_, F_SETFL, O_NONBLOCK);
  // Readable once the child exits: the exit event that lets the owner reap
  // the task as soon as it is done. Without it (kernels before 5.3) the
  // wait ends on report bytes or when the next sample is due.
  pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  trace_tid_ = options_.trace_tid != 0 ? options_.trace_tid
                                       : static_cast<uint64_t>(pid_);
  traced_ = obs::Recorder::enabled();
  if (traced_) {
    obs::Recorder& r = obs::Recorder::global();
    r.begin(obs::kPidHost, trace_tid_, r.now(), "lfm.run", "lfm");
    lfm_invocations.add();
  }
  start_ = now_seconds();
  next_sample_ = start_;
  step();  // the first sample, right after the fork
}

Invocation::~Invocation() {
  if (!done_) {
    ::kill(-pid_, SIGKILL);  // the whole process group
    ::kill(pid_, SIGKILL);   // in case setpgid had not run yet
    ::waitpid(pid_, &wait_status_, 0);
    end();
  }
  if (read_fd_ >= 0) ::close(read_fd_);
  if (pidfd_ >= 0) ::close(pidfd_);
}

void Invocation::step() {
  if (done_) return;
  // Drain as bytes arrive: a result larger than the pipe buffer blocks the
  // child until the parent reads.
  if (report_open_ &&
      io::read_available(read_fd_, report_) != io::ReadStatus::kAgain) {
    report_open_ = false;
  }
  struct rusage child_usage {};
  const pid_t w = ::wait4(pid_, &wait_status_, WNOHANG, &child_usage);
  if (w == pid_) {
    // The kernel's own peak and CPU totals for the child (and whatever
    // it reaped) lift the polled figures: a sample can miss a short peak.
    // They never lower them, and limits stay judged on polled values.
    usage_.max_rss_bytes = std::max<int64_t>(usage_.max_rss_bytes,
                                             int64_t{child_usage.ru_maxrss} * 1024);
    usage_.cpu_time = std::max(usage_.cpu_time, timeval_seconds(child_usage.ru_utime) +
                                                    timeval_seconds(child_usage.ru_stime));
    child_minflt_ = child_usage.ru_minflt;
    end();
    return;
  }
  if (w < 0 && errno == ECHILD) {  // reaped elsewhere: nothing to wait for
    end();
    return;
  }
  if (now_seconds() >= next_sample_) sample();
}

void Invocation::sample() {
  const ResourceUsage snapshot = sample_subtree(pid_, now_seconds() - start_);
  merge_peaks(usage_, snapshot);
  if (options_.record_timeline) {
    UsageSample s;
    s.wall_time = snapshot.wall_time;
    s.cpu_time = snapshot.cpu_time;
    s.rss_bytes = snapshot.rss_bytes;
    s.disk_write_bytes = snapshot.disk_write_bytes;
    s.processes = snapshot.processes;
    timeline_.add(s);
  }
  if (obs::Recorder::enabled()) {
    // The per-task resource series the paper's evaluation is built from:
    // one counter sample per poll on the task's trace lane.
    obs::Recorder& r = obs::Recorder::global();
    const double ts = r.now();
    r.counter(obs::kPidHost, trace_tid_, ts, "lfm.usage", "rss_mb",
              static_cast<double>(snapshot.rss_bytes) / 1e6, "cores", usage_.cores);
    r.counter(obs::kPidHost, trace_tid_, ts, "lfm.disk", "disk_write_mb",
              static_cast<double>(snapshot.disk_write_bytes) / 1e6, "processes",
              static_cast<double>(snapshot.processes));
    lfm_polls.add();
  }
  if (options_.on_poll) options_.on_poll(usage_);

  if (violated_resource_.empty()) {
    if (const auto violation = first_violation(usage_, options_.limits)) {
      violated_resource_ = *violation;
      LFM_INFO("lfm", "killing task " + std::to_string(pid_) + ": " + *violation +
                          " limit exceeded (" + usage_.summary() + ")");
      if (obs::Recorder::enabled()) {
        obs::Recorder& r = obs::Recorder::global();
        r.instant(obs::kPidHost, trace_tid_, r.now(), "limit-kill", "lfm",
                  "resource", *violation);
        lfm_limit_kills.add();
      }
      ::kill(-pid_, SIGKILL);  // the whole process group
      ::kill(pid_, SIGKILL);   // in case setpgid had not run yet
    }
  }
  next_sample_ = now_seconds() + options_.poll_interval;
}

void Invocation::end() {
  done_ = true;
  // Final wall time; the child is gone so /proc reads are moot.
  usage_.wall_time = now_seconds() - start_;
  usage_.cores = usage_.wall_time > 0.0 ? usage_.cpu_time / usage_.wall_time : 0.0;
  // Collect any remaining bytes. The run ends on the direct child's exit,
  // so a background grandchild may still hold the pipe open: take what is
  // there without waiting for EOF.
  if (report_open_) io::read_available(read_fd_, report_);
  report_open_ = false;
  if (traced_) {
    obs::Recorder& r = obs::Recorder::global();
    r.end(obs::kPidHost, trace_tid_, r.now());
    lfm_invocation_seconds.observe(usage_.wall_time);
    // The fork's two costs: the parent's time in fork(), and the page
    // faults the child took on the copy-on-write memory it touched.
    lfm_fork_us.observe(fork_seconds_ * 1e6);
    if (child_minflt_ >= 0) lfm_child_minflt.observe(static_cast<double>(child_minflt_));
  }
}

FunctionInvocation::FunctionInvocation(const TaskFn& fn, const serde::Value& args,
                                       MonitorOptions options)
    : Invocation([&](int report_fd) { function_child(fn, args, report_fd); },
                 std::move(options)) {}

TaskOutcome FunctionInvocation::finish() {
  TaskOutcome outcome;
  outcome.usage = usage_;
  outcome.timeline = std::move(timeline_);
  if (!start_error_.empty()) {
    outcome.error = start_error_;
    return outcome;
  }
  if (!violated_resource_.empty()) {
    outcome.status = TaskStatus::kLimitExceeded;
    outcome.violated_resource = violated_resource_;
    outcome.error = "resource limit exceeded: " + violated_resource_;
    return outcome;
  }
  if (report_.empty()) {
    outcome.status = TaskStatus::kCrashed;
    if (WIFSIGNALED(wait_status_)) {
      outcome.error = std::string("task killed by signal ") +
                      std::to_string(WTERMSIG(wait_status_));
    } else {
      outcome.error = "task exited without reporting a result (status " +
                      std::to_string(WEXITSTATUS(wait_status_)) + ")";
    }
    return outcome;
  }
  const uint8_t report_kind = report_[0];
  try {
    // Decode in place over the pipe buffer — the old copy of the payload
    // bytes into a fresh vector was pure overhead on every task return.
    serde::Value value = serde::loads(report_.data() + 1, report_.size() - 1);
    if (report_kind == kReportSuccess) {
      outcome.status = TaskStatus::kSuccess;
      outcome.result = std::move(value);
    } else {
      outcome.status = TaskStatus::kException;
      outcome.error = value.is_str() ? value.as_str() : value.repr();
    }
  } catch (const Error& e) {
    outcome.status = TaskStatus::kCrashed;
    outcome.error = std::string("corrupt result report: ") + e.what();
  }
  return outcome;
}

void wait_until_done(Invocation& invocation) {
  while (!invocation.done()) {
    // poll() skips negative descriptors, so a failed pidfd_open, or a pipe
    // already at EOF, drops out of the wait set: a finished report cannot
    // spin the loop.
    pollfd fds[2] = {
        {invocation.exit_fd(), POLLIN, 0},
        {invocation.report_open() ? invocation.report_fd() : -1, POLLIN, 0}};
    const double left_ms =
        std::clamp((invocation.next_sample() - now_seconds()) * 1e3, 0.0, 1e9);
    ::poll(fds, 2, static_cast<int>(std::ceil(left_ms)));
    invocation.step();
  }
}

TaskOutcome run_monitored(const TaskFn& fn, const serde::Value& args,
                          const MonitorOptions& options) {
  FunctionInvocation invocation(fn, args, options);
  wait_until_done(invocation);
  return invocation.finish();
}

}  // namespace lfm::monitor
