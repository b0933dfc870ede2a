#include "monitor/command.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

namespace lfm::monitor {
namespace {

[[noreturn]] void exec_child(const std::vector<std::string>& argv,
                             const std::string& working_directory, int report_fd) {
  // Combined stdout+stderr into the report pipe.
  ::dup2(report_fd, STDOUT_FILENO);
  ::dup2(report_fd, STDERR_FILENO);
  ::close(report_fd);
  if (!working_directory.empty() && ::chdir(working_directory.c_str()) != 0) {
    ::_exit(126);
  }
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const auto& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
  c_argv.push_back(nullptr);
  ::execvp(c_argv[0], c_argv.data());
  ::_exit(127);  // exec failed
}

}  // namespace

CommandInvocation::CommandInvocation(const std::vector<std::string>& argv,
                                     const CommandOptions& options)
    : Invocation(
          [&](int report_fd) {
            exec_child(argv, options.working_directory, report_fd);
          },
          options.monitor),
      program_(argv.at(0)),
      max_output_bytes_(options.max_output_bytes) {}

CommandOutcome CommandInvocation::finish() {
  CommandOutcome outcome;
  outcome.usage = usage_;
  outcome.timeline = std::move(timeline_);
  if (!start_error_.empty()) {
    outcome.error = start_error_;
    return outcome;
  }
  // Captured output (capped).
  const size_t n = std::min(report_.size(), max_output_bytes_);
  outcome.result.output.assign(report_.begin(), report_.begin() + static_cast<long>(n));

  if (!violated_resource_.empty()) {
    outcome.status = TaskStatus::kLimitExceeded;
    outcome.violated_resource = violated_resource_;
    outcome.error = "resource limit exceeded: " + violated_resource_;
    return outcome;
  }
  if (WIFSIGNALED(wait_status_)) {
    outcome.status = TaskStatus::kCrashed;
    outcome.result.signaled = true;
    outcome.result.signal = WTERMSIG(wait_status_);
    outcome.error = "command killed by signal " + std::to_string(outcome.result.signal);
    return outcome;
  }
  outcome.result.exit_code = WEXITSTATUS(wait_status_);
  if (outcome.result.exit_code == 127 && outcome.result.output.empty()) {
    outcome.status = TaskStatus::kException;
    outcome.error = "exec failed: " + program_;
    return outcome;
  }
  outcome.status = TaskStatus::kSuccess;
  return outcome;
}

CommandOutcome run_command_monitored(const std::vector<std::string>& argv,
                                     const CommandOptions& options) {
  if (argv.empty()) {
    CommandOutcome outcome;
    outcome.error = "empty argv";
    return outcome;
  }
  CommandInvocation invocation(argv, options);
  wait_until_done(invocation);
  return invocation.finish();
}

}  // namespace lfm::monitor
