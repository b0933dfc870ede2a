// Monitored execution of external commands — the bash_app path.
//
// Parsl "supports annotation of Python functions and external applications
// invoked via the shell" (§III.A); scientific pipelines (bwa, gatk, VEP)
// are exactly such commands. This runs argv via fork+exec inside the same
// LFM machinery as Python-function tasks: own process group, /proc subtree
// polling, limit enforcement, captured output.
#pragma once

#include <string>
#include <vector>

#include "monitor/lfm.h"

namespace lfm::monitor {

struct CommandResult {
  int exit_code = -1;
  bool signaled = false;
  int signal = 0;
  std::string output;  // combined stdout+stderr, capped at max_output_bytes
};

struct CommandOptions {
  MonitorOptions monitor;
  size_t max_output_bytes = 1 << 20;
  // Optional working directory ("" = inherit).
  std::string working_directory;
};

struct CommandOutcome {
  TaskStatus status = TaskStatus::kCrashed;
  CommandResult result;
  std::string error;
  std::string violated_resource;
  ResourceUsage usage;
  UsageTimeline timeline;

  bool ok() const { return status == TaskStatus::kSuccess; }
};

// A command invocation: the child execs argv (which must not be empty) with
// stdout and stderr on the report pipe. Stepped like any Invocation (lfm.h).
class CommandInvocation : public Invocation {
 public:
  CommandInvocation(const std::vector<std::string>& argv,
                    const CommandOptions& options);
  // The command's exit and captured output. Call once, after done().
  CommandOutcome finish();

 private:
  std::string program_;
  size_t max_output_bytes_;
};

// Run argv[0] with the given arguments under the LFM. A non-zero exit code
// is still kSuccess at the monitor level (the command ran to completion);
// callers inspect result.exit_code. kLimitExceeded / kCrashed as usual.
CommandOutcome run_command_monitored(const std::vector<std::string>& argv,
                                     const CommandOptions& options = {});

}  // namespace lfm::monitor
