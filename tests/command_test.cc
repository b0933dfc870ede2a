// Tests for monitored external-command execution (the bash_app path).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monitor/command.h"

namespace lfm::monitor {
namespace {

TEST(Command, CapturesOutputAndExitCode) {
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "echo hello; exit 0"});
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.exit_code, 0);
  EXPECT_EQ(outcome.result.output, "hello\n");
}

TEST(Command, NonZeroExitIsStillMonitoredSuccess) {
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "exit 3"});
  ASSERT_EQ(outcome.status, TaskStatus::kSuccess);
  EXPECT_EQ(outcome.result.exit_code, 3);
}

TEST(Command, StderrMergedIntoOutput) {
  const auto outcome =
      run_command_monitored({"/bin/sh", "-c", "echo out; echo err 1>&2"});
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome.result.output.find("out"), std::string::npos);
  EXPECT_NE(outcome.result.output.find("err"), std::string::npos);
}

TEST(Command, ExecFailureReported) {
  const auto outcome = run_command_monitored({"/no/such/binary/xyz"});
  EXPECT_EQ(outcome.status, TaskStatus::kException);
  EXPECT_NE(outcome.error.find("exec failed"), std::string::npos);
}

TEST(Command, EmptyArgvRejected) {
  const auto outcome = run_command_monitored({});
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_EQ(outcome.error, "empty argv");
}

TEST(Command, WallTimeLimitKillsCommand) {
  CommandOptions options;
  options.monitor.limits.wall_time = 0.2;
  options.monitor.poll_interval = 0.02;
  const auto outcome = run_command_monitored({"/bin/sleep", "30"}, options);
  EXPECT_EQ(outcome.status, TaskStatus::kLimitExceeded);
  EXPECT_EQ(outcome.violated_resource, "wall_time");
}

TEST(Command, MeasuresCommandUsage) {
  CommandOptions options;
  options.monitor.poll_interval = 0.01;
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done"},
      options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.usage.wall_time, 0.0);
  EXPECT_GT(outcome.usage.cpu_time, 0.0);
}

TEST(Command, ProcessTreeOfShellPipelinesCovered) {
  CommandOptions options;
  options.monitor.poll_interval = 0.01;
  int max_procs = 0;
  options.monitor.on_poll = [&max_procs](const ResourceUsage& u) {
    max_procs = std::max(max_procs, u.processes);
  };
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "(sleep 0.3 &); sleep 0.3; echo done"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(max_procs, 2);
}

TEST(Command, WorkingDirectoryApplies) {
  CommandOptions options;
  options.working_directory = std::filesystem::temp_directory_path().string();
  const auto outcome = run_command_monitored({"/bin/sh", "-c", "pwd"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NE(outcome.result.output.find("tmp"), std::string::npos);
}

TEST(Command, OutputCapRespected) {
  CommandOptions options;
  options.max_output_bytes = 16;
  const auto outcome = run_command_monitored(
      {"/bin/sh", "-c", "printf 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.result.output.size(), 16u);
}

TEST(Command, TimelineRecordedForCommands) {
  CommandOptions options;
  options.monitor.poll_interval = 0.02;
  options.monitor.record_timeline = true;
  const auto outcome = run_command_monitored({"/bin/sleep", "0.2"}, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.timeline.size(), 2u);
}

TEST(Command, ReturnsWhenCommandExitsNotAtNextPoll) {
  CommandOptions options;
  options.monitor.poll_interval = 1.0;
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = run_command_monitored({"/bin/true"}, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(outcome.ok());
  EXPECT_LT(elapsed, 0.5);
}

TEST(Command, SignalTermination) {
  // The command kills itself: reported as crashed-with-signal.
  const auto outcome =
      run_command_monitored({"/bin/sh", "-c", "kill -TERM $$; sleep 5"});
  EXPECT_EQ(outcome.status, TaskStatus::kCrashed);
  EXPECT_TRUE(outcome.result.signaled);
  EXPECT_EQ(outcome.result.signal, SIGTERM);
}

// --- the stepped invocation ------------------------------------------------------

TEST(CommandInvocation, CommandsSteppedSideBySideOverlap) {
  // Three 0.3 s commands started together and stepped from one thread run
  // at once, and each outcome reads as run_command_monitored's would.
  CommandOptions options;
  options.monitor.poll_interval = 0.02;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<CommandInvocation>> running;
  for (int i = 0; i < 3; ++i) {
    running.push_back(std::make_unique<CommandInvocation>(
        std::vector<std::string>{"/bin/sh", "-c",
                                 "sleep 0.3; echo done " + std::to_string(i)},
        options));
  }
  for (const auto& invocation : running) wait_until_done(*invocation);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (int i = 0; i < 3; ++i) {
    const CommandOutcome outcome = running[static_cast<size_t>(i)]->finish();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.result.exit_code, 0);
    EXPECT_EQ(outcome.result.output, "done " + std::to_string(i) + "\n");
    EXPECT_GE(outcome.usage.wall_time, 0.3);
  }
  EXPECT_LT(elapsed, 0.8);  // one after another would take 0.9 s
}

// True while `pid` exists and is not a zombie.
bool alive(pid_t pid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return false;
  char buf[512] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  const std::string stat(buf, n);
  const size_t close = stat.rfind(')');
  return close != std::string::npos && close + 2 < stat.size() &&
         stat[close + 2] != 'Z' && stat[close + 2] != 'X';
}

TEST(CommandInvocation, CommandDiesWithTheProcessThatStartedIt) {
  // A process starts a long command and dies without reaping it. The
  // command, which holds every fd its starter did not mark close-on-exec,
  // must not outlive it.
  int pid_pipe[2];
  ASSERT_EQ(::pipe(pid_pipe), 0);
  const pid_t starter = ::fork();
  ASSERT_GE(starter, 0);
  if (starter == 0) {
    ::close(pid_pipe[0]);
    auto* invocation =
        new CommandInvocation({"/bin/sleep", "30"}, CommandOptions{});
    const pid_t child = invocation->pid();
    const bool sent = ::write(pid_pipe[1], &child, sizeof child) == sizeof child;
    ::_exit(sent ? 0 : 1);  // never destroys the invocation
  }
  ::close(pid_pipe[1]);
  pid_t child = -1;
  ASSERT_EQ(::read(pid_pipe[0], &child, sizeof child),
            static_cast<ssize_t>(sizeof child));
  ::close(pid_pipe[0]);
  ASSERT_EQ(::waitpid(starter, nullptr, 0), starter);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (alive(child) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(alive(child)) << "the command outlived its starter";
  if (alive(child)) ::kill(child, SIGKILL);
}

}  // namespace
}  // namespace lfm::monitor
