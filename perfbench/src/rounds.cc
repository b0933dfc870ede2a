#include "rounds.h"

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "chaos/journal.h"
#include "fed/foreman.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/collector.h"
#include "obs/recorder.h"
#include "stats.h"

namespace lfmbench {

using namespace lfm;

namespace {

// A forked child starts from the parent's recorder state: drop whatever the
// parent buffered, and record only on traced rounds.
void reset_recorder(bool traced) {
  obs::Recorder& rec = obs::Recorder::global();
  rec.set_enabled(traced);
  rec.clear();
}

// Wait up to `timeout` seconds for `pid`, then SIGKILL it. True when it
// exited on its own with status 0.
bool reap(pid_t pid, double timeout) {
  const double deadline = now_s() + timeout;
  int status = 0;
  for (;;) {
    const pid_t p = waitpid(pid, &status, WNOHANG);
    if (p == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (p < 0) return false;
    if (now_s() > deadline) {
      ::kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return false;
    }
    usleep(1000);
  }
}

pid_t fork_worker(uint16_t port, const std::string& name,
                  const Workload& workload, bool traced) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // A surviving copy of a parent listener would keep its port accepting.
  net::close_inherited_fds();
  int status = 1;
  try {
    reset_recorder(traced);
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    if (workload.shape().echo_workers()) {
      o.echo_results = true;
      o.echo_payload = workload.payload();
    }
    net::WorkerClient client(o);
    client.run();
    status = client.gave_up() ? 1 : 0;
  } catch (...) {
  }
  _exit(status);
}

pid_t fork_foreman(uint16_t root_port, const std::string& name,
                   const Workload& workload, bool traced) {
  std::fflush(nullptr);  // children must not replay buffered output
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    reset_recorder(traced);
    fed::ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    fed::Foreman foreman(fc);
    std::vector<pid_t> kids;
    for (int i = 0; i < kWorkersPerForeman; ++i) {
      kids.push_back(fork_worker(foreman.worker_port(),
                                 name + "-w" + std::to_string(i), workload,
                                 traced));
    }
    foreman.run();
    status = foreman.gave_up() ? 1 : 0;
    for (const pid_t kid : kids) {
      if (!reap(kid, 30.0)) status = 1;
    }
  } catch (...) {
  }
  _exit(status);
}

bool await_foremen(net::EventLoop& loop, fed::RootMaster& root, int n) {
  if (root.connected_foremen() >= n) return true;
  const uint64_t poll = loop.run_every(0.001, [&] {
    if (root.connected_foremen() >= n) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(30.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  return root.connected_foremen() >= n;
}

std::vector<pid_t> live_children() {
  std::vector<pid_t> out;
  const pid_t self = getpid();
  DIR* dir = opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    const long pid = std::strtol(entry->d_name, nullptr, 10);
    if (pid <= 0) continue;
    const std::string path = "/proc/" + std::string(entry->d_name) + "/stat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    char buf[512] = {};
    const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    // "pid (comm) state ppid ...": comm may hold spaces, so parse after ')'.
    const std::string stat(buf, n);
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == self) {
      out.push_back(static_cast<pid_t>(pid));
    }
  }
  closedir(dir);
  return out;
}

// Per-task layer spans from the merged tree trace: the root's "task" span
// (submit -> result at the root), the foreman's "task.inflight" span
// (dispatch -> result at the foreman) and the worker's "lfm.run" span.
void span_breakdown(std::vector<obs::TelemetryEvent> events, RoundResult& r) {
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TelemetryEvent& a, const obs::TelemetryEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts < b.ts;
                   });
  std::unordered_map<uint64_t, double> task, inflight, run;
  std::map<std::pair<uint32_t, uint64_t>, std::vector<const obs::TelemetryEvent*>>
      open;
  for (const obs::TelemetryEvent& ev : events) {
    if (ev.ph == 'X' && ev.name == "task" && ev.cat == "fed") {
      task[ev.trace_id] = ev.dur;
    } else if (ev.ph == 'X' && ev.name == "task.inflight") {
      inflight[ev.trace_id] = ev.dur;
    } else if (ev.ph == 'B') {
      open[{ev.pid, ev.tid}].push_back(&ev);
    } else if (ev.ph == 'E') {
      auto& stack = open[{ev.pid, ev.tid}];
      if (stack.empty()) continue;
      const obs::TelemetryEvent* begin = stack.back();
      stack.pop_back();
      if (begin->name == "lfm.run" && begin->cat == "worker") {
        run[begin->trace_id] = ev.ts - begin->ts;
      }
    }
  }
  for (const auto& [trace, dur] : task) {
    auto it = inflight.find(trace);
    if (trace == 0 || it == inflight.end()) continue;
    r.root_hop_ms.push_back((dur - it->second) * 1e3);
    auto rit = run.find(trace);
    const double lfm_run = rit == run.end() ? 0.0 : rit->second;
    r.foreman_inflight_ms.push_back((it->second - lfm_run) * 1e3);
  }
}

}  // namespace

void become_subreaper() { prctl(PR_SET_CHILD_SUBREAPER, 1); }

int stop_leaked_children() {
  int leaked = 0;
  for (;;) {
    int status = 0;
    const pid_t p = waitpid(-1, &status, WNOHANG);
    if (p > 0) {
      ++leaked;
      continue;
    }
    if (p < 0) return leaked;  // ECHILD: nothing left
    for (const pid_t c : live_children()) ::kill(c, SIGKILL);
    if (waitpid(-1, &status, 0) > 0) ++leaked;
  }
}

RoundResult run_round(Workload& workload, bool traced,
                      const std::string& journal_path) {
  RoundResult r;
  const Shape& shape = workload.shape();
  const HostTicks ticks0 = host_ticks();
  const double t0 = now_s();
  const Usage children0 = children_usage();
  reset_recorder(traced);

  obs::Collector collector;
  std::unique_ptr<chaos::Journal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<chaos::Journal>(journal_path);
  }
  net::EventLoop loop;
  fed::RootMasterConfig rc;
  if (traced) rc.collector = &collector;
  rc.journal = journal.get();
  fed::RootMaster root(loop, rc);

  std::vector<pid_t> foremen;
  for (int f = 0; f < kForemen; ++f) {
    foremen.push_back(
        fork_foreman(root.port(), "f" + std::to_string(f), workload, traced));
  }
  // The inputs are built while the tree connects.
  std::vector<fed::TaskGroup> groups = workload.build_round();
  const uint64_t id_base = groups.front().tasks.front().task_id;
  const size_t group_size = shape.group_size;
  const size_t n_tasks = groups.size() * group_size;
  if (!await_foremen(loop, root, kForemen)) {
    r.problems.push_back("foremen did not connect");
  }

  std::vector<double> submit_at(groups.size(), 0.0);
  std::vector<size_t> remaining(groups.size(), group_size);
  std::vector<uint8_t> seen(n_tasks, 0);
  r.latency_ms.reserve(n_tasks);
  size_t next_group = 0;
  double last_result = 0.0;
  auto submit_next = [&] {
    const size_t g = next_group++;
    submit_at[g] = now_s();
    r.submitted += static_cast<int64_t>(groups[g].tasks.size());
    root.submit(std::move(groups[g]));
  };
  root.set_on_result([&](const wq::ResultMessage& msg) {
    const double t = now_s();
    last_result = t;
    const uint64_t idx = msg.task_id - id_base;
    if (msg.task_id < id_base || idx >= n_tasks) return;  // caught below
    const size_t g = idx / group_size;
    if (seen[idx]++ == 0) {
      if (workload.check(msg)) ++r.verified;
      r.latency_ms.push_back((t - submit_at[g]) * 1e3);
    }
    // Last use of `msg`: submit() may reallocate the root's result store.
    if (--remaining[g] == 0 && next_group < groups.size()) submit_next();
  });

  const Usage self0 = self_usage();
  const double t_first = now_s();
  r.setup_s = t_first - t0;
  if (r.problems.empty()) {
    for (size_t i = 0; i < shape.window && next_group < groups.size(); ++i) {
      submit_next();
    }
    try {
      r.stats = root.run_until_complete(120.0);
    } catch (const std::exception& e) {
      r.problems.push_back(e.what());
    }
  }
  r.window_s = last_result - t_first;
  const Usage self1 = self_usage();

  for (const pid_t pid : foremen) {
    if (!reap(pid, 30.0)) r.problems.push_back("a foreman exited abnormally");
  }
  if (const int leaked = stop_leaked_children(); leaked > 0) {
    r.problems.push_back(std::to_string(leaked) +
                         " forked process(es) outlived the round");
  }
  const Usage children1 = children_usage();
  r.cpu_s = (self1.cpu_s - self0.cpu_s) + (children1.cpu_s - children0.cpu_s);
  r.children_maxrss_mb = children1.maxrss_mb;
  r.groups = static_cast<int64_t>(groups.size());
  r.steal_pct = steal_pct(ticks0, host_ticks());

  if (traced) {
    collector.add_local("root", obs::Recorder::global().drain_events());
    span_breakdown(collector.events(), r);
  }
  reset_recorder(false);

  // Exactly once: the root saw every task, each once, and discarded nothing.
  if (r.stats.tasks_completed != static_cast<int64_t>(n_tasks) ||
      r.stats.duplicate_results != 0 ||
      std::any_of(seen.begin(), seen.end(), [](uint8_t s) { return s != 1; })) {
    r.problems.push_back("not every task completed exactly once");
  }
  if (shape.kind == Kind::kEnvShip) {
    r.env_file_frames = r.stats.files_sent;
    const int64_t bound = static_cast<int64_t>(kEnvironments) * kForemen;
    if (r.env_file_frames > bound) {
      r.problems.push_back("env file frames on the top link exceed E x foremen");
    }
  }
  r.failed = r.problems.empty() ? r.submitted - r.verified
                              : std::max<int64_t>(r.submitted, 1);
  return r;
}

}  // namespace lfmbench
