// Tests for the federated foreman tier (src/fed/): in-process two-shard
// dispatch with namespaced metrics registries, cache-affinity routing,
// journal done-flag recovery, and an end-to-end forked-process run — one
// root, two foreman processes, four worker processes — with a SIGKILLed
// foreman mid-run, checking exactly-once completion and payloads
// bit-identical to an in-process reference execution.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/journal.h"
#include "fed/foreman.h"
#include "fed/root_master.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "obs/collector.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serde/value.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::fed {
namespace {

wq::TaskMessage echo_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "fed-test";
  t.command_line = "echo";
  t.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return t;
}

// An in-process echo worker thread serving one foreman's shard until bye.
struct EchoWorker {
  explicit EchoWorker(uint16_t port, const std::string& name) {
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.echo_results = true;
    o.echo_payload = serde::Bytes{'p', 'o', 'n', 'g'};
    client = std::make_unique<net::WorkerClient>(o);
    thread = std::thread([this] { client->run(); });
  }
  void join() { thread.join(); }
  std::unique_ptr<net::WorkerClient> client;
  std::thread thread;
};

// Run the root's loop until `n` foremen are connected and idle, so group
// submission (and therefore routing) starts from a deterministic topology.
void await_foremen(net::EventLoop& loop, RootMaster& root, int n) {
  uint64_t poll = 0;
  poll = loop.run_every(0.005, [&] {
    if (root.connected_foremen() >= n) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(30.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  ASSERT_GE(root.connected_foremen(), n) << "foremen never connected";
}

// Run `loop` until `done()` holds (checked every 5 ms) or `timeout` passes.
bool run_until(net::EventLoop& loop, const std::function<bool()>& done,
               double timeout) {
  if (done()) return true;
  const uint64_t poll = loop.run_every(0.005, [&] {
    if (done()) loop.stop();
  });
  const uint64_t watchdog = loop.run_after(timeout, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(poll);
  loop.cancel_timer(watchdog);
  return done();
}

TEST(Federation, TwoShardsCompleteAllGroupsWithNamespacedMetrics) {
  obs::Metrics root_m("root."), f1_m("f1."), f2_m("f2.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &root_m;
  rc.groups_per_foreman = 2;
  RootMaster root(loop, rc);

  ForemanConfig fc1;
  fc1.name = "f1";
  fc1.root_port = root.port();
  fc1.metrics = &f1_m;
  fc1.stats_interval = 0.05;
  ForemanConfig fc2 = fc1;
  fc2.name = "f2";
  fc2.metrics = &f2_m;
  Foreman f1(fc1), f2(fc2);
  std::thread ft1([&] { f1.run(); });
  std::thread ft2([&] { f2.run(); });
  EchoWorker w1(f1.worker_port(), "w1"), w2(f1.worker_port(), "w2");
  EchoWorker w3(f2.worker_port(), "w3"), w4(f2.worker_port(), "w4");
  await_foremen(loop, root, 2);

  // Per-group files: zero cache affinity everywhere, so the least-loaded
  // tie-break must spread the groups across both shards (depth 2 per shard,
  // six groups — each shard is guaranteed at least two).
  const int kGroups = 6, kPerGroup = 4;
  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "g" + std::to_string(g);
    serde::Bytes file(4096);
    for (size_t i = 0; i < file.size(); ++i) {
      file[i] = static_cast<uint8_t>(i * 131 + g);
    }
    const std::string fname = "g" + std::to_string(g) + ".bin";
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      t.infiles.push_back({fname, static_cast<int64_t>(file.size()), true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace(fname, std::move(file));
    root.submit(std::move(group));
  }

  std::map<uint64_t, int> events;
  std::vector<wq::ResultMessage> results;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results.push_back(r);
  });
  const RootStats stats = root.run_until_complete(60.0);
  ft1.join();
  ft2.join();
  w1.join();
  w2.join();
  w3.join();
  w4.join();

  const int kTasks = kGroups * kPerGroup;
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.groups_completed, kGroups);
  EXPECT_EQ(stats.duplicate_results, 0);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  const serde::Bytes pong{'p', 'o', 'n', 'g'};
  for (const wq::ResultMessage& r : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, pong);
  }
  // Both shards worked and relayed: tasks split across the two foremen.
  EXPECT_EQ(f1.results_relayed() + f2.results_relayed(), kTasks);
  EXPECT_GT(f1.results_relayed(), 0);
  EXPECT_GT(f2.results_relayed(), 0);
  // Each group's cacheable file crossed the root link exactly once, was
  // held by its shard, and fanned out locally from there.
  EXPECT_EQ(stats.files_sent, kGroups);
  EXPECT_GT(f1_m.counter("foreman.files_cached").value(), 0);
  EXPECT_GT(f2_m.counter("foreman.files_cached").value(), 0);

  // Namespaced registries: each component's series lives under its own
  // prefix, none of them collide, and nothing leaked into the others.
  EXPECT_EQ(root_m.counter("fed.results").value(), kTasks);
  EXPECT_EQ(f1_m.counter("net.results").value() +
                f2_m.counter("net.results").value(),
            kTasks);
  EXPECT_EQ(f1_m.counter("foreman.results_relayed").value(),
            f1.results_relayed());
  EXPECT_EQ(root_m.counter("net.results").value(), 0);
  EXPECT_EQ(f1_m.counter("fed.results").value(), 0);
  bool prefixed = true;
  for (const auto& [name, v] : f1_m.counters()) {
    if (name.rfind("f1.", 0) != 0) prefixed = false;
  }
  EXPECT_TRUE(prefixed) << "f1 registry holds an unprefixed series";
}

TEST(Federation, AffinityRoutesWarmGroupToTheShardHoldingItsFiles) {
  obs::Metrics m("affinity.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  RootMaster root(loop, rc);

  ForemanConfig fc1;
  fc1.name = "fa";
  fc1.root_port = root.port();
  fc1.metrics = &m;
  ForemanConfig fc2 = fc1;
  fc2.name = "fb";
  Foreman fa(fc1), fb(fc2);
  std::thread ta([&] { fa.run(); });
  std::thread tb([&] { fb.run(); });
  EchoWorker wa(fa.worker_port(), "wa"), wb(fb.worker_port(), "wb");
  await_foremen(loop, root, 2);

  serde::Bytes big(16384, 0x5a);
  auto make_group = [&](const std::string& name, uint64_t first_id) {
    TaskGroup g;
    g.name = name;
    for (int i = 0; i < 2; ++i) {
      wq::TaskMessage t = echo_task(first_id + static_cast<uint64_t>(i));
      t.infiles.push_back({"big.dat", static_cast<int64_t>(big.size()), true});
      g.tasks.push_back(std::move(t));
    }
    g.files.emplace("big.dat", big);
    return g;
  };
  // Four groups, all naming the same cacheable file, submitted with both
  // shards connected and idle. The first group lands wherever the load
  // tie-break puts it and ships the file; affinity must then pull every
  // later group to that same shard — the idle sibling's lighter load never
  // wins against a warm cache — so the file crosses the root link exactly
  // once.
  for (int g = 0; g < 4; ++g) {
    root.submit(make_group("warm" + std::to_string(g),
                           1 + static_cast<uint64_t>(g) * 10));
  }

  const RootStats stats = root.run_until_complete(60.0);
  ta.join();
  tb.join();
  wa.join();
  wb.join();

  EXPECT_EQ(stats.tasks_completed, 8);
  EXPECT_EQ(stats.files_sent, 1) << "warm groups re-shipped their file";
  // One shard did everything; the idle sibling stayed cold.
  EXPECT_TRUE(fa.results_relayed() == 8 || fb.results_relayed() == 8);
}

TEST(Federation, JournalDoneFlagsSurviveRestartExactlyOnce) {
  // Round 1: complete three tasks with a journal attached.
  chaos::Journal journal;
  {
    net::EventLoop loop;
    RootMasterConfig rc;
    rc.journal = &journal;
    RootMaster root(loop, rc);
    TaskGroup g;
    g.name = "round1";
    for (uint64_t id = 1; id <= 3; ++id) g.tasks.push_back(echo_task(id));
    root.submit(std::move(g));
    ForemanConfig fc;
    fc.name = "fj";
    fc.root_port = root.port();
    Foreman foreman(fc);
    std::thread ft([&] { foreman.run(); });
    EchoWorker w(foreman.worker_port(), "wj");
    const RootStats stats = root.run_until_complete(60.0);
    ft.join();
    w.join();
    EXPECT_EQ(stats.tasks_completed, 3);
  }
  EXPECT_EQ(journal.completed_task_ids(),
            (std::unordered_set<uint64_t>{1, 2, 3}));

  // Round 2: a restarted root re-submits the same tasks plus a new one.
  // The recovered done flags keep 1..3 off the wire entirely.
  net::EventLoop loop;
  RootMaster root(loop, {});
  root.recover(journal);
  TaskGroup g;
  g.name = "round2";
  for (uint64_t id = 1; id <= 4; ++id) g.tasks.push_back(echo_task(id));
  root.submit(std::move(g));
  std::map<uint64_t, wq::ResultMessage> results;
  root.set_on_result([&](const wq::ResultMessage& r) { results[r.task_id] = r; });
  ForemanConfig fc;
  fc.name = "fj2";
  fc.root_port = root.port();
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wj2");
  const RootStats stats = root.run_until_complete(60.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.recovered_done, 3);
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(foreman.tasks_received(), 1) << "a recovered task was re-dispatched";
  // Only the new task delivers a result.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.at(4).payload, (serde::Bytes{'p', 'o', 'n', 'g'}));
}

// --- end-to-end: root <-> forked foreman processes <-> forked workers --------

pid_t fork_python_worker(uint16_t port, const std::string& name,
                         bool traced = false) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop inherited fds: a surviving copy of a parent listener keeps its
  // port accepting after that tier stops serving it (see net/socket.h).
  net::close_inherited_fds();
  int status = 1;
  try {
    if (traced) {
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    net::WorkerClientOptions o;
    o.port = port;
    o.name = name;
    o.worker.poll_interval = 0.01;
    // Orphan discipline: a worker whose foreman was SIGKILLed reconnects
    // into the dead shard's inherited listener backlog and hears silence;
    // the short idle timeout plus the finite budget (which a bare accept no
    // longer refills) gets it out cleanly.
    o.idle_timeout = 0.5;
    o.max_reconnect_attempts = 4;
    chaos::RetryPolicy fast;
    fast.backoff_base = 0.01;
    fast.backoff_max = 0.05;
    o.reconnect = fast;
    net::WorkerClient client(o);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

pid_t fork_foreman(uint16_t root_port, const std::string& name, int workers,
                   bool traced = false) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  net::close_inherited_fds();
  int status = 1;
  try {
    if (traced) {
      obs::Recorder::global().set_enabled(true);
      obs::Recorder::global().clear();
    }
    ForemanConfig fc;
    fc.name = name;
    fc.root_port = root_port;
    // Far shorter than a run whose tasks each take about a millisecond, so
    // kStats frames reach the root before its bye.
    fc.stats_interval = 0.002;
    fc.service.tasks_per_worker = 4;
    Foreman foreman(fc);
    // The shard's workers are forked from inside the shard process, so no
    // port needs reserving: the ephemeral worker_port() is already bound.
    std::vector<pid_t> kids;
    for (int i = 0; i < workers; ++i) {
      kids.push_back(fork_python_worker(
          foreman.worker_port(), name + "-w" + std::to_string(i), traced));
    }
    foreman.run();
    status = 0;
    for (const pid_t kid : kids) {
      int s = -1;
      if (waitpid(kid, &s, 0) != kid || !WIFEXITED(s) || WEXITSTATUS(s) != 0) {
        status = 1;
      }
    }
  } catch (...) {
  }
  _exit(status);
}

TEST(FedEndToEnd, ForemanKillMidRunCompletesExactlyOnceBitIdentical) {
  const char* module = R"(
def mul(a, b):
    return {'v': a * b, 'd': a - b}
)";
  const int kGroups = 8, kPerGroup = 4;
  const int kTasks = kGroups * kPerGroup;
  std::vector<std::pair<wq::TaskMessage, wq::FileSet>> specs;
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    args.push_back(serde::Value(int64_t{37 + i}));
    specs.push_back(wq::make_python_task(500 + static_cast<uint64_t>(i), "mul",
                                         module, "mul",
                                         serde::Value(std::move(args)),
                                         alloc::Resources{1.0, 512e6, 1e9}));
  }
  // Reference run: the same messages through an in-process LocalWorker.
  std::vector<serde::Bytes> expected;
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.01;
    wq::LocalWorker direct(wo);
    for (const auto& [task, files] : specs) {
      const wq::ResultMessage r = direct.execute(task, files);
      ASSERT_EQ(r.exit_code, 0) << "task " << task.task_id;
      expected.push_back(r.payload);
    }
  }

  net::EventLoop loop;
  RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  RootMaster root(loop, rc);
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "eg" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      auto& [task, files] = specs[g * kPerGroup + i];
      group.tasks.push_back(task);
      for (const auto& [n, b] : files) group.files.emplace(n, b);
    }
    root.submit(std::move(group));
  }

  const pid_t victim = fork_foreman(root.port(), "fk0", 2);
  const pid_t survivor = fork_foreman(root.port(), "fk1", 2);

  std::map<uint64_t, int> events;
  std::map<uint64_t, wq::ResultMessage> results;
  bool killed = false;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results[r.task_id] = r;
    if (!killed) {
      // Kill only once the victim shard verifiably holds in-flight groups
      // (a group leaves the load set strictly before its last result), so
      // the SIGKILL is guaranteed to orphan work that must requeue to the
      // survivor.
      const std::map<std::string, size_t> loads = root.shard_loads();
      auto it = loads.find("fk0");
      if (it != loads.end() && it->second >= 1) {
        killed = true;
        ::kill(victim, SIGKILL);
      }
    }
  });
  const RootStats stats = root.run_until_complete(120.0);

  EXPECT_TRUE(killed);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.foremen_lost, 1);  // the murdered one; the bye is a departure
  EXPECT_GE(stats.requeued_groups, 1);
  EXPECT_GE(stats.requeued_tasks, 1);
  EXPECT_GE(stats.stats_frames, 1);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) {
    EXPECT_EQ(n, 1) << "task " << id << " reported " << n << " times";
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    const wq::ResultMessage& r = results[500 + static_cast<uint64_t>(i)];
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, expected[i]) << "payload differs for task " << r.task_id;
  }

  int status = -1;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  status = -1;
  ASSERT_EQ(waitpid(survivor, &status, 0), survivor);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "surviving foreman exited " << status;
}

TEST(FedEndToEnd, GroupSentBackToAResetForemanRunsOnceWhereItStillRuns) {
  // One forked foreman that may hold 6 KiB runs a long group on file A
  // while short groups name B, C, B, C, B, two groups in flight. Each C
  // puts it past the bound once the group before it completed, so B is
  // dropped; the next group naming B resets the link while the long group
  // still runs there, and the root sends that group back to it on the new
  // link. A task still pending at the foreman is not added to its service
  // again: a second entry would never complete and would hold its files
  // and a worker slot for good, so the foreman process also checks that
  // its service ends holding no staged bytes.
  const int kGroups = 6, kPerGroup = 2;
  const int kTasks = kGroups * kPerGroup;
  const char* const kFiles[] = {"a.bin", "b.bin", "c.bin"};
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.groups_per_foreman = 2;
  RootMaster root(loop, rc);
  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "g" + std::to_string(g);
    const int file = g == 0 ? 0 : 2 - g % 2;
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      if (g == 0) t.command_line = "sleep 2";
      t.infiles.push_back({kFiles[file], 4096, true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace(kFiles[file],
                        serde::Bytes(4096, static_cast<uint8_t>(0xa1 + file)));
    root.submit(std::move(group));
  }

  const pid_t pid = fork();
  if (pid == 0) {
    net::close_inherited_fds();
    int status = 1;
    try {
      ForemanConfig fc;
      fc.name = "fr";
      fc.root_port = root.port();
      fc.cache_capacity_bytes = 6 << 10;
      // The long group outlasts this whole budget many times over; the
      // resets must not use it up.
      fc.max_reconnect_attempts = 2;
      // The worker leaves a master silent for 0.5 s; pings keep it through
      // the long group.
      fc.service.heartbeat_interval = 0.1;
      Foreman foreman(fc);
      const pid_t worker = fork_python_worker(foreman.worker_port(), "fr-w0");
      foreman.run();
      int s = -1;
      const bool worker_ok =
          waitpid(worker, &s, 0) == worker && WIFEXITED(s) && WEXITSTATUS(s) == 0;
      const bool released =
          foreman.service().statusz_value().at("staged_bytes").as_int() == 0;
      status = worker_ok && released ? 0 : 1;
    } catch (...) {
    }
    _exit(status);
  }

  std::map<uint64_t, int> events;
  root.set_on_result([&](const wq::ResultMessage& r) { events[r.task_id]++; });
  RootStats stats;
  try {
    stats = root.run_until_complete(30.0);
  } catch (const Error& e) {
    ADD_FAILURE() << e.what();
    ::kill(pid, SIGKILL);
  }
  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_GE(stats.foremen_lost, 2) << "the foreman did not reset its link twice";
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
}

TEST(FedEndToEnd, TraceSpansOneTaskAcrossThreeProcessLanes) {
  // The whole-tree tracing claim at test scale: a root, two forked foreman
  // processes, four forked workers, every process recording. After the run
  // the root's collector must hold at least one trace id whose
  // submit→ship→run→result spans appear in three distinct process lanes
  // and nest once timestamps are normalized into the root's clock.
  const char* module = R"(
def inc(x):
    return x + 1
)";
  obs::Recorder::global().set_enabled(true);
  obs::Recorder::global().clear();
  obs::Collector collector;

  net::EventLoop loop;
  RootMasterConfig rc;
  rc.groups_per_foreman = 4;
  rc.collector = &collector;
  RootMaster root(loop, rc);
  const int kGroups = 4, kPerGroup = 4;
  const int kTasks = kGroups * kPerGroup;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "tg" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      serde::ValueList args;
      args.push_back(serde::Value(int64_t{g * kPerGroup + i}));
      auto [task, files] = wq::make_python_task(
          900 + static_cast<uint64_t>(g * kPerGroup + i), "inc", module, "inc",
          serde::Value(std::move(args)), alloc::Resources{1.0, 512e6, 1e9});
      group.tasks.push_back(task);
      for (const auto& [n, b] : files) group.files.emplace(n, b);
    }
    root.submit(std::move(group));
  }

  // Forked children inherit stdio buffers; flush so a piped stdout (ctest)
  // doesn't replay buffered output once per child.
  std::fflush(stdout);
  const pid_t f0 = fork_foreman(root.port(), "tt0", 2, /*traced=*/true);
  const pid_t f1 = fork_foreman(root.port(), "tt1", 2, /*traced=*/true);

  const RootStats stats = root.run_until_complete(120.0);
  int status = -1;
  ASSERT_EQ(waitpid(f0, &status, 0), f0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  status = -1;
  ASSERT_EQ(waitpid(f1, &status, 0), f1);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_GE(stats.telemetry_frames, 1);

  collector.add_local("root", obs::Recorder::global().drain_events());
  obs::Recorder::global().set_enabled(false);
  obs::Recorder::global().clear();
  // Every tier contributed: the root plus at least one foreman process and
  // one worker process (2 foremen x (1 + 2 workers) = up to 7 sources).
  EXPECT_GE(collector.source_count(), 3u);

  struct PerTrace {
    bool has_task = false;
    double task_begin = 0.0, task_end = 0.0;
    std::vector<double> inflight_begin, inflight_end;
    std::vector<double> run_begin, run_end;
    std::map<uint64_t, int> lanes;
  };
  std::map<uint64_t, PerTrace> traces;
  for (const auto& ev : collector.events()) {
    if (ev.trace_id == 0) continue;
    PerTrace& t = traces[ev.trace_id];
    ++t.lanes[ev.pid];
    if (ev.ph == 'X' && ev.name == "task") {
      t.has_task = true;
      t.task_begin = ev.ts;
      t.task_end = ev.ts + ev.dur;
    }
    if (ev.ph == 'X' && ev.name == "task.inflight") {
      t.inflight_begin.push_back(ev.ts);
      t.inflight_end.push_back(ev.ts + ev.dur);
    }
    if (ev.ph == 'B' && ev.name == "lfm.run") t.run_begin.push_back(ev.ts);
    if (ev.ph == 'E') t.run_end.push_back(ev.ts);
  }
  EXPECT_EQ(traces.size(), static_cast<size_t>(kTasks));

  // Two relay hops (worker->foreman->root), each clock estimate bounded by
  // its link's RTT/2.
  const double kSkewTolerance = 2e-3;
  int nested_three_lanes = 0;
  for (const auto& [id, t] : traces) {
    if (!t.has_task || t.lanes.size() < 3) continue;
    if (t.inflight_begin.empty() || t.run_begin.empty() || t.run_end.empty()) {
      continue;
    }
    const double in_first =
        *std::min_element(t.inflight_begin.begin(), t.inflight_begin.end());
    const double in_last =
        *std::max_element(t.inflight_end.begin(), t.inflight_end.end());
    const double run_first =
        *std::min_element(t.run_begin.begin(), t.run_begin.end());
    const double run_last =
        *std::max_element(t.run_end.begin(), t.run_end.end());
    const bool inflight_in_task =
        t.task_begin - kSkewTolerance <= in_first &&
        in_last <= t.task_end + kSkewTolerance;
    const bool run_in_inflight = in_first - kSkewTolerance <= run_first &&
                                 run_first <= run_last &&
                                 run_last <= in_last + kSkewTolerance;
    if (inflight_in_task && run_in_inflight) ++nested_three_lanes;
  }
  EXPECT_GE(nested_three_lanes, 1)
      << "no trace id spanned three process lanes with nested "
         "task / task.inflight / lfm.run spans";
}

// --- the foreman-facing dispatch policy ---------------------------------------

TEST(Federation, SilentForemanHoldingAGroupIsClosedAndTheGroupRunsOnASibling) {
  // A foreman keeps sending kStats while it works, so unlike a busy worker,
  // a link that holds a group and goes silent is dead. The fake foreman is
  // a raw socket that says hello and then nothing: the root must close it
  // after idle_timeout and run its group, exactly once, on a real sibling.
  obs::Metrics m("silent.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  rc.heartbeat_interval = 0.05;
  rc.idle_timeout = 0.3;
  RootMaster root(loop, rc);

  const int fake = net::connect_tcp("127.0.0.1", root.port());
  ASSERT_GE(fake, 0);
  const std::string hello =
      wq::encode(wq::HelloMessage{"fake", alloc::Resources{1.0, 1e9, 1e9}});
  ASSERT_EQ(::write(fake, hello.data(), hello.size()),
            static_cast<ssize_t>(hello.size()));
  await_foremen(loop, root, 1);

  const int kTasks = 4;
  TaskGroup group;
  group.name = "held";
  for (int i = 0; i < kTasks; ++i) {
    group.tasks.push_back(echo_task(700 + static_cast<uint64_t>(i)));
  }
  root.submit(std::move(group));
  ASSERT_EQ(root.shard_loads().at("fake"), 1u) << "the group missed the fake";

  ForemanConfig fc;
  fc.name = "real";
  fc.root_port = root.port();
  fc.stats_interval = 0.05;
  Foreman real(fc);
  std::thread ft([&] { real.run(); });
  EchoWorker w(real.worker_port(), "wr");

  std::map<uint64_t, int> events;
  root.set_on_result([&](const wq::ResultMessage& r) { events[r.task_id]++; });
  RootStats stats;
  try {
    stats = root.run_until_complete(10.0);
  } catch (const Error& e) {
    // The group never left the silent link: wind the tree down to join it.
    ADD_FAILURE() << e.what();
    real.stop();
    w.client->stop();
  }
  ft.join();
  w.join();
  ::close(fake);

  EXPECT_EQ(stats.tasks_completed, kTasks);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  EXPECT_EQ(real.results_relayed(), kTasks);
  EXPECT_EQ(m.counter("fed.idle_closes").value(), 1);
  EXPECT_EQ(stats.requeued_groups, 1);
  // The fake closed before the bye (lost); the real foreman after it.
  EXPECT_EQ(stats.foremen_lost, 1);
  EXPECT_EQ(stats.foremen_departed, 1);
}

TEST(Federation, ListenersRefuseConnectsOnceTheRunReturns) {
  // Both tiers close their listener with the loop, once the last link is
  // gone: a peer that recycles its connection at the very end is refused
  // instead of hanging in the backlog of a master that no longer serves it.
  net::EventLoop loop;
  RootMaster root(loop, {});
  TaskGroup group;
  group.name = "one";
  group.tasks.push_back(echo_task(800));
  root.submit(std::move(group));
  ForemanConfig fc;
  fc.name = "fl";
  fc.root_port = root.port();
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wl");

  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.foremen_lost, 0) << "a clean bye counted as a loss";
  for (const uint16_t port : {root.port(), foreman.worker_port()}) {
    const int fd = net::connect_tcp("127.0.0.1", port);
    EXPECT_LT(fd, 0) << "port " << port << " still accepts after the run";
    if (fd >= 0) ::close(fd);
  }
}

TEST(Federation, ForemanLeavesARootThatStaysSilent) {
  // A "root" that accepts the hello and then never says a word. The
  // foreman follows a worker's silence rule, bounded by its shard's own
  // idle_timeout: it closes the link, and with no reconnect budget left it
  // gives up and run() returns.
  const int lfd = net::listen_tcp(0);
  ASSERT_GE(lfd, 0);
  ForemanConfig fc;
  fc.name = "fsilent";
  fc.root_port = net::local_port(lfd);
  fc.service.idle_timeout = 0.5;
  fc.max_reconnect_attempts = 0;
  Foreman foreman(fc);
  std::atomic<bool> returned{false};
  std::thread ft([&] {
    foreman.run();
    returned.store(true);
  });

  const auto start = std::chrono::steady_clock::now();
  const auto waited = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  int peer = -1;
  while (!returned.load() && waited() < 3.0) {
    if (peer < 0) peer = ::accept(lfd, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const bool left = returned.load();
  if (!left) foreman.stop();  // bound the wait at the parent's behaviour
  ft.join();

  EXPECT_GE(peer, 0) << "the foreman never connected";
  EXPECT_TRUE(left) << "the foreman held a silent root's link for 3 s";
  EXPECT_TRUE(foreman.gave_up());
  if (peer >= 0) ::close(peer);
  ::close(lfd);
}

// --- the files a foreman holds ------------------------------------------------

TEST(Federation, StatsCountTheCacheableBytesAForemanHolds) {
  // kStats reports the files a foreman holds. A cacheable input stays for
  // the life of the link; a one-shot input goes once its batch is
  // submitted. With no worker yet, the tasks wait at the foreman, and every
  // frame that counts them pending reads the cacheable bytes alone.
  constexpr size_t kShared = 4096, kOneShot = 1024;
  constexpr int kTasks = 3;
  obs::Metrics m("held.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fh";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.stats_interval = 0.01;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  await_foremen(loop, root, 1);

  TaskGroup g;
  g.name = "held";
  for (int i = 0; i < kTasks; ++i) {
    wq::TaskMessage t = echo_task(600 + static_cast<uint64_t>(i));
    t.infiles.push_back({"shared.bin", static_cast<int64_t>(kShared), true});
    const std::string own = "own-" + std::to_string(i) + ".bin";
    t.infiles.push_back({own, static_cast<int64_t>(kOneShot), false});
    g.files.emplace(own, serde::Bytes(kOneShot, static_cast<uint8_t>(i + 1)));
    g.tasks.push_back(std::move(t));
  }
  g.files.emplace("shared.bin", serde::Bytes(kShared, 0x33));
  root.submit(std::move(g));

  auto shard = [&] {
    const std::map<std::string, wq::StatsMessage> all = root.shard_stats();
    const auto it = all.find("fh");
    return it == all.end() ? wq::StatsMessage{} : it->second;
  };
  EXPECT_TRUE(run_until(loop, [&] { return shard().pending == kTasks; }, 10.0))
      << "no kStats frame counted the batch";
  const wq::StatsMessage held = shard();
  EXPECT_EQ(held.cache_files, 1);
  EXPECT_EQ(held.cache_bytes, static_cast<int64_t>(kShared));

  EchoWorker w(foreman.worker_port(), "wh");
  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(m.counter("foreman.files_cached").value(), 1 + kTasks);
  EXPECT_EQ(root.statusz_value().at("staged_bytes").as_int(), 0);
  EXPECT_EQ(foreman.service().statusz_value().at("staged_bytes").as_int(), 0);
}

TEST(Federation, GroupsNamingOneArchiveHoldOneCopyPerTier) {
  // Four groups of four echo tasks name one 1 MiB cacheable archive, and
  // every group's file set is built from the same shared buffer. With no
  // worker yet, all sixteen tasks wait at the foreman. The root holds the
  // archive once for its four groups, and the foreman once for the sixteen
  // tasks it relayed: each shares the buffer its uplink received instead of
  // taking a copy of its own (16 MiB).
  constexpr int64_t kArchive = 1 << 20;
  constexpr int kGroups = 4, kPerGroup = 4;
  obs::Metrics m("copies.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  rc.groups_per_foreman = kGroups;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fc";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.stats_interval = 0.01;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  await_foremen(loop, root, 1);

  const auto archive = std::make_shared<const serde::Bytes>(kArchive, 0x7e);
  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "env" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      t.infiles.push_back({"env.tar", kArchive, true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace("env.tar", archive);
    root.submit(std::move(group));
  }
  auto shard = [&] {
    const std::map<std::string, wq::StatsMessage> all = root.shard_stats();
    const auto it = all.find("fc");
    return it == all.end() ? wq::StatsMessage{} : it->second;
  };
  EXPECT_TRUE(
      run_until(loop, [&] { return shard().pending == kGroups * kPerGroup; }, 10.0))
      << "no kStats frame counted every task";
  EXPECT_EQ(root.statusz_value().at("staged_bytes").as_int(), kArchive);
  // This test's own reference, and one per group.
  EXPECT_EQ(archive.use_count(), 1 + kGroups);

  foreman.stop();
  ft.join();
  EXPECT_EQ(foreman.service().statusz_value().at("staged_bytes").as_int(), kArchive);
}

TEST(Federation, ForemanHoldsNoModuleOfAPythonTaskItHandedOn) {
  // make_python_task ships each task's module one-shot: a foreman drops it
  // once the task's batch is submitted, so kStats counts no file held even
  // while every task still waits there for a worker.
  constexpr int kTasks = 5;
  obs::Metrics m("py.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fp";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.stats_interval = 0.01;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  await_foremen(loop, root, 1);

  TaskGroup g;
  g.name = "py";
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    auto [task, files] = wq::make_python_task(
        700 + static_cast<uint64_t>(i), "py", "def f(x):\n    return x\n", "f",
        serde::Value(std::move(args)), alloc::Resources{1.0, 512e6, 1e9});
    g.tasks.push_back(std::move(task));
    g.files.merge(files);
  }
  root.submit(std::move(g));

  auto shard = [&] {
    const std::map<std::string, wq::StatsMessage> all = root.shard_stats();
    const auto it = all.find("fp");
    return it == all.end() ? wq::StatsMessage{} : it->second;
  };
  EXPECT_TRUE(run_until(loop, [&] { return shard().pending == kTasks; }, 10.0))
      << "no kStats frame counted the batch";
  EXPECT_EQ(shard().cache_files, 0);
  EXPECT_EQ(shard().cache_bytes, 0);

  EchoWorker w(foreman.worker_port(), "wp");
  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();
  EXPECT_EQ(stats.tasks_completed, kTasks);
}

TEST(Federation, DroppedFileNamedAgainResetsTheLinkAndEveryTaskCompletesOnce) {
  // Groups alternate two 4 KiB cacheable files through a foreman that may
  // hold 6 KiB, one group in flight at a time. The second file puts it past
  // the bound with the first group done, so it drops the first file; the
  // third group names that file again, so the foreman resets its uplink
  // before running any of the group's tasks. The root requeues the group
  // and re-ships its file on the fresh link, which starts empty.
  constexpr size_t kFile = 4096;
  constexpr int kGroups = 6, kPerGroup = 3;
  constexpr int kTasks = kGroups * kPerGroup;
  obs::Metrics m("bound.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  rc.groups_per_foreman = 1;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fb";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.cache_capacity_bytes = 6 << 10;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wb");
  await_foremen(loop, root, 1);

  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "alt" + std::to_string(g);
    const std::string name = g % 2 == 0 ? "a.bin" : "b.bin";
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      t.infiles.push_back({name, static_cast<int64_t>(kFile), true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace(name, serde::Bytes(kFile, g % 2 == 0 ? 0xa1 : 0xb2));
    root.submit(std::move(group));
  }
  std::map<uint64_t, int> events;
  std::map<uint64_t, wq::ResultMessage> results;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results[r.task_id] = r;
  });
  const RootStats stats = root.run_until_complete(60.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.tasks_completed, kTasks);
  // Each reset closes the link before the bye: the root counts a loss.
  EXPECT_GE(m.counter("foreman.files_dropped").value(), 1);
  EXPECT_GE(m.counter("foreman.cache_resets").value(), 1);
  EXPECT_EQ(stats.foremen_lost, m.counter("foreman.cache_resets").value());
  EXPECT_GE(m.counter("foreman.connects").value(), 2);
  EXPECT_GE(stats.requeued_groups, 1);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  for (const auto& [id, r] : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, (serde::Bytes{'p', 'o', 'n', 'g'}));
  }
  EXPECT_EQ(foreman.service().statusz_value().at("staged_bytes").as_int(), 0);
}

TEST(Federation, FilesOfPendingTasksStayPastTheBoundWithoutAReset) {
  // Three groups wait at a foreman with no worker yet: two name 4 KiB file
  // A and one names B, which puts it past its 6 KiB bound. A file that a
  // task pending there names is not dropped, so the third group finds A
  // and the link stays up for as long as the tasks wait, here longer than
  // the foreman's whole reconnect budget. A reset would requeue the groups
  // and ship their files again, past the bound once more.
  constexpr size_t kFile = 4096;
  constexpr int kPerGroup = 2;
  const char* const kNames[] = {"a.bin", "b.bin", "a.bin"};
  constexpr int kTasks = 3 * kPerGroup;
  obs::Metrics m("pending.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  rc.groups_per_foreman = 3;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fp";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.stats_interval = 0.01;
  fc.cache_capacity_bytes = 6 << 10;
  fc.max_reconnect_attempts = 2;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  await_foremen(loop, root, 1);

  uint64_t next_id = 1;
  for (const char* name : kNames) {
    TaskGroup group;
    group.name = std::string("pending-") + name;
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      t.infiles.push_back({name, static_cast<int64_t>(kFile), true});
      group.tasks.push_back(std::move(t));
    }
    group.files.emplace(name, serde::Bytes(kFile, static_cast<uint8_t>(name[0])));
    root.submit(std::move(group));
  }
  auto shard = [&] {
    const std::map<std::string, wq::StatsMessage> all = root.shard_stats();
    const auto it = all.find("fp");
    return it == all.end() ? wq::StatsMessage{} : it->second;
  };
  EXPECT_TRUE(run_until(loop, [&] { return shard().pending == kTasks; }, 10.0))
      << "the groups never all reached the foreman";
  // A budget of two attempts lasts about 0.1 s of back-to-back resets.
  run_until(loop, [] { return false; }, 0.5);
  EXPECT_EQ(m.counter("foreman.connects").value(), 1);
  const wq::StatsMessage held = shard();
  EXPECT_EQ(held.cache_files, 2);
  EXPECT_EQ(held.cache_bytes, static_cast<int64_t>(2 * kFile));

  EchoWorker w(foreman.worker_port(), "wp");
  std::map<uint64_t, int> events;
  root.set_on_result([&](const wq::ResultMessage& r) { events[r.task_id]++; });
  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();
  EXPECT_FALSE(foreman.gave_up());
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.foremen_lost, 0);
  EXPECT_EQ(m.counter("foreman.cache_resets").value(), 0);
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
}

TEST(Federation, FilesNoTaskNamesAgainAreDroppedWithoutAReset) {
  // py-short's traffic: every task names its own cacheable module, which
  // no later task names again. A foreman past its 6 KiB bound drops the
  // modules of completed tasks and keeps its link. The root sends one task
  // per batch frame, so a group's second module arrives ahead of the frame
  // that names it and must survive the drop that follows the first frame.
  constexpr size_t kModule = 4096;
  constexpr int kGroups = 6, kPerGroup = 2;
  constexpr int kTasks = kGroups * kPerGroup;
  obs::Metrics m("unique.");
  net::EventLoop loop;
  RootMasterConfig rc;
  rc.metrics = &m;
  rc.groups_per_foreman = 1;
  rc.max_batch = 1;
  RootMaster root(loop, rc);
  ForemanConfig fc;
  fc.name = "fu";
  fc.root_port = root.port();
  fc.metrics = &m;
  fc.cache_capacity_bytes = 6 << 10;
  Foreman foreman(fc);
  std::thread ft([&] { foreman.run(); });
  EchoWorker w(foreman.worker_port(), "wu");
  await_foremen(loop, root, 1);

  uint64_t next_id = 1;
  for (int g = 0; g < kGroups; ++g) {
    TaskGroup group;
    group.name = "unique" + std::to_string(g);
    for (int i = 0; i < kPerGroup; ++i) {
      wq::TaskMessage t = echo_task(next_id++);
      const std::string module = "fn-" + std::to_string(t.task_id) + ".py";
      t.infiles.push_back({module, static_cast<int64_t>(kModule), true});
      group.files.emplace(module, serde::Bytes(kModule, static_cast<uint8_t>(t.task_id)));
      group.tasks.push_back(std::move(t));
    }
    root.submit(std::move(group));
  }
  std::map<uint64_t, int> events;
  std::map<uint64_t, wq::ResultMessage> results;
  root.set_on_result([&](const wq::ResultMessage& r) {
    events[r.task_id]++;
    results[r.task_id] = r;
  });
  const RootStats stats = root.run_until_complete(30.0);
  ft.join();
  w.join();

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(stats.foremen_lost, 0);
  EXPECT_EQ(m.counter("foreman.connects").value(), 1);
  EXPECT_EQ(m.counter("foreman.cache_resets").value(), 0);
  // Each group's first frame finds every earlier group done.
  EXPECT_GE(m.counter("foreman.files_dropped").value(), kPerGroup * (kGroups - 1));
  ASSERT_EQ(events.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : events) EXPECT_EQ(n, 1) << "task " << id;
  for (const auto& [id, r] : results) {
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, (serde::Bytes{'p', 'o', 'n', 'g'}));
  }
}

}  // namespace
}  // namespace lfm::fed
