// Tests for the Work Queue master: resource packing, cache affinity,
// exhaustion retries, and the four strategies end-to-end on small workloads.
#include <gtest/gtest.h>

#include "apps/workload.h"
#include "wq/master.h"

namespace lfm::wq {
namespace {

using alloc::LabelerConfig;
using alloc::Resources;
using alloc::Strategy;

LabelerConfig node_config(double cores, double mem, double disk) {
  LabelerConfig c;
  c.whole_node = Resources{cores, mem, disk};
  c.guess = Resources{1.0, 1.5e9, 2e9};
  return c;
}

TaskSpec simple_task(uint64_t id, double runtime, double mem = 100e6,
                     double disk = 500e6) {
  TaskSpec t;
  t.id = id;
  t.category = "uniform";
  t.exec_seconds = runtime;
  t.true_cores = 1.0;
  t.true_peak = Resources{1.0, mem, disk};
  return t;
}

TEST(Master, SingleTaskCompletes) {
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(node_config(8, 8e9, 16e9));
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  master.submit(simple_task(1, 10.0));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.tasks_failed, 0);
  EXPECT_GE(stats.makespan, 10.0);
  ASSERT_EQ(master.records().size(), 1u);
  EXPECT_EQ(master.records()[0].state, TaskState::kDone);
  EXPECT_GT(master.records()[0].finish_time, 0.0);
}

TEST(Master, UnmanagedRunsOneTaskPerWorker) {
  // 4 tasks of 10 s on one 8-core worker: Unmanaged serializes them.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  cfg.strategy = Strategy::kUnmanaged;
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 4; ++i) tasks.push_back(simple_task(i, 10.0));
  const auto result = run_scenario(Strategy::kUnmanaged, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  EXPECT_EQ(result.stats.tasks_completed, 4);
  EXPECT_GE(result.stats.makespan, 40.0);
}

TEST(Master, OraclePacksTasksConcurrently) {
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 8; ++i) tasks.push_back(simple_task(i, 10.0));
  const auto result = run_scenario(Strategy::kOracle, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  EXPECT_EQ(result.stats.tasks_completed, 8);
  // 8 one-core tasks on an 8-core node run together: ~10 s, not 80.
  EXPECT_LT(result.stats.makespan, 15.0);
  EXPECT_EQ(result.stats.exhaustion_retries, 0);
}

TEST(Master, GuessMemoryBoundLimitsPacking) {
  // Guess = 1.5 GB per task on an 8 GB node: only 5 run at once even though
  // 8 cores are free (the Fig 6 Guess-vs-Oracle gap).
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 16; ++i) tasks.push_back(simple_task(i, 10.0));
  const auto guess = run_scenario(Strategy::kGuess, cfg,
                                  {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  const auto oracle = run_scenario(Strategy::kOracle, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  EXPECT_GT(guess.stats.makespan, oracle.stats.makespan);
}

TEST(Master, ExhaustionRetriesAtWholeNode) {
  // A task needing 3 GB under a 1.5 GB Guess: first attempt exhausts, the
  // retry at whole-node succeeds.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  std::vector<TaskSpec> tasks = {simple_task(1, 10.0, 3e9)};
  const auto result = run_scenario(Strategy::kGuess, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  EXPECT_EQ(result.stats.tasks_completed, 1);
  EXPECT_EQ(result.stats.exhaustion_retries, 1);
}

TEST(Master, RepeatedExhaustionEventuallyFails) {
  // A task that cannot fit even the whole node fails after
  // retry.max_exhaustions.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  MasterConfig mc;
  mc.retry.max_exhaustions = 2;
  std::vector<TaskSpec> tasks = {simple_task(1, 5.0, 100e9)};  // 100 GB need
  const auto result = run_scenario(Strategy::kGuess, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks, {}, mc);
  EXPECT_EQ(result.stats.tasks_completed, 0);
  EXPECT_EQ(result.stats.tasks_failed, 1);
  EXPECT_GT(result.stats.exhaustion_retries, 0);
}

TEST(Master, AutoConvergesToLowRetries) {
  // Uniform workload under Auto: warmup at whole node, then tight packing
  // with few retries (<1% in the paper's HEP run; we allow some slack).
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  cfg.warmup_samples = 3;
  Rng rng(3);
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 200; ++i) {
    tasks.push_back(simple_task(i, rng.uniform(5.0, 10.0),
                                rng.uniform(80e6, 110e6), rng.uniform(700e6, 1000e6)));
  }
  const auto result = run_scenario(Strategy::kAuto, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0},
                                    {Resources{8, 8e9, 16e9}, 0.0}},
                                   tasks);
  EXPECT_EQ(result.stats.tasks_completed, 200);
  EXPECT_LT(result.stats.exhaustion_retries, 10);
}

TEST(Master, StrategyOrderingOnUniformWorkload) {
  // The headline Figs 6-9 ordering: Oracle <= Auto < Guess-ish < Unmanaged.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  Rng rng(7);
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 100; ++i) {
    tasks.push_back(simple_task(i, rng.uniform(5.0, 10.0),
                                rng.uniform(80e6, 110e6), rng.uniform(700e6, 900e6)));
  }
  std::vector<WorkerSpec> workers(4, {Resources{8, 8e9, 16e9}, 0.0});
  const double oracle =
      run_scenario(Strategy::kOracle, cfg, workers, tasks).stats.makespan;
  const double auto_t =
      run_scenario(Strategy::kAuto, cfg, workers, tasks).stats.makespan;
  const double unmanaged =
      run_scenario(Strategy::kUnmanaged, cfg, workers, tasks).stats.makespan;
  EXPECT_LE(oracle, auto_t * 1.05);
  EXPECT_LT(auto_t, unmanaged);
  EXPECT_GT(unmanaged, oracle * 3.0);  // several-fold, per the abstract
}

TEST(Master, CacheAffinityAvoidsRetransfers) {
  // Tasks sharing a big cacheable input: after warm-up, transfers stop.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  sim::NetworkParams np;
  np.bandwidth = 100e6;
  np.per_flow_bandwidth = 100e6;
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 20; ++i) {
    TaskSpec t = simple_task(i, 5.0);
    t.inputs.push_back(apps::environment_file("env.tar.gz", 200LL * 1000 * 1000, 2.0));
    tasks.push_back(std::move(t));
  }
  const auto result = run_scenario(Strategy::kOracle, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0},
                                    {Resources{8, 8e9, 16e9}, 0.0}},
                                   tasks, np);
  EXPECT_EQ(result.stats.tasks_completed, 20);
  // The environment transfers at most once per worker.
  EXPECT_LE(result.stats.transferred_bytes, 2LL * 200 * 1000 * 1000 + 1);
  EXPECT_GE(result.stats.cache_hits, 18);
}

TEST(Master, WorkersBecomeReadyOverTime) {
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 100.0});  // pilot connects late
  master.submit(simple_task(1, 5.0));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_GE(master.records()[0].start_time, 100.0);
}

TEST(Master, TaskLargerThanAnyWorkerNeverDispatches) {
  LabelerConfig cfg = node_config(4, 4e9, 8e9);
  cfg.strategy = alloc::Strategy::kOracle;
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  labeler.set_oracle("uniform", Resources{16.0, 1e9, 1e9});  // 16 cores needed
  Master master(sim, net, labeler);
  master.add_worker({Resources{4, 4e9, 8e9}, 0.0});
  master.submit(simple_task(1, 5.0));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 0);  // stays queued forever; sim drains
}

TEST(Master, UtilizationAccounting) {
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 8; ++i) tasks.push_back(simple_task(i, 10.0));
  const auto result = run_scenario(Strategy::kOracle, cfg,
                                   {{Resources{8, 8e9, 16e9}, 0.0}}, tasks);
  EXPECT_GT(result.stats.utilization(), 0.5);
  EXPECT_LE(result.stats.utilization(), 1.0 + 1e-9);
}

TEST(Master, CompletionCallbackFires) {
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(node_config(8, 8e9, 16e9));
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  int callbacks = 0;
  master.set_on_complete([&](const TaskRecord& r) {
    ++callbacks;
    EXPECT_EQ(r.state, TaskState::kDone);
  });
  master.submit(simple_task(1, 1.0));
  master.submit(simple_task(2, 1.0));
  master.run();
  EXPECT_EQ(callbacks, 2);
}

TEST(Master, OutputTransferAccounted) {
  sim::Simulation sim;
  sim::NetworkParams np;
  np.bandwidth = 50e6;
  np.per_flow_bandwidth = 50e6;
  sim::Network net(sim, np);
  alloc::Labeler labeler(node_config(8, 8e9, 16e9));
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  TaskSpec t = simple_task(1, 1.0);
  t.output_bytes = 50LL * 1000 * 1000;
  master.submit(std::move(t));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_GE(stats.makespan, 2.0);  // 1 s run + 1 s output transfer
  EXPECT_EQ(stats.transferred_bytes, 50LL * 1000 * 1000);
}

TEST(Master, FewerCoresStretchRuntime) {
  // A 4-way-parallel task granted 1 core takes ~4x longer.
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  cfg.strategy = alloc::Strategy::kOracle;
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  labeler.set_oracle("wide", Resources{1.0, 1e9, 1e9});  // deliberately narrow
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  TaskSpec t;
  t.id = 1;
  t.category = "wide";
  t.exec_seconds = 10.0;
  t.true_cores = 4.0;
  t.true_peak = Resources{4.0, 500e6, 500e6};
  master.submit(std::move(t));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_GE(stats.makespan, 39.0);  // 10 s * 4/1
}


TEST(Master, CacheEvictionLru) {
  // Worker cache holds two 400 MB files (disk 2 GB, cache_fraction 0.5 ->
  // 1 GB). Three apps round-robin: the LRU environment is evicted and
  // re-fetched, counted in cache_evictions.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);
  std::vector<TaskSpec> tasks;
  uint64_t id = 0;
  for (int round = 0; round < 4; ++round) {
    for (int app = 0; app < 3; ++app) {
      TaskSpec t = simple_task(++id, 5.0, 100e6, 0.2e9);
      t.category = "app";
      t.inputs.push_back(
          apps::environment_file("env-" + std::to_string(app), 400LL * 1000 * 1000, 0.1));
      tasks.push_back(std::move(t));
    }
  }
  // One single-slot worker so every task runs alone and apps alternate.
  // Affinity OFF: with it on, the affinity pass batches same-app tasks and
  // avoids the thrash (verified by CacheAffinityPreventsThrash below).
  LabelerConfig one = cfg;
  one.guess = Resources{8.0, 8e9, 0.5e9};
  MasterConfig mc;
  mc.cache_affinity = false;
  const auto result = run_scenario(Strategy::kGuess, one,
                                   {{Resources{8, 8e9, 2e9}, 0.0}}, tasks, {}, mc);
  EXPECT_EQ(result.stats.tasks_completed, 12);
  EXPECT_GE(result.stats.cache_evictions, 5);
  // Far more bytes than the 3-env minimum: evictions force re-transfers.
  EXPECT_GT(result.stats.transferred_bytes, 6LL * 400 * 1000 * 1000);

  // Same workload with affinity ON: the scheduler batches per application,
  // paying (nearly) the minimum transfer volume.
  const auto affine = run_scenario(Strategy::kGuess, one,
                                   {{Resources{8, 8e9, 2e9}, 0.0}}, tasks);
  EXPECT_EQ(affine.stats.tasks_completed, 12);
  EXPECT_LT(affine.stats.transferred_bytes, result.stats.transferred_bytes / 2);
}

TEST(Master, OversizedFileStreamsThrough) {
  // A cacheable input larger than the cache never enters it; both tasks
  // pay the transfer.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);  // cache capacity 1 GB
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 2; ++i) {
    TaskSpec t = simple_task(i, 2.0, 100e6, 0.2e9);
    t.inputs.push_back(
        apps::environment_file("huge-ref.tar", 1500LL * 1000 * 1000, 0.0));
    tasks.push_back(std::move(t));
  }
  const auto result = run_scenario(Strategy::kOracle, cfg,
                                   {{Resources{8, 8e9, 2e9}, 0.0}}, tasks);
  EXPECT_EQ(result.stats.tasks_completed, 2);
  EXPECT_EQ(result.stats.cache_hits, 0);
  EXPECT_EQ(result.stats.transferred_bytes, 2LL * 1500 * 1000 * 1000);
}

TEST(Master, CrashDuringTransferKeepsCountsConsistent) {
  // Crash a worker while input transfers to it are still in flight: the
  // in-flight attempts requeue exactly once. The master throws if the
  // running-task accounting ever double-decrements, and a periodic probe
  // checks the public counters stay sane throughout.
  sim::Simulation sim;
  sim::NetworkParams np;
  np.bandwidth = 10e6;  // 100 MB input -> 10 s transfer
  np.per_flow_bandwidth = 10e6;
  sim::Network net(sim, np);
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{4.0, 1e9, 2e9};  // two tasks per worker
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  for (uint64_t i = 1; i <= 4; ++i) {
    TaskSpec t = simple_task(i, 5.0);
    InputFile data;
    data.name = "data-" + std::to_string(i);
    data.size_bytes = 100LL * 1000 * 1000;
    t.inputs.push_back(std::move(data));
    master.submit(std::move(t));
  }
  std::function<void()> probe = [&] {
    EXPECT_GE(master.running_count(), 0);
    EXPECT_LE(master.running_count(), 4);
    EXPECT_GE(master.ready_count(), 0);
    if (sim.now() < 60.0) sim.schedule(1.0, probe);
  };
  sim.schedule(0.5, probe);
  sim.schedule(2.0, [&] { master.crash_worker(0); });  // mid-transfer
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 4);
  EXPECT_EQ(master.running_count(), 0);
  EXPECT_EQ(master.ready_count(), 0);
}

TEST(Master, CrashDuringReturnKeepsCountsConsistent) {
  // Crash while a finished task's output is returning: the success was not
  // yet recorded, so the task reruns and completes exactly once.
  sim::Simulation sim;
  sim::NetworkParams np;
  np.bandwidth = 10e6;  // 100 MB output -> 10 s return
  np.per_flow_bandwidth = 10e6;
  sim::Network net(sim, np);
  LabelerConfig cfg = node_config(8, 8e9, 16e9);
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{8.0, 1e9, 2e9};  // serialize: one task per worker
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  for (uint64_t i = 1; i <= 2; ++i) {
    TaskSpec t = simple_task(i, 5.0);
    t.output_bytes = 100LL * 1000 * 1000;
    master.submit(std::move(t));
  }
  // t in (5, 15): worker 0's task is in kReturning.
  sim.schedule(6.0, [&] { master.crash_worker(0); });
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 2);  // counted once despite the rerun
  EXPECT_EQ(master.running_count(), 0);
  EXPECT_EQ(master.ready_count(), 0);
  for (const auto& rec : master.records()) {
    EXPECT_EQ(rec.state, TaskState::kDone);
  }
}

TEST(Master, CancelThenCrashDuringTransferCountsOnce) {
  // A task cancelled mid-transfer whose worker then crashes must be
  // finalized exactly once (through the crash path), with no residual
  // running or ready entries.
  sim::Simulation sim;
  sim::NetworkParams np;
  np.bandwidth = 10e6;
  np.per_flow_bandwidth = 10e6;
  sim::Network net(sim, np);
  alloc::Labeler labeler(node_config(8, 8e9, 16e9));
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  TaskSpec t = simple_task(1, 5.0);
  InputFile data;
  data.name = "data";
  data.size_bytes = 100LL * 1000 * 1000;
  t.inputs.push_back(std::move(data));
  master.submit(std::move(t));
  sim.schedule(1.0, [&] { EXPECT_TRUE(master.cancel_task(1)); });
  sim.schedule(2.0, [&] { master.crash_worker(0); });
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_cancelled, 1);
  EXPECT_EQ(stats.tasks_completed, 0);
  EXPECT_EQ(master.running_count(), 0);
  EXPECT_EQ(master.ready_count(), 0);
  EXPECT_EQ(master.records()[0].state, TaskState::kDone);
}

TEST(Master, LruEvictionOrderIsLeastRecentlyUsed) {
  // Cache holds two 400 MB envs (1 GB capacity). Access pattern A B C B A:
  // C evicts A (the LRU), B's reuse refreshes it, so the final A evicts C —
  // leaving {B, A} cached. Affinity off so dispatch order stays FIFO, and a
  // whole-node guess serializes the tasks.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{8.0, 1e9, 0.5e9};
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  MasterConfig mc;
  mc.cache_affinity = false;
  Master master(sim, net, labeler, mc);
  master.add_worker({Resources{8, 8e9, 2e9}, 0.0});
  const char* envs[] = {"env-A", "env-B", "env-C", "env-B", "env-A"};
  for (uint64_t i = 0; i < 5; ++i) {
    TaskSpec t = simple_task(i + 1, 2.0, 100e6, 0.1e9);
    t.inputs.push_back(
        apps::environment_file(envs[i], 400LL * 1000 * 1000, 0.0));
    master.submit(std::move(t));
  }
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 5);
  EXPECT_EQ(stats.cache_hits, 1);       // only the B reuse hits
  EXPECT_EQ(stats.cache_evictions, 2);  // A evicted for C, C evicted for A
  EXPECT_EQ(stats.transferred_bytes, 4LL * 400 * 1000 * 1000);
  EXPECT_TRUE(master.worker_caches(0, "env-A"));
  EXPECT_TRUE(master.worker_caches(0, "env-B"));
  EXPECT_FALSE(master.worker_caches(0, "env-C"));
  EXPECT_EQ(master.worker_cache_bytes(0), 2LL * 400 * 1000 * 1000);
}

TEST(Master, PinsBalanceAcrossExhaustionRetries) {
  // A task whose first attempt exhausts memory pins its environment twice
  // (once per attempt) and must unpin it twice; if a pin leaked, the later
  // eviction for env-2 would refuse and the file would stream through.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);  // cache capacity 1 GB
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{8.0, 1.5e9, 2e9};  // whole-node cores: serialized
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 2e9}, 0.0});
  TaskSpec heavy = simple_task(1, 5.0, 3e9, 0.2e9);  // exhausts the 1.5 GB guess
  heavy.inputs.push_back(
      apps::environment_file("env-1", 600LL * 1000 * 1000, 0.0));
  master.submit(std::move(heavy));
  TaskSpec follower = simple_task(2, 2.0, 100e6, 0.2e9);
  follower.inputs.push_back(
      apps::environment_file("env-2", 600LL * 1000 * 1000, 0.0));
  master.submit(std::move(follower));
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 2);
  EXPECT_EQ(stats.exhaustion_retries, 1);
  EXPECT_GE(stats.cache_hits, 1);       // the retry reuses env-1
  EXPECT_EQ(stats.cache_evictions, 1);  // env-1 evictable again -> evicted
  EXPECT_TRUE(master.worker_caches(0, "env-2"));
  EXPECT_FALSE(master.worker_caches(0, "env-1"));
}

TEST(Master, PinsBalanceAcrossCancellation) {
  // Cancelling a running task must unpin its inputs when the attempt is
  // discarded, leaving the environment evictable for later tasks.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);  // cache capacity 1 GB
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{8.0, 1e9, 2e9};  // serialized
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 2e9}, 0.0});
  TaskSpec victim = simple_task(1, 50.0, 100e6, 0.2e9);
  victim.inputs.push_back(
      apps::environment_file("env-1", 600LL * 1000 * 1000, 0.0));
  master.submit(std::move(victim));
  TaskSpec follower = simple_task(2, 2.0, 100e6, 0.2e9);
  follower.inputs.push_back(
      apps::environment_file("env-2", 600LL * 1000 * 1000, 0.0));
  master.submit(std::move(follower));
  sim.schedule(1.0, [&] { EXPECT_TRUE(master.cancel_task(1)); });
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.tasks_cancelled, 1);
  EXPECT_EQ(stats.cache_evictions, 1);  // env-1 unpinned by the cancel
  EXPECT_TRUE(master.worker_caches(0, "env-2"));
  EXPECT_FALSE(master.worker_caches(0, "env-1"));
}

TEST(Master, MakeCacheRoomRefusesWhenEverythingPinned) {
  // Two long-running tasks pin the whole 1 GB cache. A third task arriving
  // while they run cannot cache its environment (everything pinned -> the
  // file streams through); once the pins drop, a later task with the same
  // environment caches it by evicting the finished tasks' files.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);  // cache capacity 1 GB
  cfg.strategy = Strategy::kGuess;
  cfg.guess = Resources{2.0, 1e9, 0.1e9};  // three concurrent on 8 cores
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(cfg);
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 2e9}, 0.0});
  for (uint64_t i = 1; i <= 2; ++i) {
    TaskSpec t = simple_task(i, 100.0, 100e6, 0.05e9);
    t.inputs.push_back(apps::environment_file("env-" + std::to_string(i),
                                              500LL * 1000 * 1000, 0.0));
    master.submit(std::move(t));
  }
  TaskSpec streamer = simple_task(3, 5.0, 100e6, 0.05e9);
  streamer.inputs.push_back(
      apps::environment_file("env-3", 500LL * 1000 * 1000, 0.0));
  master.submit(std::move(streamer));
  sim.schedule(10.0, [&] {
    // Both pinned envs plus the streamed task: env-3 must not be cached.
    EXPECT_TRUE(master.worker_caches(0, "env-1"));
    EXPECT_TRUE(master.worker_caches(0, "env-2"));
    EXPECT_FALSE(master.worker_caches(0, "env-3"));
    EXPECT_EQ(master.worker_cache_bytes(0), 2LL * 500 * 1000 * 1000);
  });
  sim.schedule(150.0, [&] {  // after everything finished: pins are gone
    TaskSpec again = simple_task(4, 5.0, 100e6, 0.05e9);
    again.inputs.push_back(
        apps::environment_file("env-3", 500LL * 1000 * 1000, 0.0));
    master.submit(std::move(again));
  });
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 4);
  EXPECT_GE(stats.cache_evictions, 1);  // room made once the pins dropped
  EXPECT_TRUE(master.worker_caches(0, "env-3"));
  // env-3 transferred twice: streamed while pinned, cached afterwards.
  EXPECT_EQ(stats.transferred_bytes, 4LL * 500 * 1000 * 1000);
}

TEST(Master, PinnedEntriesSurviveCachePressure) {
  // Two concurrent tasks pin two different 500 MB envs in a 1 GB cache;
  // a third env cannot evict them while they run, so the third task
  // streams through — no eviction of pinned entries ever happens.
  LabelerConfig cfg = node_config(8, 8e9, 2e9);
  cfg.guess = Resources{1.0, 1e9, 0.1e9};
  std::vector<TaskSpec> tasks;
  for (uint64_t i = 1; i <= 3; ++i) {
    TaskSpec t = simple_task(i, 10.0, 100e6, 0.05e9);
    t.inputs.push_back(apps::environment_file("env-" + std::to_string(i),
                                              500LL * 1000 * 1000, 0.0));
    tasks.push_back(std::move(t));
  }
  const auto result = run_scenario(Strategy::kGuess, cfg,
                                   {{Resources{8, 8e9, 2e9}, 0.0}}, tasks);
  EXPECT_EQ(result.stats.tasks_completed, 3);
}

TEST(Master, CrashWorkerOutOfRangeIdIsLoggedNoOp) {
  // Regression: crash_worker indexed workers_ without a bounds check, so an
  // out-of-range id (e.g. from a miscomputed fault selector) was undefined
  // behaviour. It must be a logged no-op that perturbs nothing.
  sim::Simulation sim;
  sim::Network net(sim, {});
  alloc::Labeler labeler(node_config(8, 8e9, 16e9));
  Master master(sim, net, labeler);
  master.add_worker({Resources{8, 8e9, 16e9}, 0.0});
  master.submit(simple_task(1, 10.0));
  sim.schedule(2.0, [&] {
    master.crash_worker(-1);
    master.crash_worker(1);  // == pool size
    master.crash_worker(1000);
  });
  const MasterStats stats = master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(master.worker_crashes(), 0);
  EXPECT_EQ(master.live_worker_count(), 1);
}

}  // namespace
}  // namespace lfm::wq
