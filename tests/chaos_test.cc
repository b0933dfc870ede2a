// Tests for the chaos & recovery subsystem: retry/backoff policy semantics
// (including the seed-identical defaults), fault-plan determinism, journal
// records decoded from bytes, the Master's fault-sink primitives, crash-restart
// recovery equivalence, and a property-style fuzz sweep of seeded fault
// schedules asserting the soak invariants (exactly-once completion, drained
// accounting, labeler consistency).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

#include "alloc/labeler.h"
#include "chaos/injector.h"
#include "chaos/journal.h"
#include "chaos/plan.h"
#include "chaos/retry.h"
#include "serde/pickle.h"
#include "util/error.h"
#include "util/rng.h"
#include "wq/master.h"

namespace lfm::chaos {
namespace {

using alloc::LabelerConfig;
using alloc::Resources;
using alloc::Strategy;

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, DefaultsReplicateSeedBehaviour) {
  const RetryPolicy policy;  // all defaults
  // Exhaustions stop at the seed's limit of 10 retries and requeue
  // immediately (delay 0 takes the seed's direct-enqueue path).
  EXPECT_EQ(policy.max_exhaustions, 10);
  auto d = policy.decide(FailureKind::kExhaustion, 7, /*exhaustions=*/3,
                         /*total_failures=*/3);
  EXPECT_TRUE(d.retry);
  EXPECT_EQ(d.delay, 0.0);
  EXPECT_TRUE(policy.decide(FailureKind::kExhaustion, 7, 10, 10).retry);
  d = policy.decide(FailureKind::kExhaustion, 7, 11, 11);
  EXPECT_FALSE(d.retry);
  EXPECT_STREQ(d.reason, "exhaustion-limit");
  // Crash-lost and spuriously killed attempts retry unconditionally — the
  // seed never charged them against any limit.
  for (const auto kind : {FailureKind::kWorkerCrash, FailureKind::kSpuriousKill}) {
    d = policy.decide(kind, 7, /*exhaustions=*/0, /*total_failures=*/500);
    EXPECT_TRUE(d.retry);
    EXPECT_EQ(d.delay, 0.0);
  }
}

TEST(RetryPolicy, MaxExhaustionsSetsTheLimit) {
  RetryPolicy policy;
  policy.max_exhaustions = 2;
  EXPECT_TRUE(policy.decide(FailureKind::kExhaustion, 1, 2, 2).retry);
  EXPECT_FALSE(policy.decide(FailureKind::kExhaustion, 1, 3, 3).retry);
}

TEST(RetryPolicy, RetryBudgetCountsAllFailureKinds) {
  RetryPolicy policy;
  policy.retry_budget = 2;
  EXPECT_TRUE(policy.decide(FailureKind::kWorkerCrash, 1, 0, 2).retry);
  const auto d = policy.decide(FailureKind::kWorkerCrash, 1, 0, 3);
  EXPECT_FALSE(d.retry);
  EXPECT_STREQ(d.reason, "retry-budget");
}

TEST(RetryPolicy, ExponentialBackoffIsCapped) {
  RetryPolicy policy;
  policy.backoff_base = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max = 5.0;
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, 3), 5.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_delay(1, 9), 5.0);
}

TEST(RetryPolicy, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  policy.backoff_base = 10.0;
  policy.backoff_multiplier = 1.0;
  policy.jitter_fraction = 0.25;
  policy.jitter_seed = 42;
  for (uint64_t task = 1; task <= 50; ++task) {
    const double d = policy.backoff_delay(task, 0);
    EXPECT_GE(d, 10.0 * 0.75);
    EXPECT_LE(d, 10.0 * 1.25);
    // Pure function of (seed, task, failure index).
    EXPECT_DOUBLE_EQ(d, policy.backoff_delay(task, 0));
  }
  // Different tasks draw different jitter (the whole point of jitter: no
  // synchronized thundering-herd requeue).
  EXPECT_NE(policy.backoff_delay(1, 0), policy.backoff_delay(2, 0));
}

TEST(RetryPolicy, ExhaustionIsPermanentComparesNamedDimension) {
  const Resources node{16.0, 64e9, 128e9};
  EXPECT_TRUE(RetryPolicy::exhaustion_is_permanent({1.0, 64e9, 1e9}, node, "memory"));
  EXPECT_FALSE(RetryPolicy::exhaustion_is_permanent({1.0, 32e9, 1e9}, node, "memory"));
  EXPECT_TRUE(RetryPolicy::exhaustion_is_permanent({16.0, 1e9, 1e9}, node, "cores"));
  EXPECT_TRUE(RetryPolicy::exhaustion_is_permanent({1.0, 1e9, 128e9}, node, "disk"));
  EXPECT_FALSE(RetryPolicy::exhaustion_is_permanent({1.0, 1e9, 1e9}, node, "disk"));
  EXPECT_FALSE(RetryPolicy::exhaustion_is_permanent({16.0, 64e9, 128e9}, node, ""));
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

bool same_events(const std::vector<FaultEvent>& a, const std::vector<FaultEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
        a[i].target != b[i].target || a[i].magnitude != b[i].magnitude ||
        a[i].duration != b[i].duration) {
      return false;
    }
  }
  return true;
}

TEST(Plan, CompilationIsDeterministicInSeed) {
  const ChaosConfig campaign = default_campaign(300.0);
  const Plan a = compile_plan(7, campaign, 8);
  const Plan b = compile_plan(7, campaign, 8);
  ASSERT_GT(a.events.size(), 0u);
  EXPECT_TRUE(same_events(a.events, b.events));
  const Plan c = compile_plan(8, campaign, 8);
  EXPECT_FALSE(same_events(a.events, c.events));
}

TEST(Plan, EventsSortedWithinHorizonAndEveryClassFires) {
  const ChaosConfig campaign = default_campaign(300.0);
  int per_kind[6] = {0};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Plan plan = compile_plan(seed, campaign, 8);
    double prev = 0.0;
    for (const auto& e : plan.events) {
      EXPECT_GE(e.time, prev);
      EXPECT_LT(e.time, campaign.horizon);
      per_kind[static_cast<int>(e.kind)] += 1;
      prev = e.time;
    }
  }
  // Rare classes (partitions fire ~2x per horizon) may skip one seed's
  // exponential draw, but every class fires across a handful of seeds.
  for (int k = 0; k < 6; ++k) EXPECT_GT(per_kind[k], 0) << "fault class " << k;
}

TEST(Plan, ProtectedWorkersExemptFromCrashesAndStragglers) {
  const ChaosConfig campaign = default_campaign(600.0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Plan plan = compile_plan(seed, campaign, 6, /*protected_workers=*/2);
    for (const auto& e : plan.events) {
      if (e.kind == FaultKind::kWorkerCrash || e.kind == FaultKind::kStraggler) {
        EXPECT_GE(e.target, 2u);
        EXPECT_LT(e.target, 6u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

wq::TaskSpec sample_spec(uint64_t id) {
  wq::TaskSpec spec;
  spec.id = id;
  spec.category = "cat-a";
  spec.output_bytes = 12345;
  spec.exec_seconds = 7.5;
  spec.true_cores = 2.0;
  spec.true_peak = Resources{2.0, 3e9, 4e9};
  spec.peak_fraction = 0.5;
  wq::InputFile f;
  f.name = "env.tar.gz";
  f.size_bytes = 1000;
  f.cacheable = true;
  f.unpack_seconds = 0.25;
  spec.inputs.push_back(std::move(f));
  return spec;
}

Journal sample_journal() {
  Journal j;
  j.worker_added(0, Resources{8.0, 16e9, 32e9}, 0.5, 0.25);
  j.submitted(sample_spec(1), 0.0);
  j.dispatched(1, 0, 0, Resources{1.0, 2e9, 4e9}, 0.1);
  j.observed_exhaustion(1, "cat-a", Resources{1.0, 2e9, 4e9}, "memory", 1.0);
  j.dispatched(1, 0, 1, Resources{8.0, 16e9, 32e9}, 1.5);
  j.completed(1, Resources{1.0, 3e9, 1e9}, 9.0);
  j.submitted(sample_spec(2), 0.0);
  j.failed(2, "exhaustion-limit", 12.0);
  j.submitted(sample_spec(3), 0.0);
  j.cancelled(3, 13.0);
  j.worker_lost(0, 14.0);
  return j;
}

JournalEntry entry(EntryKind kind, double ts, uint64_t task) {
  JournalEntry e;
  e.kind = kind;
  e.ts = ts;
  e.task = task;
  return e;
}

// sample_journal()'s records, field by field.
std::vector<JournalEntry> sample_entries() {
  std::vector<JournalEntry> out;
  JournalEntry e = entry(EntryKind::kWorkerAdded, 0.25, 0);
  e.worker = 0;
  e.res = Resources{8.0, 16e9, 32e9};
  e.ready_time = 0.5;
  out.push_back(e);
  e = entry(EntryKind::kSubmitted, 0.0, 1);
  e.spec = sample_spec(1);
  out.push_back(e);
  e = entry(EntryKind::kDispatched, 0.1, 1);
  e.worker = 0;
  e.attempt = 0;
  e.res = Resources{1.0, 2e9, 4e9};
  out.push_back(e);
  e = entry(EntryKind::kExhaustion, 1.0, 1);
  e.text = "cat-a";
  e.res = Resources{1.0, 2e9, 4e9};
  e.text2 = "memory";
  out.push_back(e);
  e = entry(EntryKind::kDispatched, 1.5, 1);
  e.worker = 0;
  e.attempt = 1;
  e.res = Resources{8.0, 16e9, 32e9};
  out.push_back(e);
  e = entry(EntryKind::kCompleted, 9.0, 1);
  e.res = Resources{1.0, 3e9, 1e9};
  out.push_back(e);
  e = entry(EntryKind::kSubmitted, 0.0, 2);
  e.spec = sample_spec(2);
  out.push_back(e);
  e = entry(EntryKind::kFailed, 12.0, 2);
  e.text = "exhaustion-limit";
  out.push_back(e);
  e = entry(EntryKind::kSubmitted, 0.0, 3);
  e.spec = sample_spec(3);
  out.push_back(e);
  out.push_back(entry(EntryKind::kCancelled, 13.0, 3));
  e = entry(EntryKind::kWorkerLost, 14.0, 0);
  e.worker = 0;
  out.push_back(e);
  return out;
}

void expect_same_resources(const Resources& a, const Resources& b) {
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
}

void expect_same_entry(const JournalEntry& got, const JournalEntry& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.ts, want.ts);
  EXPECT_EQ(got.task, want.task);
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.attempt, want.attempt);
  EXPECT_EQ(got.ready_time, want.ready_time);
  expect_same_resources(got.res, want.res);
  EXPECT_EQ(got.text, want.text);
  EXPECT_EQ(got.text2, want.text2);
  EXPECT_EQ(got.spec.id, want.spec.id);
  EXPECT_EQ(got.spec.category, want.spec.category);
  EXPECT_EQ(got.spec.output_bytes, want.spec.output_bytes);
  EXPECT_EQ(got.spec.exec_seconds, want.spec.exec_seconds);
  EXPECT_EQ(got.spec.true_cores, want.spec.true_cores);
  expect_same_resources(got.spec.true_peak, want.spec.true_peak);
  EXPECT_EQ(got.spec.peak_fraction, want.spec.peak_fraction);
  ASSERT_EQ(got.spec.inputs.size(), want.spec.inputs.size());
  for (size_t i = 0; i < want.spec.inputs.size(); ++i) {
    EXPECT_EQ(got.spec.inputs[i].name, want.spec.inputs[i].name);
    EXPECT_EQ(got.spec.inputs[i].size_bytes, want.spec.inputs[i].size_bytes);
    EXPECT_EQ(got.spec.inputs[i].cacheable, want.spec.inputs[i].cacheable);
    EXPECT_EQ(got.spec.inputs[i].unpack_seconds, want.spec.inputs[i].unpack_seconds);
  }
}

// Byte offsets where each record of a log ends (a varint length, then the
// record).
std::vector<size_t> record_ends(const serde::Bytes& log) {
  std::vector<size_t> ends;
  serde::Reader r(log);
  while (r.remaining() > 0) {
    r.raw(r.varint());
    ends.push_back(r.pos());
  }
  return ends;
}

TEST(Journal, BytesDecodeBackToEveryKindAndField) {
  const Journal original = sample_journal();
  const Journal decoded = Journal::decode(original.bytes());
  EXPECT_EQ(decoded.bytes(), original.bytes());
  const std::vector<JournalEntry> want = sample_entries();
  const std::vector<JournalEntry> got = decoded.entries();
  ASSERT_EQ(decoded.size(), want.size());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    expect_same_entry(got[i], want[i]);
  }
  EXPECT_EQ(decoded.completed_task_ids(), std::unordered_set<uint64_t>{1});
}

TEST(Journal, FileHoldsExactlyTheBytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lfm_journal_test.journal").string();
  serde::Bytes in_memory;
  {
    Journal j(path);
    j.worker_added(0, Resources{8.0, 16e9, 32e9}, 0.0, 0.0);
    j.submitted(sample_spec(1), 0.0);
    j.dispatched(1, 0, 0, Resources{1.0, 2e9, 4e9}, 0.1);
    j.completed(1, Resources{1.0, 3e9, 1e9}, 9.0);
    j.flush();
    in_memory = j.bytes();
  }
  std::ifstream in(path, std::ios::binary);
  const serde::Bytes on_file((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_FALSE(on_file.empty());
  EXPECT_EQ(on_file, in_memory);
  EXPECT_EQ(Journal::decode(on_file).size(), 4u);
  std::remove(path.c_str());
}

TEST(Journal, EveryPrefixAndSeededBitFlipDecodesOrThrows) {
  const serde::Bytes log = sample_journal().bytes();
  const std::vector<size_t> ends = record_ends(log);
  ASSERT_EQ(ends.size(), sample_entries().size());
  // A strict prefix decodes only when it ends on a record boundary.
  for (size_t n = 0; n < log.size(); ++n) {
    const serde::Bytes prefix(log.begin(), log.begin() + static_cast<ptrdiff_t>(n));
    const size_t whole = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), n) - ends.begin());
    if (n == 0 || std::binary_search(ends.begin(), ends.end(), n)) {
      EXPECT_EQ(Journal::decode(prefix).entries().size(), whole) << "prefix " << n;
    } else {
      EXPECT_THROW(Journal::decode(prefix), Error) << "prefix " << n;
    }
  }
  // A flipped bit either still decodes, and then every record reads back,
  // or throws lfm::Error; sanitizer builds catch anything undefined.
  Rng rng(2024);
  int thrown = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    serde::Bytes flipped = log;
    const size_t at = rng.uniform_int(0, static_cast<int64_t>(log.size()) - 1);
    flipped[at] ^= static_cast<uint8_t>(1u << rng.uniform_int(0, 7));
    try {
      const Journal j = Journal::decode(flipped);
      EXPECT_EQ(j.entries().size(), j.size());
    } catch (const Error&) {
      ++thrown;
    }
  }
  EXPECT_GT(thrown, 0);
}

TEST(Journal, MalformedRecordsThrowNamingTheRecord) {
  const auto message = [](const serde::Bytes& bytes) {
    try {
      Journal::decode(bytes);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("decoded");
  };
  Journal j;
  j.completed(7, Resources{1.0, 2.0, 3.0}, 1.0);
  j.submitted(sample_spec(8), 2.0);
  const serde::Bytes log = j.bytes();
  const size_t second = record_ends(log)[0];

  // Each record's first byte after its 1-byte length is its kind.
  serde::Bytes bad = log;
  bad[second + 1] = 8;
  EXPECT_NE(message(bad).find("record 1: unknown kind 8"), std::string::npos)
      << message(bad);
  bad = log;
  bad[1] = 0xff;
  EXPECT_NE(message(bad).find("record 0: unknown kind 255"), std::string::npos)
      << message(bad);

  // The input's cacheable flag follows its name and its size (1000, a
  // 2-byte zigzag varint).
  const std::string name = "env.tar.gz";
  const size_t at = static_cast<size_t>(
      std::search(log.begin(), log.end(), name.begin(), name.end()) - log.begin());
  ASSERT_LT(at, log.size());
  bad = log;
  ASSERT_EQ(bad[at + name.size() + 2], 1);
  bad[at + name.size() + 2] = 2;
  EXPECT_NE(message(bad).find("record 1: bad flag byte 2"), std::string::npos)
      << message(bad);

  // A record longer than its fields.
  bad.assign(log.begin(), log.begin() + static_cast<ptrdiff_t>(second));
  bad[0] += 1;
  bad.push_back(0);
  EXPECT_NE(message(bad).find("record 0: record length mismatch"), std::string::npos)
      << message(bad);

  // A length running past the end of the log.
  bad = log;
  bad[second] += 1;
  EXPECT_NE(message(bad).find("record 1: truncated record"), std::string::npos)
      << message(bad);
}

// ---------------------------------------------------------------------------
// Master fault primitives & recovery (small end-to-end scenarios)
// ---------------------------------------------------------------------------

LabelerConfig node_config() {
  LabelerConfig cfg;
  cfg.strategy = Strategy::kOracle;
  cfg.whole_node = Resources{8.0, 8e9, 16e9};
  cfg.guess = Resources{1.0, 1.5e9, 2e9};
  return cfg;
}

wq::TaskSpec simple_task(uint64_t id, double runtime, double mem = 100e6) {
  wq::TaskSpec t;
  t.id = id;
  t.category = "uniform";
  t.exec_seconds = runtime;
  t.true_cores = 1.0;
  t.true_peak = Resources{1.0, mem, 500e6};
  return t;
}

struct Rig {
  sim::Simulation sim;
  sim::Network network;
  alloc::Labeler labeler;
  wq::Master master;
  explicit Rig(LabelerConfig cfg = node_config(), wq::MasterConfig mcfg = {})
      : network(sim, {}), labeler(cfg), master(sim, network, labeler, mcfg) {}
};

TEST(MasterFaults, StragglerStretchesRuntime) {
  Rig nominal;
  nominal.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  nominal.master.submit(simple_task(1, 10.0));
  const double base = nominal.master.run().makespan;

  Rig slow;
  slow.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  slow.master.fault_worker_speed(0, 0.5);  // 2x slower
  slow.master.submit(simple_task(1, 10.0));
  const double stretched = slow.master.run().makespan;
  EXPECT_GT(stretched, base + 9.0);  // 10 s of work became ~20 s
}

TEST(MasterFaults, NetworkScaleSlowsTransfers) {
  auto with_scale = [](double scale) {
    Rig rig;
    rig.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
    if (scale != 1.0) rig.master.fault_network_scale(scale);
    wq::TaskSpec t = simple_task(1, 1.0);
    wq::InputFile f;
    f.name = "data.bin";
    f.size_bytes = 1250LL * 1000 * 1000;  // ~1 s at nominal 1.25 GB/s
    t.inputs.push_back(std::move(f));
    rig.master.submit(std::move(t));
    return rig.master.run().makespan;
  };
  const double nominal = with_scale(1.0);
  const double degraded = with_scale(0.25);  // quarter bandwidth: ~+3 s
  EXPECT_GT(degraded, nominal + 2.0);
}

TEST(MasterFaults, FsStallMultipliesDispatchCosts) {
  auto with_stall = [](double factor) {
    Rig rig;
    rig.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
    if (factor != 1.0) rig.master.fault_fs_stall(factor);
    wq::TaskSpec t = simple_task(1, 1.0);
    wq::InputFile f;
    f.name = "env.tar.gz";
    f.size_bytes = 1000;
    f.cacheable = true;
    f.unpack_seconds = 1.0;
    t.inputs.push_back(std::move(f));
    rig.master.submit(std::move(t));
    return rig.master.run().makespan;
  };
  const double nominal = with_stall(1.0);
  const double stalled = with_stall(8.0);  // 1 s unpack -> 8 s
  EXPECT_GT(stalled, nominal + 6.0);
}

TEST(MasterFaults, SpuriousKillRequeuesWithoutTeachingLabeler) {
  Rig rig;
  rig.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  rig.master.submit(simple_task(1, 10.0));
  rig.sim.schedule(5.0, [&] { rig.master.fault_spurious_kill(0); });
  const wq::MasterStats stats = rig.master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  EXPECT_EQ(stats.spurious_kills, 1);
  EXPECT_EQ(stats.exhaustion_retries, 0);
  ASSERT_EQ(rig.master.records().size(), 1u);
  EXPECT_EQ(rig.master.records()[0].requeues, 1);
  // The killed attempt fed the labeler nothing; the rerun fed it once.
  EXPECT_EQ(rig.labeler.total_samples(),
            stats.tasks_completed + stats.lost_results);
  // Killed before the run finished, so no result was in flight.
  EXPECT_EQ(stats.lost_results, 0);
}

TEST(MasterFaults, CrashedWorkerRejoinsAndFinishesWork) {
  Rig rig;
  rig.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  for (uint64_t id = 1; id <= 4; ++id) rig.master.submit(simple_task(id, 10.0));
  rig.sim.schedule(5.0, [&] { rig.master.fault_crash_worker(0, /*rejoin=*/3.0); });
  const wq::MasterStats stats = rig.master.run();
  EXPECT_EQ(stats.tasks_completed, 4);
  EXPECT_EQ(rig.master.worker_crashes(), 1);
}

TEST(MasterRecovery, JournalRoundTripYieldsIdenticalFinalState) {
  // Uninterrupted reference run.
  wq::MasterConfig mcfg;
  Rig ref;
  ref.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  ref.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  for (uint64_t id = 1; id <= 12; ++id) ref.master.submit(simple_task(id, 5.0));
  const wq::MasterStats ref_stats = ref.master.run();
  EXPECT_EQ(ref_stats.tasks_completed, 12);

  // Same workload, journaled, killed mid-run.
  Rig dying;
  Journal journal;
  dying.master.set_journal(&journal);
  dying.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  dying.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  int first_fires = 0;
  std::unordered_map<uint64_t, int> fired;
  dying.master.set_on_complete([&](const wq::TaskRecord& rec) {
    ++first_fires;
    fired[rec.spec.id] += 1;
  });
  for (uint64_t id = 1; id <= 12; ++id) dying.master.submit(simple_task(id, 5.0));
  dying.sim.run_until(ref_stats.makespan * 0.5);
  EXPECT_GT(first_fires, 0);
  EXPECT_LT(first_fires, 12);

  // A fresh master recovers from the journal's bytes.
  Rig recovered;
  recovered.master.set_on_complete(
      [&](const wq::TaskRecord& rec) { fired[rec.spec.id] += 1; });
  recovered.master.recover(Journal::decode(journal.bytes()));
  const wq::MasterStats stats = recovered.master.run();

  // Recovered terminals count toward tasks_completed too; tasks_recovered
  // records how many of them were replayed rather than run.
  EXPECT_EQ(stats.tasks_recovered, first_fires);
  EXPECT_EQ(stats.tasks_completed, 12);
  ASSERT_EQ(recovered.master.records().size(), 12u);
  for (const auto& rec : recovered.master.records()) {
    EXPECT_EQ(rec.state, wq::TaskState::kDone);
    EXPECT_GE(rec.finish_time, 0.0);
  }
  // Exactly-once across the restart: every task's on_complete fired once in
  // total over both masters.
  ASSERT_EQ(fired.size(), 12u);
  for (const auto& [id, count] : fired) EXPECT_EQ(count, 1) << "task " << id;
  // The labeler relearned the journaled observations exactly once each.
  EXPECT_EQ(recovered.labeler.total_samples(),
            stats.tasks_completed + stats.lost_results);
}

TEST(MasterRecovery, ExhaustionCountsSurviveRestart) {
  // A 3 GB task under a 1.5 GB Guess exhausts once, then retries at whole
  // node. Kill the master after the exhaustion but before the retry lands:
  // the recovered master must not grant the task a fresh exhaustion budget.
  LabelerConfig cfg = node_config();
  cfg.strategy = Strategy::kGuess;
  Rig dying(cfg);
  Journal journal;
  dying.master.set_journal(&journal);
  dying.master.add_worker({Resources{8.0, 8e9, 16e9}, 0.0});
  dying.master.submit(simple_task(1, 10.0, 3e9));
  dying.sim.run_until(11.0);  // first attempt exhausted, retry in flight

  Rig recovered(cfg);
  recovered.master.recover(Journal::decode(journal.bytes()));
  const wq::MasterStats stats = recovered.master.run();
  EXPECT_EQ(stats.tasks_completed, 1);
  ASSERT_EQ(recovered.master.records().size(), 1u);
  // The journaled exhaustion was restored, not forgotten.
  EXPECT_EQ(recovered.master.records()[0].exhaustions, 1);
  EXPECT_EQ(recovered.labeler.total_exhaustions(), 1);
}

// ---------------------------------------------------------------------------
// Property-style fuzz: seeded fault schedules uphold the soak invariants
// ---------------------------------------------------------------------------

struct FuzzOutcome {
  wq::MasterStats stats;
  int64_t labeler_samples = 0;
  int64_t labeler_exhaustions = 0;
  size_t tasks = 0;
  bool all_terminal = true;
  bool completions_exactly_once = true;
};

FuzzOutcome run_fuzz_seed(uint64_t seed) {
  constexpr int kPool = 4;
  constexpr double kFuzzHorizon = 120.0;

  LabelerConfig lcfg;
  lcfg.strategy = Strategy::kAuto;
  lcfg.whole_node = Resources{16.0, 64e9, 128e9};
  lcfg.guess = Resources{1.0, 2e9, 4e9};
  lcfg.warmup_samples = 3;

  wq::MasterConfig mcfg;
  mcfg.retry.backoff_base = 0.5;
  mcfg.retry.jitter_fraction = 0.2;
  mcfg.retry.jitter_seed = seed;

  Rig rig(lcfg, mcfg);
  std::unordered_map<uint64_t, int> completions;
  rig.master.set_on_complete(
      [&](const wq::TaskRecord& rec) { completions[rec.spec.id] += 1; });

  const Plan plan =
      compile_plan(seed, default_campaign(kFuzzHorizon), kPool, /*protected=*/1);
  Injector injector(rig.sim, rig.master, plan);
  injector.arm();

  for (int w = 0; w < kPool; ++w) {
    rig.master.add_worker({Resources{16.0, 64e9, 128e9}, 0.0});
  }
  Rng rng(seed);
  constexpr int kFuzzTasks = 60;
  for (int i = 0; i < kFuzzTasks; ++i) {
    wq::TaskSpec t;
    t.id = static_cast<uint64_t>(i + 1);
    t.category = "cat-" + std::to_string(i % 4);
    t.exec_seconds = rng.uniform(5.0, 20.0);
    t.true_cores = 1.0;
    t.true_peak = Resources{1.0, rng.uniform(0.5e9, 2.5e9), rng.uniform(1e9, 2e9)};
    t.output_bytes = 1000 * 1000;
    rig.master.submit(std::move(t));
  }

  FuzzOutcome out;
  out.stats = rig.master.run();
  out.labeler_samples = rig.labeler.total_samples();
  out.labeler_exhaustions = rig.labeler.total_exhaustions();
  out.tasks = rig.master.records().size();
  for (const auto& rec : rig.master.records()) {
    if (rec.state != wq::TaskState::kDone) out.all_terminal = false;
  }
  out.completions_exactly_once = completions.size() == out.tasks;
  for (const auto& [id, count] : completions) {
    if (count != 1) out.completions_exactly_once = false;
  }
  return out;
}

TEST(ChaosFuzz, SeededFaultSchedulesUpholdInvariants) {
  for (uint64_t seed = 9000; seed < 9012; ++seed) {
    const FuzzOutcome out = run_fuzz_seed(seed);
    EXPECT_EQ(out.stats.tasks_completed + out.stats.tasks_failed +
                  out.stats.tasks_cancelled,
              static_cast<int64_t>(out.tasks))
        << "seed " << seed;
    EXPECT_TRUE(out.all_terminal) << "seed " << seed;
    EXPECT_TRUE(out.completions_exactly_once) << "seed " << seed;
    EXPECT_EQ(out.labeler_samples,
              out.stats.tasks_completed + out.stats.lost_results)
        << "seed " << seed;
    EXPECT_EQ(out.labeler_exhaustions, out.stats.exhaustion_retries)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace lfm::chaos
