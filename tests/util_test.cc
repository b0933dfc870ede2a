// Unit tests for util: rng determinism and distributions, statistics,
// string helpers, unit formatting, error types, the parallel index loop.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/units.h"

namespace lfm {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 2), Error);
}

TEST(Rng, NormalMeanAndSpread) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.25);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.truncated_normal(50.0, 30.0, 20.0, 60.0);
    EXPECT_GE(v, 20.0);
    EXPECT_LE(v, 60.0);
  }
}

TEST(Rng, TruncatedNormalRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.truncated_normal(0, 1, 5, 2), Error);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(Rng, WeightedIndexRejectsBadWeights) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_THROW(rng.weighted_index(empty), Error);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), Error);
  std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(negative), Error);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  b.next();  // fork consumed one draw
  // The child stream should not equal the parent's continuation.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (child.next() != b.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, PercentileValidation) {
  Samples s;
  EXPECT_THROW(s.percentile(50), Error);
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), Error);
  EXPECT_THROW(s.percentile(101), Error);
  EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
}

TEST(Samples, AddAfterPercentileResorts) {
  Samples s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
}

TEST(Histogram, QuantileAndCounts) {
  Histogram h(10.0, 10);
  for (int i = 0; i < 90; ++i) h.add(5.0);   // bucket 0
  for (int i = 0; i < 10; ++i) h.add(95.0);  // bucket 9
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 100.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 95.0);
}

TEST(Histogram, OverflowGoesToLastBucket) {
  Histogram h(1.0, 4);
  h.add(100.0);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_DOUBLE_EQ(h.bucket_top(100.0), 4.0);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(0.0, 4), Error);
  EXPECT_THROW(Histogram(1.0, 0), Error);
  Histogram h(1.0, 4);
  EXPECT_THROW(h.quantile(0.5), Error);  // empty
  h.add(1.0);
  EXPECT_THROW(h.quantile(1.5), Error);
}

TEST(Strings, SplitAndJoin) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_nonempty("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi\t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("numpy>=1.19", "numpy"));
  EXPECT_FALSE(starts_with("np", "numpy"));
  EXPECT_TRUE(ends_with("env.tar.gz", ".gz"));
  EXPECT_FALSE(ends_with("x", "longer"));
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strformat("%05.1f", 2.25), "002.2");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(500), "500 B");
  EXPECT_EQ(format_bytes(240_MB), "240.0 MB");
  EXPECT_EQ(format_bytes(1500_MB), "1.50 GB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.5), "500.0 ms");
  EXPECT_EQ(format_seconds(42.0), "42.0 s");
  EXPECT_EQ(format_seconds(600.0), "10.0 min");
  EXPECT_EQ(format_seconds(7200.0), "2.00 h");
}

TEST(ResultType, SuccessAndFailure) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_THROW(ok.error(), Error);

  auto bad = Result<int>::failure("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_THROW(bad.value(), Error);
}

TEST(StatusType, SuccessAndFailure) {
  EXPECT_TRUE(Status::success().ok());
  const Status s = Status::failure("why");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error(), "why");
}

TEST(LogHistogram, RejectsBadShape) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 8), Error);
  EXPECT_THROW(LogHistogram(-1.0, 1.0, 8), Error);
  EXPECT_THROW(LogHistogram(2.0, 1.0, 8), Error);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 8), Error);
  EXPECT_THROW(LogHistogram(1e-3, 1e3, 0), Error);
}

TEST(LogHistogram, Empty) {
  LogHistogram h(1e-3, 1e3, 12);
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.0);
  EXPECT_THROW(h.quantile(0.5), Error);
}

TEST(LogHistogram, SingleSample) {
  LogHistogram h(1e-3, 1e3, 12);
  h.add(2.5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min_seen(), 2.5);
  EXPECT_DOUBLE_EQ(h.max_seen(), 2.5);
  // Every quantile is the one occupied bucket's upper edge, which must
  // bound the sample from above and stay within (lo, hi].
  const double q = h.quantile(0.5);
  EXPECT_GE(q, 2.5);
  EXPECT_LE(q, h.hi());
  EXPECT_LE(h.quantile(0.0), q);  // q=0 reports the lowest bucket edge
  EXPECT_DOUBLE_EQ(h.quantile(1.0), q);
  EXPECT_THROW(h.quantile(-0.1), Error);
  EXPECT_THROW(h.quantile(1.1), Error);
  // Exactly one bucket holds the sample.
  int64_t occupied = 0;
  for (size_t i = 0; i < h.bucket_count(); ++i) occupied += h.bucket(i);
  EXPECT_EQ(occupied, 1);
}

TEST(LogHistogram, OutOfRangeClamps) {
  LogHistogram h(1.0, 100.0, 4);
  h.add(0.5);     // below lo: underflow bucket 0
  h.add(-3.0);    // negative: also bucket 0
  h.add(1e9);     // beyond hi: clamped to the last bucket
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1);
  // min/max report the raw values even when the bucket clamps.
  EXPECT_DOUBLE_EQ(h.min_seen(), -3.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1e9);
  // The last edge is exactly hi.
  EXPECT_DOUBLE_EQ(h.bucket_edge(h.bucket_count() - 1), 100.0);
}

TEST(LogHistogram, EdgesGrowGeometrically) {
  LogHistogram h(1.0, 16.0, 4);  // edges 2, 4, 8, 16
  EXPECT_NEAR(h.bucket_edge(0), 2.0, 1e-9);
  EXPECT_NEAR(h.bucket_edge(1), 4.0, 1e-9);
  EXPECT_NEAR(h.bucket_edge(2), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.bucket_edge(3), 16.0);
  h.add(3.0);  // (2, 4] -> bucket 1
  EXPECT_EQ(h.bucket(1), 1);
  h.add(2.0);  // boundary lands in the lower bucket: (1, 2] -> bucket 0
  EXPECT_EQ(h.bucket(0), 1);
}

TEST(LogHistogram, QuantilesFromManySamples) {
  LogHistogram h(1e-3, 1e3, 96);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 100.0);  // 0.01..10
  // p50 ~ 5.0, p99 ~ 9.9; bucket edges are within one relative step.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 5.0 * 0.16);
  EXPECT_NEAR(h.quantile(0.99), 9.9, 9.9 * 0.16);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
}

TEST(LogHistogram, MergeCombinesAndChecksShape) {
  LogHistogram a(1.0, 100.0, 8);
  LogHistogram b(1.0, 100.0, 8);
  a.add(2.0);
  a.add(50.0);
  b.add(7.0);
  b.add(0.1);
  a.merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.sum(), 59.1);
  EXPECT_DOUBLE_EQ(a.min_seen(), 0.1);
  EXPECT_DOUBLE_EQ(a.max_seen(), 50.0);
  // Merging an empty histogram is a no-op; empty.merge(full) adopts stats.
  LogHistogram empty(1.0, 100.0, 8);
  a.merge(empty);
  EXPECT_EQ(a.count(), 4);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 4);
  EXPECT_DOUBLE_EQ(empty.min_seen(), 0.1);
  // Shape mismatches are rejected in every dimension.
  LogHistogram wrong_buckets(1.0, 100.0, 9);
  LogHistogram wrong_lo(2.0, 100.0, 8);
  LogHistogram wrong_hi(1.0, 200.0, 8);
  EXPECT_THROW(a.merge(wrong_buckets), Error);
  EXPECT_THROW(a.merge(wrong_lo), Error);
  EXPECT_THROW(a.merge(wrong_hi), Error);
}

TEST(Io, WriteAllThenReadAvailableRoundtrip) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::vector<uint8_t> payload(100000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  // Writer thread not needed: 100 KB fits a pipe? No — default pipe buffer
  // is 64 KB, so write from a forked child to exercise the short-write loop.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    const bool ok = io::write_all(fds[1], payload.data(), payload.size());
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::vector<uint8_t> got;
  EXPECT_EQ(io::read_available(fds[0], got), io::ReadStatus::kEof);
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_EQ(status, 0);
  EXPECT_EQ(got, payload);
}

TEST(Io, ReadAvailableReportsAgainOnDrainedNonblockingFd) {
  int fds[2];
  ASSERT_EQ(pipe2(fds, O_NONBLOCK), 0);
  const uint8_t data[] = {1, 2, 3};
  ASSERT_TRUE(io::write_all(fds[1], data, sizeof data));
  std::vector<uint8_t> got;
  EXPECT_EQ(io::read_available(fds[0], got), io::ReadStatus::kAgain);
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3}));
  // Drained and still open: kAgain again, buffer appends nothing.
  EXPECT_EQ(io::read_available(fds[0], got), io::ReadStatus::kAgain);
  EXPECT_EQ(got.size(), 3u);
  close(fds[1]);
  EXPECT_EQ(io::read_available(fds[0], got), io::ReadStatus::kEof);
  close(fds[0]);
}

TEST(Io, ErrorsSurfaceAsFalseOrKError) {
  std::vector<uint8_t> buffer;
  const uint8_t byte = 0;
  EXPECT_FALSE(io::write_all(-1, &byte, 1));
  EXPECT_EQ(io::read_available(-1, buffer), io::ReadStatus::kError);
  // Writing to a read end is EBADF too.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_FALSE(io::write_all(fds[0], &byte, 1));
  close(fds[0]);
  close(fds[1]);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 3, 16}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
      std::vector<std::atomic<int>> runs(n);
      std::atomic<int> calls{0};
      parallel_for(n, threads, [&](size_t i) {
        runs[i].fetch_add(1);
        calls.fetch_add(1);
      });
      EXPECT_EQ(calls.load(), static_cast<int>(n)) << threads << " threads, n=" << n;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "index " << i << ", " << threads << " threads";
      }
    }
  }
}

TEST(ParallelFor, FirstExceptionRethrowsOnTheCallerAfterThePoolDrains) {
  // Index 10 throws while other threads are still inside fn: the caller
  // sees the exception only once every running call has returned, and no
  // index is claimed after the failure is seen.
  for (const int threads : {1, 3, 16}) {
    std::atomic<int> inside{0};
    std::atomic<int> started{0};
    std::atomic<bool> returned{false};
    std::atomic<bool> overlapped{false};
    try {
      parallel_for(200, threads, [&](size_t i) {
        inside.fetch_add(1);
        started.fetch_add(1);
        if (i == 10) {
          inside.fetch_sub(1);
          throw Error("index 10 failed");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (returned.load()) overlapped.store(true);
        inside.fetch_sub(1);
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const Error& e) {
      returned.store(true);
      EXPECT_STREQ(e.what(), "index 10 failed");
      EXPECT_EQ(inside.load(), 0) << threads << " threads";
    }
    EXPECT_FALSE(overlapped.load()) << "a call ran past the rethrow";
    EXPECT_LT(started.load(), 200) << "claims went on after the failure";
    if (threads == 1) {
      EXPECT_EQ(started.load(), 11) << "the serial loop went past the failure";
    }
  }
}

}  // namespace
}  // namespace lfm
