// Streaming and sample-based statistics used by the resource monitor, the
// auto-labeling algorithm, and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lfm {

// A retained-sample distribution supporting exact percentiles.
class Samples {
 public:
  void add(double x);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Exact percentile by linear interpolation; p in [0, 100].
  double percentile(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

// Fixed-width bucketed histogram over [0, bucket_width * buckets). Values
// beyond the top land in the last bucket. Used by the first-allocation
// algorithm to model resource-usage distributions compactly.
class Histogram {
 public:
  Histogram(double bucket_width, size_t buckets);

  void add(double value);
  int64_t count() const { return total_; }
  double bucket_width() const { return width_; }
  size_t bucket_count() const { return counts_.size(); }
  int64_t bucket(size_t i) const { return counts_.at(i); }
  // Upper edge of the bucket containing value.
  double bucket_top(double value) const;
  // Smallest value v such that P(X <= v) >= q, reported as a bucket top.
  double quantile(double q) const;
  double max_seen() const { return max_seen_; }

 private:
  double width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  double max_seen_ = 0.0;
};

// Fixed log-spaced-bucket histogram over (lo, hi]: bucket edges grow
// geometrically, so one shape covers values spanning many orders of
// magnitude (latencies from microseconds to hours, bytes from KB to TB) at
// constant relative resolution. Used by the obs metrics registry.
//
// Values <= lo land in bucket 0 (underflow); values > hi land in the last
// bucket (overflow). Quantiles are estimated as the upper edge of the
// containing bucket.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, size_t buckets);

  void add(double value);

  int64_t count() const { return total_; }
  double sum() const { return sum_; }
  double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }
  double min_seen() const { return total_ > 0 ? min_seen_ : 0.0; }
  double max_seen() const { return total_ > 0 ? max_seen_ : 0.0; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  size_t bucket_count() const { return counts_.size(); }
  int64_t bucket(size_t i) const { return counts_.at(i); }
  // Upper edge of bucket i: lo * ratio^(i+1); the last edge equals hi.
  double bucket_edge(size_t i) const;
  // Smallest bucket edge v with P(X <= v) >= q; throws on empty histogram.
  double quantile(double q) const;

 private:
  size_t index_of(double value) const;

  double lo_;
  double hi_;
  double inv_log_ratio_;  // 1 / ln(edge[i+1] / edge[i])
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace lfm
