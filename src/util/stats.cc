#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace lfm {

void Samples::add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::percentile(double p) const {
  if (values_.empty()) throw Error("Samples::percentile on empty sample set");
  if (p < 0.0 || p > 100.0) throw Error("percentile out of range");
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

Histogram::Histogram(double bucket_width, size_t buckets)
    : width_(bucket_width), counts_(buckets, 0) {
  if (bucket_width <= 0.0 || buckets == 0) throw Error("Histogram: bad shape");
}

namespace {

// Buckets are upper-inclusive: bucket k covers ((k)*w excluded-at-top? no —
// bucket k covers (k*w, (k+1)*w], with values <= 0 in bucket 0. This keeps
// exact boundary values (e.g. "1 core") in the bucket whose top equals them,
// so labels land on natural values instead of one bucket above.
size_t bucket_index(double value, double width, size_t buckets) {
  if (value <= width) return 0;
  const auto idx = static_cast<size_t>(std::ceil(value / width)) - 1;
  return idx >= buckets ? buckets - 1 : idx;
}

}  // namespace

void Histogram::add(double value) {
  if (value < 0.0) value = 0.0;
  ++counts_[bucket_index(value, width_, counts_.size())];
  ++total_;
  max_seen_ = std::max(max_seen_, value);
}

double Histogram::bucket_top(double value) const {
  const size_t idx = bucket_index(std::max(value, 0.0), width_, counts_.size());
  return width_ * static_cast<double>(idx + 1);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) throw Error("Histogram::quantile on empty histogram");
  if (q < 0.0 || q > 1.0) throw Error("Histogram::quantile: q out of range");
  const auto threshold = static_cast<int64_t>(std::ceil(q * static_cast<double>(total_)));
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= threshold) return width_ * static_cast<double>(i + 1);
  }
  return width_ * static_cast<double>(counts_.size());
}

LogHistogram::LogHistogram(double lo, double hi, size_t buckets) : lo_(lo), hi_(hi) {
  if (!(lo > 0.0) || !(hi > lo) || buckets == 0) {
    throw Error("LogHistogram: need 0 < lo < hi and at least one bucket");
  }
  counts_.assign(buckets, 0);
  const double log_ratio = std::log(hi / lo) / static_cast<double>(buckets);
  inv_log_ratio_ = 1.0 / log_ratio;
}

size_t LogHistogram::index_of(double value) const {
  if (!(value > lo_)) return 0;  // underflow, zero/negative, and NaN
  const double pos = std::log(value / lo_) * inv_log_ratio_;
  const auto idx = static_cast<size_t>(std::ceil(pos)) - 1;
  return idx >= counts_.size() ? counts_.size() - 1 : idx;
}

void LogHistogram::add(double value) {
  ++counts_[index_of(value)];
  if (total_ == 0) {
    min_seen_ = max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  ++total_;
  sum_ += value;
}

double LogHistogram::bucket_edge(size_t i) const {
  if (i >= counts_.size()) throw Error("LogHistogram::bucket_edge: index out of range");
  if (i + 1 == counts_.size()) return hi_;  // avoid drift on the top edge
  return lo_ * std::exp(static_cast<double>(i + 1) / inv_log_ratio_);
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) throw Error("LogHistogram::quantile on empty histogram");
  if (q < 0.0 || q > 1.0) throw Error("LogHistogram::quantile: q out of range");
  const auto threshold = static_cast<int64_t>(std::ceil(q * static_cast<double>(total_)));
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= threshold) return bucket_edge(i);
  }
  return hi_;
}

}  // namespace lfm
