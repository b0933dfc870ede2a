// Small measurement helpers for the benchmark binary: a monotonic clock,
// order statistics, getrusage snapshots, and the metric report that ends
// every run with one JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lfmbench {

// Monotonic seconds (steady clock).
double now_s();

// Nearest-rank quantile of `v` (q in [0, 1]); reorders `v`. 0 when empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// User+sys CPU seconds and peak RSS (MB) for RUSAGE_SELF / RUSAGE_CHILDREN.
// The children figure covers every reaped descendant (the kernel folds a
// reaped child's own reaped children into it).
struct Usage {
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
};
Usage self_usage();
Usage children_usage();

// Machine-wide CPU ticks from /proc/stat (zero where unreadable). On a
// virtual machine, steal is time the hypervisor ran something else while a
// virtual CPU wanted to run: wall-clock figures measured under it are slow.
struct HostTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
HostTicks host_ticks();
// Steal as a share (%) of all CPU ticks between two readings.
double steal_pct(const HostTicks& a, const HostTicks& b);

// Shortest decimal that round-trips `v` exactly.
std::string fmt(double v);

class Report {
 public:
  // `samples` is how many measurements the value summarises.
  void add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  // One human-readable line per metric, with its sample count.
  void print_lines() const;
  // {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  std::string json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Metric> metrics_;
};

}  // namespace lfmbench
