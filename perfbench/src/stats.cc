#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace lfmbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t k = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

}  // namespace

Usage self_usage() { return usage_of(RUSAGE_SELF); }
Usage children_usage() { return usage_of(RUSAGE_CHILDREN); }

HostTicks host_ticks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_pct(const HostTicks& a, const HostTicks& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total : 0.0;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::print_lines() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-40s %16s %-8s (n=%zu)\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.samples);
  }
}

std::string Report::json(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace lfmbench
