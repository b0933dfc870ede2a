#include "alloc/labeler.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"
#include "util/error.h"

namespace lfm::alloc {

const char* label_mode_name(LabelMode mode) {
  switch (mode) {
    case LabelMode::kExpectedCost: return "expected-cost";
    case LabelMode::kMaxSeen: return "max-seen";
    case LabelMode::kPercentile95: return "p95";
  }
  return "?";
}

const char* retry_policy_name(RetryPolicy policy) {
  switch (policy) {
    case RetryPolicy::kWholeNode: return "whole-node";
    case RetryPolicy::kGeometric: return "geometric";
  }
  return "?";
}

const char* strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kOracle: return "oracle";
    case Strategy::kAuto: return "auto";
    case Strategy::kGuess: return "guess";
    case Strategy::kUnmanaged: return "unmanaged";
  }
  return "?";
}

namespace {

Histogram make_hist(double whole, int buckets) {
  const double width = std::max(whole / std::max(buckets, 1), 1e-9);
  return Histogram(width, static_cast<size_t>(std::max(buckets, 1)));
}

// The learning signal, counted once per completion.
obs::Count labeler_samples{"labeler.samples"};
obs::Count labeler_exhaustions{"labeler.exhaustions"};
obs::Spread labeler_peak_mem_gb{"labeler.peak_mem_gb", 1e-3, 1e4, 70};

}  // namespace

CategoryLabeler::CategoryLabeler(const LabelerConfig& config)
    : config_(config),
      cores_hist_(make_hist(config.whole_node.cores, config.histogram_buckets)),
      memory_hist_(make_hist(config.whole_node.memory_bytes, config.histogram_buckets)),
      disk_hist_(make_hist(config.whole_node.disk_bytes, config.histogram_buckets)) {
  if (!config.whole_node.nonnegative() || config.whole_node.cores <= 0.0) {
    throw Error("CategoryLabeler: whole_node must be a positive allocation");
  }
}

double CategoryLabeler::label_dimension(const Histogram& h, double whole,
                                        double headroom) const {
  if (h.count() == 0) return whole;
  switch (config_.label_mode) {
    case LabelMode::kMaxSeen:
      return std::min(h.bucket_top(h.max_seen()) * headroom, whole);
    case LabelMode::kPercentile95:
      return std::min(h.quantile(0.95) * headroom, whole);
    case LabelMode::kExpectedCost:
      break;
  }
  // Candidate labels are bucket tops; evaluate the expected-cost objective.
  double best_label = whole;
  double best_cost = whole;  // cost of always allocating the whole node
  const auto total = static_cast<double>(h.count());
  double cumulative = 0.0;
  for (size_t i = 0; i < h.bucket_count(); ++i) {
    cumulative += static_cast<double>(h.bucket(i));
    const double a = h.bucket_width() * static_cast<double>(i + 1);
    if (a > whole) break;
    const double p_fit = cumulative / total;
    if (p_fit <= 0.0) continue;
    const double cost = a + (1.0 - p_fit) * whole;
    if (cost < best_cost) {
      best_cost = cost;
      best_label = a;
    }
  }
  return std::min(best_label * headroom, whole);
}

Resources CategoryLabeler::current_label() const {
  const Resources& whole = config_.whole_node;
  switch (config_.strategy) {
    case Strategy::kUnmanaged:
      return whole;
    case Strategy::kGuess:
      return config_.guess;
    case Strategy::kOracle:
      if (config_.oracle) return *config_.oracle;
      return whole;
    case Strategy::kAuto:
      break;
  }
  if (samples_ < config_.warmup_samples) return whole;
  Resources label;
  // Cores are integral; headroom does not apply (a task that used 1 core
  // gets 1 core, not 1.05 rounded up to 2).
  label.cores = std::max(1.0, std::ceil(label_dimension(cores_hist_, whole.cores, 1.0)));
  label.memory_bytes =
      label_dimension(memory_hist_, whole.memory_bytes, config_.headroom);
  label.disk_bytes = label_dimension(disk_hist_, whole.disk_bytes, config_.headroom);
  return label;
}

Resources CategoryLabeler::allocation(int attempt) const {
  if (attempt < 0) throw Error("CategoryLabeler: negative attempt");
  Resources base;
  switch (config_.strategy) {
    case Strategy::kUnmanaged:
      return config_.whole_node;
    case Strategy::kOracle:
      // Perfect knowledge never exhausts; retries (if the oracle was wrong,
      // as the paper notes for genomics) escalate like Auto.
      if (!config_.oracle) return config_.whole_node;
      base = *config_.oracle;
      break;
    case Strategy::kGuess:
      base = config_.guess;
      break;
    case Strategy::kAuto:
      base = current_label();
      break;
  }
  if (attempt == 0) return base;
  if (config_.retry_policy == RetryPolicy::kWholeNode) return config_.whole_node;
  // Geometric escalation: double every dimension per retry, capped at a_max.
  const double factor = std::pow(2.0, attempt);
  Resources escalated;
  escalated.cores = std::min(std::ceil(base.cores * factor), config_.whole_node.cores);
  escalated.memory_bytes =
      std::min(base.memory_bytes * factor, config_.whole_node.memory_bytes);
  escalated.disk_bytes = std::min(base.disk_bytes * factor, config_.whole_node.disk_bytes);
  return escalated;
}

void CategoryLabeler::observe_success(const Resources& peak_usage) {
  ++samples_;
  cores_hist_.add(peak_usage.cores);
  memory_hist_.add(peak_usage.memory_bytes);
  disk_hist_.add(peak_usage.disk_bytes);
}

void CategoryLabeler::observe_exhaustion(const Resources& allocated,
                                         const std::string& resource) {
  ++exhaustions_;
  // The task needed MORE than the allocation in `resource`; record the
  // allocation as a lower bound so the label grows past it.
  Resources lower_bound = allocated;
  if (resource == "cores") {
    lower_bound.cores = allocated.cores + cores_hist_.bucket_width();
  } else if (resource == "memory") {
    lower_bound.memory_bytes = allocated.memory_bytes + memory_hist_.bucket_width();
  } else if (resource == "disk") {
    lower_bound.disk_bytes = allocated.disk_bytes + disk_hist_.bucket_width();
  }
  cores_hist_.add(lower_bound.cores);
  memory_hist_.add(lower_bound.memory_bytes);
  disk_hist_.add(lower_bound.disk_bytes);
}

CategoryLabeler& Labeler::category(const std::string& name) {
  auto it = categories_.find(name);
  if (it == categories_.end()) {
    LabelerConfig config = config_;
    const auto oracle_it = oracles_.find(name);
    if (oracle_it != oracles_.end()) config.oracle = oracle_it->second;
    it = categories_.emplace(name, CategoryLabeler(config)).first;
  }
  return it->second;
}

Resources Labeler::allocation(const std::string& cat, int attempt) {
  // Deliberately not instrumented: the master's dispatch scan probes this
  // once per candidate group, so events here would record probes, not
  // decisions. The applied label is traced by Master::dispatch; the
  // learning signal is counted in the observe paths below.
  return category(cat).allocation(attempt);
}

void Labeler::observe_success(const std::string& cat, const Resources& peak) {
  category(cat).observe_success(peak);
  labeler_samples.add();
  labeler_peak_mem_gb.observe(peak.memory_bytes / 1e9);
}

void Labeler::observe_exhaustion(const std::string& cat, const Resources& allocated,
                                 const std::string& resource) {
  category(cat).observe_exhaustion(allocated, resource);
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidSim, 0, r.now(), "label-exhaustion", "alloc", "category",
              cat + ":" + resource, "allocated_cores", allocated.cores);
  }
  labeler_exhaustions.add();
}

void Labeler::set_oracle(const std::string& cat, const Resources& oracle) {
  oracles_[cat] = oracle;
  // Rebuild if the category already exists so the oracle takes effect.
  const auto it = categories_.find(cat);
  if (it != categories_.end()) {
    LabelerConfig config = config_;
    config.oracle = oracle;
    it->second = CategoryLabeler(config);
  }
}

int64_t Labeler::total_exhaustions() const {
  int64_t sum = 0;
  for (const auto& [_, c] : categories_) sum += c.exhaustions();
  return sum;
}

int64_t Labeler::total_samples() const {
  int64_t sum = 0;
  for (const auto& [_, c] : categories_) sum += c.samples();
  return sum;
}

}  // namespace lfm::alloc
