#include "flow/dfk.h"

#include <algorithm>

#include "obs/recorder.h"

namespace lfm::flow {

namespace {
obs::Count flow_apps_submitted{"flow.apps_submitted"};
obs::Count flow_apps_completed{"flow.apps_completed"};
obs::Count flow_dep_failures{"flow.dep_failures"};
obs::Spread flow_resolve_wait_seconds{"flow.resolve_wait_seconds"};
}  // namespace

// --- LocalLfmExecutor --------------------------------------------------------

LocalLfmExecutor::LocalLfmExecutor(int workers, double poll_interval)
    : poll_interval_(poll_interval) {
  if (workers < 1) throw Error("LocalLfmExecutor: need at least one worker");
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

LocalLfmExecutor::~LocalLfmExecutor() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void LocalLfmExecutor::execute(const App& app, serde::Value args,
                               std::function<void(monitor::TaskOutcome)> done) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(Job{app, std::move(args), std::move(done)});
  }
  cv_.notify_one();
}

void LocalLfmExecutor::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    monitor::MonitorOptions options;
    options.limits = job.app.limits;
    options.poll_interval = poll_interval_;
    monitor::TaskOutcome outcome = monitor::run_monitored(job.app.fn, job.args, options);
    {
      std::lock_guard lock(mutex_);
      observations_.emplace_back(job.app.name, outcome.usage);
    }
    job.done(std::move(outcome));
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void LocalLfmExecutor::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0 && queue_.empty(); });
}

std::vector<std::pair<std::string, monitor::ResourceUsage>>
LocalLfmExecutor::observations() const {
  std::lock_guard lock(mutex_);
  return observations_;
}

// --- InlineExecutor ----------------------------------------------------------

void InlineExecutor::execute(const App& app, serde::Value args,
                             std::function<void(monitor::TaskOutcome)> done) {
  monitor::TaskOutcome outcome;
  try {
    outcome.result = app.fn(args);
    outcome.status = monitor::TaskStatus::kSuccess;
  } catch (const std::exception& e) {
    outcome.status = monitor::TaskStatus::kException;
    outcome.error = e.what();
  }
  done(std::move(outcome));
}

// --- DataFlowKernel ----------------------------------------------------------

Future DataFlowKernel::submit(const App& app, std::vector<Arg> args) {
  Future result;
  submitted_.fetch_add(1);
  flow_apps_submitted.add();
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidHost, 0, r.now(), "app-submit", "flow", "app", app.name);
  }

  // Count unresolved future arguments; the task launches when it hits zero.
  auto pending = std::make_shared<std::atomic<int>>(0);
  auto failed_dep = std::make_shared<std::atomic<bool>>(false);
  std::vector<Future> watched;
  for (const auto& arg : args) {
    if (const auto* fut = std::get_if<Future>(&arg)) {
      if (!fut->done()) watched.push_back(*fut);
    }
  }
  pending->store(static_cast<int>(watched.size()));

  if (watched.empty()) {
    launch(app, std::move(args), result);
    return result;
  }

  // Move args into shared storage the callbacks can hand off from.
  auto shared_args = std::make_shared<std::vector<Arg>>(std::move(args));
  const App app_copy = app;
  DataFlowKernel* self = this;
  const double dep_wait_from =
      obs::Recorder::enabled() ? obs::Recorder::global().now() : 0.0;
  for (const auto& fut : watched) {
    fut.on_ready([self, app_copy, shared_args, pending, failed_dep, dep_wait_from,
                  result](const monitor::TaskOutcome& outcome) {
      if (!outcome.ok()) failed_dep->store(true);
      if (pending->fetch_sub(1) == 1) {
        if (obs::Recorder::enabled()) {
          // Time from submit to the last dependency resolving — the app's
          // dataflow latency, separate from its execution latency. The gate
          // spares an untraced run the clock read.
          flow_resolve_wait_seconds.observe(obs::Recorder::global().now() -
                                            dep_wait_from);
        }
        if (failed_dep->load()) {
          monitor::TaskOutcome dep_failure;
          dep_failure.status = monitor::TaskStatus::kException;
          dep_failure.error = "dependency failed";
          result.fulfill(std::move(dep_failure));
          self->completed_.fetch_add(1);
          flow_dep_failures.add();
          self->wait_cv_.notify_all();
          return;
        }
        self->launch(app_copy, std::move(*shared_args), result);
      }
    });
  }
  return result;
}

void DataFlowKernel::launch(const App& app, std::vector<Arg> args, Future result) {
  // Substitute resolved future results into the argument list.
  serde::ValueList arg_values;
  arg_values.reserve(args.size());
  for (auto& arg : args) {
    if (auto* v = std::get_if<serde::Value>(&arg)) {
      arg_values.push_back(std::move(*v));
    } else {
      const auto& out = std::get<Future>(arg).outcome();
      if (!out.ok()) {
        monitor::TaskOutcome dep_failure;
        dep_failure.status = monitor::TaskStatus::kException;
        dep_failure.error = "dependency failed: " + out.error;
        result.fulfill(std::move(dep_failure));
        completed_.fetch_add(1);
        wait_cv_.notify_all();
        return;
      }
      arg_values.push_back(out.result);
    }
  }
  DataFlowKernel* self = this;
  executor_.execute(app, serde::Value(std::move(arg_values)),
                    [self, result](monitor::TaskOutcome outcome) {
                      result.fulfill(std::move(outcome));
                      self->completed_.fetch_add(1);
                      flow_apps_completed.add();
                      std::lock_guard lock(self->wait_mutex_);
                      self->wait_cv_.notify_all();
                    });
}

void DataFlowKernel::wait_all() {
  std::unique_lock lock(wait_mutex_);
  wait_cv_.wait(lock, [this] { return completed_.load() >= submitted_.load(); });
}

}  // namespace lfm::flow
