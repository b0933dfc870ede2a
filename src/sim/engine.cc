#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"

namespace lfm::sim {

namespace {
constexpr size_t kInitialCapacity = 4096;

// Engine-level telemetry: executed/cancelled event totals across every
// Simulation in the process.
obs::Count sim_events_executed{"sim.events_executed"};
obs::Count sim_events_cancelled{"sim.events_cancelled"};

}  // namespace

Simulation::Simulation() {
  heap_.reserve(kInitialCapacity);
  state_.reserve(kInitialCapacity);
}

EventId Simulation::schedule(double delay, EventFn fn) {
  if (delay < 0.0 || std::isnan(delay)) throw Error("Simulation: negative or NaN delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulation::schedule_at(double time, EventFn fn) {
  if (time < now_) throw Error("Simulation: scheduling into the past");
  const EventId id = next_id_++;
  state_.push_back(kPending);
  ++live_pending_;
  heap_.push_back(Event{time, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void Simulation::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return;  // never issued
  uint8_t& st = state_[id - 1];
  if (st != kPending) return;  // already ran or already cancelled
  st = kCancelled;             // tombstone; the heap entry is skipped later
  --live_pending_;
  sim_events_cancelled.add();
}

void Simulation::pop_top(Event& out) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  out = std::move(heap_.back());
  heap_.pop_back();
}

bool Simulation::step() {
  Event ev;
  while (!heap_.empty()) {
    pop_top(ev);
    uint8_t& st = state_[ev.id - 1];
    if (st == kCancelled) continue;  // discard tombstoned entry
    st = kExecuted;
    --live_pending_;
    now_ = ev.time;
    ++executed_;
    sim_events_executed.add();
    ev.fn();
    return true;
  }
  return false;
}

double Simulation::run() {
  while (step()) {
  }
  return now_;
}

double Simulation::run_until(double deadline) {
  Event ev;
  while (!heap_.empty()) {
    // Peek; discard tombstoned entries without advancing time.
    if (state_[heap_.front().id - 1] == kCancelled) {
      pop_top(ev);
      continue;
    }
    if (heap_.front().time > deadline) break;
    pop_top(ev);
    state_[ev.id - 1] = kExecuted;
    --live_pending_;
    now_ = ev.time;
    ++executed_;
    sim_events_executed.add();
    ev.fn();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace lfm::sim
