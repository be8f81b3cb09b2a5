#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "des/event_queue.hpp"

namespace procsim::des {

/// Discrete-event simulation kernel: a clock plus a pending-event set.
///
/// Components schedule typed events (a Handler plus a 64-bit argument) at
/// absolute or relative times; `run()` fires them in (time, insertion) order
/// until the queue drains, `stop()` is called, or an event horizon is
/// reached. The kernel itself holds no model state, which keeps every
/// substrate (network, allocator, workload) independently testable against
/// a bare Simulator.
class Simulator {
 public:
  /// `engine` pins the event-queue engine for this kernel — how the benches
  /// compare engines within one process.
  explicit Simulator(EventEngine engine = EventEngine::kCalendar) : queue_(engine) {}

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `h` to fire with `arg` at absolute time `when`, which must be
  /// finite and >= now(); anything else throws std::invalid_argument.
  void schedule_at(SimTime when, Handler h, std::uint64_t arg = 0) {
    if (when < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    queue_.push(when, h, arg);  // rejects NaN and +inf (-inf is in the past)
  }

  /// Schedules `h` with `arg` `delay` time units from now (delay >= 0).
  void schedule_in(SimTime delay, Handler h, std::uint64_t arg = 0) {
    schedule_at(now_ + delay, h, arg);
  }

  /// Defers `h(arg)` to the end of the current timestamp batch: it runs once
  /// every pending event at the current time has fired (before the clock
  /// advances), in registration order. Deferred actions may schedule new
  /// events — including at the current time, which keeps the batch open —
  /// and may defer further actions. This is how a burst of same-timestamp
  /// completions triggers one scheduling pass instead of N: the model
  /// registers the pass once per timestamp instead of running it per event.
  /// Actions still pending when `stop()` ends a run are dropped, matching
  /// the pre-batching behaviour of work that never got to run.
  void at_batch_end(Handler h, std::uint64_t arg = 0) {
    batch_end_.push_back(Event{now_, 0, h.fire, h.ctx, arg});
  }

  /// Runs until the event queue is empty, `stop()` is called, or more than
  /// `max_events` events have fired (guard against runaway models).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Runs like `run()` but never past time `horizon`; events at exactly
  /// `horizon` still fire. The clock is left at min(horizon, last event).
  std::uint64_t run_until(SimTime horizon,
                          std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Makes `run()` return after the currently executing event completes.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

  /// Resets clock, queue and counters for a fresh replication.
  void reset() {
    queue_.clear();
    batch_end_.clear();
    now_ = 0;
    executed_ = 0;
    stopped_ = false;
  }

 private:
  /// Runs deferred batch-end actions until none remain or the batch reopens
  /// (an action scheduled a new event at the current time).
  void flush_batch();

  EventQueue queue_;
  std::vector<Event> batch_end_;      ///< deferred actions, registration order
  std::vector<Event> batch_scratch_;  ///< swap target during a flush
  SimTime now_{0};
  std::uint64_t executed_{0};
  bool stopped_{false};
};

}  // namespace procsim::des
