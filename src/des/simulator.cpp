#include "des/simulator.hpp"

namespace procsim::des {

void Simulator::flush_batch() {
  // An action may defer further actions (batch_end_ refills) or schedule new
  // events at now_ (the caller's loop keeps the batch open); the swap keeps
  // iteration valid either way. batch_scratch_ recycles the vector capacity.
  while (!batch_end_.empty() && !stopped_ &&
         (queue_.empty() || queue_.next_time() > now_)) {
    batch_scratch_.clear();
    std::swap(batch_scratch_, batch_end_);
    for (const Event& action : batch_scratch_) {
      action.invoke();
      if (stopped_) break;
    }
  }
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t fired = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && fired < max_events) {
    const Event ev = queue_.pop();
    now_ = ev.time;
    ev.invoke();
    ++fired;
    ++executed_;
    // Timestamp exhausted: run the deferred batch-end work before the clock
    // advances. flush_batch re-checks, since an action may extend the batch.
    if (!batch_end_.empty() && (queue_.empty() || queue_.next_time() > now_))
      flush_batch();
  }
  return fired;
}

std::uint64_t Simulator::run_until(SimTime horizon, std::uint64_t max_events) {
  std::uint64_t fired = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && fired < max_events &&
         queue_.next_time() <= horizon) {
    const Event ev = queue_.pop();
    now_ = ev.time;
    ev.invoke();
    ++fired;
    ++executed_;
    if (!batch_end_.empty() && (queue_.empty() || queue_.next_time() > now_))
      flush_batch();
  }
  if (!stopped_ && (queue_.empty() || queue_.next_time() > horizon)) now_ = horizon;
  return fired;
}

}  // namespace procsim::des
