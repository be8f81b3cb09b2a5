#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace procsim::sched {

/// Free processors as a right-continuous step function of time: avail(t) is
/// the value of the last step at or before t, the final step extending to
/// infinity. Conservative backfilling builds one from the running set's
/// estimated releases; reservations subtract capacity over their interval.
/// Steps are kept strictly increasing in `t`, so the step active at an
/// instant is found by binary search — once per earliest_fit and once per
/// reserve, which splits and subtracts in the same forward pass.
class CapacityProfile {
 public:
  struct Step {
    double t;
    std::int64_t avail;
    friend bool operator==(const Step&, const Step&) = default;
  };

  CapacityProfile() { reset(0, 0); }
  CapacityProfile(double now, std::int64_t avail) { reset(now, avail); }

  /// Back to a single step {now, avail}; keeps the step storage.
  void reset(double now, std::int64_t avail) {
    steps_.clear();
    steps_.push_back({now, avail});
  }

  /// Capacity returning to the pool at `t` (>= the origin), e.g. a running
  /// job's estimated release. Must be fed in non-decreasing `t` order;
  /// releases at the same instant merge into one step.
  void add_release(double t, std::int64_t procs) {
    if (steps_.back().t == t) {
      steps_.back().avail += procs;
      return;
    }
    steps_.push_back({t, steps_.back().avail + procs});
  }

  /// Earliest start >= `from` at which `procs` processors stay available for
  /// `duration`. Always exists: the final step has every reservation-free
  /// processor back (a reservation-only subtraction ends).
  [[nodiscard]] double earliest_fit(double from, std::int64_t procs,
                                    double duration) const {
    std::size_t i = step_at(from);
    for (;;) {
      const double start = std::max(from, steps_[i].t);
      const double end = start + duration;
      // Scan the steps the interval [start, end) overlaps.
      std::size_t j = i;
      bool ok = steps_[i].avail >= procs;
      while (ok && j + 1 < steps_.size() && steps_[j + 1].t < end) {
        ++j;
        ok = steps_[j].avail >= procs;
      }
      if (ok) return start;
      // Restart after the violating step.
      i = j + 1;
      if (i >= steps_.size()) return steps_.back().t;  // unreachable by contract
    }
  }

  /// Subtracts `procs` over [t, t + duration) — a reservation. One pass:
  /// locate the step active at `t` once, split there, subtract forward up to
  /// t + duration and split at the end, restoring the capacity the last
  /// subtracted step had before.
  void reserve(double t, double duration, std::int64_t procs) {
    if (duration <= 0 || procs <= 0) return;
    const double end = t + duration;
    std::size_t i = step_at(t);
    if (t > steps_.front().t && steps_[i].t != t) {
      steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    Step{t, steps_[i].avail});
      ++i;
    }
    const std::size_t first = i;
    for (; i < steps_.size() && steps_[i].t < end; ++i) steps_[i].avail -= procs;
    if (i > first && (i == steps_.size() || steps_[i].t != end))
      steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i),
                    Step{end, steps_[i - 1].avail + procs});
  }

  /// Index of the step active at `t`: the last step at or before `t`, or the
  /// origin step when `t` precedes it.
  [[nodiscard]] std::size_t step_at(double t) const {
    const auto after = std::upper_bound(steps_.begin() + 1, steps_.end(), t,
                                        [](double v, const Step& s) { return v < s.t; });
    return static_cast<std::size_t>(after - steps_.begin()) - 1;
  }

  [[nodiscard]] const std::vector<Step>& steps() const noexcept { return steps_; }

 private:
  std::vector<Step> steps_;
};

}  // namespace procsim::sched
