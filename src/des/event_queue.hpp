#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "des/event.hpp"

namespace procsim::des {

/// Which pending-event structure an EventQueue uses.
///
///  * kCalendar — the production engine: a calendar queue (Brown 1988)
///    bucketed by time, O(1) push/pop under a stationary event-time profile,
///    with automatic re-bucketing as the pending set grows or shrinks.
///  * kHeap — the pre-calendar binary heap, kept as the randomized-
///    equivalence oracle (the OccupancyIndex / FreeSubmeshScan pattern).
///  * kCrossCheck — runs the calendar queue with a shadow (time, seq) heap
///    and verifies every pop against it; throws std::logic_error on the
///    first divergence. Every kCalendar queue runs as kCrossCheck under
///    PROCSIM_VERIFY=1 (util/verify.hpp).
///
/// Both engines implement the identical contract — events leave in strict
/// (time, insertion-sequence) order — so trajectories are bit-for-bit the
/// same whichever engine runs.
enum class EventEngine { kCalendar, kHeap, kCrossCheck };

/// Pending-event set of a discrete-event simulation, keyed by
/// (time, insertion sequence). Insertion order breaks timestamp ties so
/// identical seeds reproduce identical trajectories.
///
/// The calendar engines keep a same-instant lane beside the buckets: an
/// event pushed at the time of the last pop (the model's `now`, e.g. a
/// network arbitration pass) is appended to a FIFO instead of paying a
/// slot computation and a sorted bucket insert. The lane holds one
/// timestamp only — it admits an event while it is empty or holds that same
/// time — so it is sorted by (time, seq) by construction, and pop() and
/// next_time() merge its front with the calendar minimum by (time, seq).
/// That two-way merge is exact: pop order is the same with or without the
/// lane, and kCrossCheck's shadow heap sees lane events like any other.
/// A push into the past (before the last pop) never enters the lane.
class EventQueue {
 public:
  explicit EventQueue(EventEngine engine = EventEngine::kCalendar);

  /// Schedules `h` to fire with `arg` at absolute time `time`. Throws
  /// std::invalid_argument when `time` is NaN or infinite.
  void push(SimTime time, Handler h, std::uint64_t arg = 0);

  /// Removes and returns the earliest event. Precondition: !empty().
  [[nodiscard]] Event pop();

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Pending events, the lane's included.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Drops every pending event (used between replications). Bucket geometry
  /// resets to the initial configuration and the lane forgets the last pop
  /// time, so replications are independent.
  void clear();

  /// Total number of events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept { return next_seq_; }

  [[nodiscard]] EventEngine engine() const noexcept { return engine_; }

  // Calendar internals exposed read-only for tests/benchmarks.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  [[nodiscard]] double bucket_width() const noexcept { return width_; }
  /// Calendar resizes (grow + shrink) since construction/clear() — an
  /// observability counter: a run that rebuckets often has an event-time
  /// profile the bucket-width estimator keeps chasing.
  [[nodiscard]] std::uint64_t rebucket_count() const noexcept { return rebuckets_; }
  /// Events waiting in the same-instant lane (diagnostic; 0 for kHeap).
  [[nodiscard]] std::size_t lane_size() const noexcept {
    return lane_.size() - lane_head_;
  }

 private:
  /// One calendar bucket: events sorted ascending by (time, seq), consumed
  /// from `head` so a pop never shifts the vector. The popped prefix is
  /// reclaimed when the bucket empties; capacities persist across reuse.
  struct Bucket {
    std::vector<Event> items;
    std::size_t head{0};

    [[nodiscard]] bool drained() const noexcept { return head == items.size(); }
    [[nodiscard]] const Event& front() const noexcept { return items[head]; }
  };

  // -- calendar engine --------------------------------------------------
  /// Lane or buckets, whichever admits `ev` (see the class comment).
  void calendar_push(const Event& ev);
  /// The (time, seq)-earlier of the lane front and the bucket minimum.
  [[nodiscard]] Event calendar_pop();
  void bucket_push(const Event& ev);
  /// Pops the front of `min_bucket`, which find_min_bucket() returned.
  [[nodiscard]] Event bucket_pop(std::size_t min_bucket);
  /// Positions cur_slot_/cur_bucket_ on the bucket holding the earliest
  /// pending event (the calendar scan; falls back to a direct search after
  /// one full year). Precondition: bucket_size_ > 0. Logically const: only
  /// the scan cursor moves, never an event.
  std::size_t find_min_bucket() const;
  void rebucket(std::size_t new_bucket_count);
  void set_width(double width) noexcept;
  /// The virtual slot of `time`: time × (1 / width), truncated to an
  /// integer and clamped to ±2^62. Every step is monotone in time, so a
  /// later event never sits in an earlier slot, which is all pop order
  /// needs; events beyond the clamp share one slot and stay (time, seq)
  /// sorted inside its bucket.
  [[nodiscard]] std::int64_t slot_of(SimTime time) const noexcept;
  [[nodiscard]] std::size_t bucket_of_slot(std::int64_t slot) const noexcept {
    // The bucket count is a power of two: the slot's low bits are the
    // bucket, also for negative slots (two's complement).
    return static_cast<std::size_t>(static_cast<std::uint64_t>(slot) &
                                    (buckets_.size() - 1));
  }

  // -- heap engine (the oracle) -----------------------------------------
  void heap_push(const Event& ev);
  [[nodiscard]] Event heap_pop();

  EventEngine engine_;

  // Calendar state. cur_slot_/cur_bucket_ form the scan cursor; mutable so
  // next_time() can advance it (the subsequent pop then hits immediately).
  std::vector<Bucket> buckets_;
  double width_{1.0};
  double inv_width_{1.0};  ///< 1 / width_, so a slot costs one multiply
  mutable std::int64_t cur_slot_{0};
  mutable std::size_t cur_bucket_{0};

  // Heap state: a std::push_heap/std::pop_heap min-heap on EventLater. In
  // kCrossCheck the calendar holds the events and this shadow holds bare
  // (time, seq) keys for the pop-order identity assertion.
  std::vector<Event> heap_;

  // Same-instant lane: events at lane_.front().time in seq order, consumed
  // from lane_head_ (storage reclaimed when it drains, capacity kept).
  // last_pop_ is NaN until the first pop, so nothing enters the lane before.
  std::vector<Event> lane_;
  std::size_t lane_head_{0};
  SimTime last_pop_{std::numeric_limits<SimTime>::quiet_NaN()};

  std::size_t size_{0};         ///< pending events, lane included
  std::size_t bucket_size_{0};  ///< pending events in the buckets
  std::uint64_t next_seq_{0};
  std::uint64_t rebuckets_{0};
};

}  // namespace procsim::des
