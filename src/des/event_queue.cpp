#include "des/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/verify.hpp"

namespace procsim::des {

namespace {

// Initial/minimum calendar geometry. Buckets double once the pending set
// exceeds kGrowFactor events per bucket and halve below 1/kShrinkDivisor,
// keeping the expected bucket occupancy O(1).
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
constexpr std::size_t kGrowFactor = 2;
constexpr std::size_t kShrinkDivisor = 4;
// Virtual slots are clamped to ±2^62, so the scan cursor can step a whole
// year past the clamp without overflowing an int64.
constexpr double kSlotLimit = 0x1p62;

[[nodiscard]] std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = kMinBuckets;
  while (p < n && p < kMaxBuckets) p <<= 1;
  return p;
}

[[nodiscard]] bool event_before(const Event& a, const Event& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

EventQueue::EventQueue(EventEngine engine)
    : engine_(engine == EventEngine::kCalendar && util::verify_enabled()
                  ? EventEngine::kCrossCheck
                  : engine) {
  if (engine_ != EventEngine::kHeap) buckets_.resize(kMinBuckets);
}

std::int64_t EventQueue::slot_of(SimTime time) const noexcept {
  const double s = time * inv_width_;
  return static_cast<std::int64_t>(s < -kSlotLimit ? -kSlotLimit
                                                   : (s > kSlotLimit ? kSlotLimit : s));
}

void EventQueue::set_width(double width) noexcept {
  // A width whose inverse is not finite (a subnormal spread) would turn
  // time 0 into a NaN slot; keep the current geometry instead.
  const double inv = 1.0 / width;
  if (!(width > 0) || !std::isfinite(inv)) return;
  width_ = width;
  inv_width_ = inv;
}

void EventQueue::push(SimTime time, Handler h, std::uint64_t arg) {
  if (!std::isfinite(time))
    throw std::invalid_argument("EventQueue: event time must be finite");
  const Event ev{time, next_seq_++, h.fire, h.ctx, arg};
  switch (engine_) {
    case EventEngine::kHeap:
      heap_push(ev);
      break;
    case EventEngine::kCalendar:
      calendar_push(ev);
      break;
    case EventEngine::kCrossCheck:
      heap_push(Event{time, ev.seq, nullptr, nullptr, 0});  // shadow key only
      calendar_push(ev);
      break;
  }
  ++size_;
}

Event EventQueue::pop() {
  --size_;
  if (engine_ == EventEngine::kHeap) return heap_pop();
  const Event out = calendar_pop();
  if (engine_ == EventEngine::kCrossCheck) {
    const Event shadow = heap_pop();
    if (shadow.time != out.time || shadow.seq != out.seq)
      throw std::logic_error(
          "EventQueue cross-check: calendar and heap pop order diverged");
  }
  return out;
}

SimTime EventQueue::next_time() const noexcept {
  if (engine_ == EventEngine::kHeap) return heap_.front().time;
  if (lane_head_ != lane_.size()) {
    const SimTime lane_time = lane_[lane_head_].time;
    if (bucket_size_ == 0) return lane_time;
    return std::min(lane_time, buckets_[find_min_bucket()].front().time);
  }
  return buckets_[find_min_bucket()].front().time;
}

void EventQueue::clear() {
  buckets_.clear();
  if (engine_ != EventEngine::kHeap) buckets_.resize(kMinBuckets);
  heap_.clear();
  width_ = 1.0;
  inv_width_ = 1.0;
  cur_slot_ = 0;
  cur_bucket_ = 0;
  lane_.clear();
  lane_head_ = 0;
  last_pop_ = std::numeric_limits<SimTime>::quiet_NaN();
  size_ = 0;
  bucket_size_ = 0;
  next_seq_ = 0;
  rebuckets_ = 0;
}

// ---------------------------------------------------------------------------
// Calendar engine
// ---------------------------------------------------------------------------

void EventQueue::calendar_push(const Event& ev) {
  // Same-instant lane: one timestamp at a time, appended in seq order.
  if (ev.time == last_pop_ &&
      (lane_head_ == lane_.size() || lane_[lane_head_].time == ev.time)) {
    lane_.push_back(ev);
    return;
  }
  bucket_push(ev);
  if (bucket_size_ > kGrowFactor * buckets_.size() && buckets_.size() < kMaxBuckets)
    rebucket(buckets_.size() * 2);
}

Event EventQueue::calendar_pop() {
  Event out;
  // One calendar scan per pop, shared by the merge and the bucket pop.
  const std::size_t min_bucket = bucket_size_ == 0 ? 0 : find_min_bucket();
  if (lane_head_ != lane_.size() &&
      (bucket_size_ == 0 ||
       event_before(lane_[lane_head_], buckets_[min_bucket].front()))) {
    out = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();  // keeps capacity
      lane_head_ = 0;
    }
  } else {
    out = bucket_pop(min_bucket);
    if (buckets_.size() > kMinBuckets && bucket_size_ < buckets_.size() / kShrinkDivisor)
      rebucket(buckets_.size() / 2);
  }
  last_pop_ = out.time;
  return out;
}

void EventQueue::bucket_push(const Event& ev) {
  const std::int64_t slot = slot_of(ev.time);
  if (bucket_size_ == 0 || slot < cur_slot_) {
    // The scan cursor never sits past a pending event: rewinding here is
    // what keeps the pop-side invariant (`no pending event lives in a slot
    // before cur_slot_`) true without ever searching on push.
    cur_slot_ = slot;
    cur_bucket_ = bucket_of_slot(slot);
  }
  Bucket& b = buckets_[bucket_of_slot(slot)];
  // Insert sorted by (time, seq), scanning from the back: pushes are mostly
  // time-ascending, and same-timestamp pushes carry an ascending seq, so the
  // common insertion point is the end.
  std::size_t pos = b.items.size();
  while (pos > b.head && event_before(ev, b.items[pos - 1])) --pos;
  if (pos == b.items.size())
    b.items.push_back(ev);
  else
    b.items.insert(b.items.begin() + static_cast<std::ptrdiff_t>(pos), ev);
  ++bucket_size_;
}

std::size_t EventQueue::find_min_bucket() const {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[cur_bucket_];
    // Only events in slot == cur_slot_ can satisfy this under the scan
    // invariant (nothing pending lives in an earlier slot), and one slot
    // maps to exactly one bucket — so a hit here is the global minimum.
    if (!b.drained() && slot_of(b.front().time) <= cur_slot_)
      return cur_bucket_;
    ++cur_slot_;
    cur_bucket_ = (cur_bucket_ + 1) & (buckets_.size() - 1);
  }
  // A whole year without a due event (a sparse far-future pending set, such
  // as times past 2^53 at width 1, which lie at least two slots apart):
  // locate the minimum directly and resync the cursor. O(buckets), amortized
  // away by re-bucketing.
  const Bucket* best = nullptr;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    if (b.drained()) continue;
    if (best == nullptr || event_before(b.front(), best->front())) {
      best = &b;
      best_idx = i;
    }
  }
  cur_slot_ = slot_of(best->front().time);
  cur_bucket_ = best_idx;
  return best_idx;
}

Event EventQueue::bucket_pop(std::size_t min_bucket) {
  Bucket& b = buckets_[min_bucket];
  const Event out = b.items[b.head];
  ++b.head;
  if (b.drained()) {
    b.items.clear();  // reclaims the popped prefix, keeps capacity
    b.head = 0;
  }
  --bucket_size_;
  return out;
}

void EventQueue::rebucket(std::size_t new_bucket_count) {
  new_bucket_count = pow2_at_least(new_bucket_count);
  ++rebuckets_;

  // Drain the old calendar bucket by bucket. Events sharing a timestamp
  // always share a bucket and are seq-sorted there, so the scratch vector
  // preserves relative order within every timestamp — re-inserting from it
  // keeps each new bucket's (time, seq) order intact.
  std::vector<Event> scratch;
  scratch.reserve(bucket_size_);
  for (Bucket& b : buckets_)
    for (std::size_t i = b.head; i < b.items.size(); ++i)
      scratch.push_back(b.items[i]);
  buckets_.assign(new_bucket_count, Bucket{});

  // Width from the event-time spread, robust to far-future outliers: the
  // 10th-to-90th percentile span of a deterministic strided sample, spread
  // over the events it covers. Aim for ~1 event per occupied slot.
  if (scratch.size() >= 2) {
    std::vector<double> sample;
    const std::size_t stride = std::max<std::size_t>(1, scratch.size() / 4096);
    for (std::size_t i = 0; i < scratch.size(); i += stride)
      sample.push_back(scratch[i].time);
    std::sort(sample.begin(), sample.end());
    const double lo = sample[sample.size() / 10];
    const double hi = sample[sample.size() - 1 - sample.size() / 10];
    const double span = hi - lo;
    if (span > 0) {
      const double covered =
          0.8 * static_cast<double>(scratch.size());  // events inside [lo, hi]
      set_width(span / std::max(1.0, covered));
    }
    // span == 0 (clustered timestamps): keep the current width.
  }

  double min_time = 0;
  std::uint64_t min_seq = 0;
  bool have_min = false;
  for (const Event& ev : scratch) {
    if (!have_min || ev.time < min_time ||
        (ev.time == min_time && ev.seq < min_seq)) {
      min_time = ev.time;
      min_seq = ev.seq;
      have_min = true;
    }
    Bucket& b = buckets_[bucket_of_slot(slot_of(ev.time))];
    std::size_t pos = b.items.size();
    while (pos > 0 && event_before(ev, b.items[pos - 1])) --pos;
    b.items.insert(b.items.begin() + static_cast<std::ptrdiff_t>(pos), ev);
  }
  cur_slot_ = have_min ? slot_of(min_time) : 0;
  cur_bucket_ = bucket_of_slot(cur_slot_);
}

// ---------------------------------------------------------------------------
// Heap engine (the oracle). std::push_heap/std::pop_heap on EventLater; the
// old std::priority_queue needed a const_cast to move the top out, which was
// UB-adjacent — pop_heap hands the element back legitimately.
// ---------------------------------------------------------------------------

void EventQueue::heap_push(const Event& ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

Event EventQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  const Event out = heap_.back();
  heap_.pop_back();
  return out;
}

}  // namespace procsim::des
