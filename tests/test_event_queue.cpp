// Randomized equivalence suite for the calendar-queue event engine: the
// calendar queue must pop in exactly the (time, insertion-sequence) order of
// the binary-heap oracle over adversarial schedules — clustered timestamps,
// huge time jumps, interleaved push/pop, clear/reuse between replications —
// because that order *is* the determinism contract every figure CSV rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "verify_scope.hpp"

namespace {

using procsim::des::EventEngine;
using procsim::des::EventQueue;
using procsim::des::owned;
using procsim::des::SimTime;
using procsim::des::Xoshiro256SS;

static_assert(std::is_trivially_copyable_v<procsim::des::Event> &&
              sizeof(procsim::des::Event) <= 40);

/// Mirrors every operation onto a calendar queue and a heap oracle and
/// asserts pop-for-pop identity of (time, payload id). Payload ids are
/// unique per push, so equality proves the full order, including
/// same-timestamp FIFO tie-breaking.
class MirroredQueues {
 public:
  void push(SimTime t) {
    const auto id = static_cast<std::uint64_t>(next_id_++);
    calendar_.push(t, {&record, &calendar_fired_}, id);
    heap_.push(t, {&record, &heap_fired_}, id);
  }

  void pop_and_check() {
    ASSERT_FALSE(calendar_.empty());
    ASSERT_FALSE(heap_.empty());
    ASSERT_DOUBLE_EQ(calendar_.next_time(), heap_.next_time());
    const auto ev_c = calendar_.pop();
    const auto ev_h = heap_.pop();
    ASSERT_DOUBLE_EQ(ev_c.time, ev_h.time);
    last_pop_ = ev_c.time;
    ev_c.invoke();
    ev_h.invoke();
    ASSERT_EQ(calendar_fired_.back(), heap_fired_.back());
  }

  void drain_and_check() {
    // A failed pop check returns before popping; stop rather than spin.
    while (!heap_.empty() && !::testing::Test::HasFatalFailure()) pop_and_check();
    EXPECT_TRUE(calendar_.empty());
    EXPECT_EQ(calendar_fired_, heap_fired_);
  }

  void clear() {
    last_pop_ = 0;
    calendar_.clear();
    heap_.clear();
    calendar_fired_.clear();
    heap_fired_.clear();
  }

  [[nodiscard]] EventQueue& calendar() { return calendar_; }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Time of the last pop (0 before the first).
  [[nodiscard]] SimTime last_pop() const { return last_pop_; }

 private:
  static void record(void* fired, std::uint64_t id) {
    static_cast<std::vector<int>*>(fired)->push_back(static_cast<int>(id));
  }

  EventQueue calendar_{EventEngine::kCalendar};
  EventQueue heap_{EventEngine::kHeap};
  std::vector<int> calendar_fired_;
  std::vector<int> heap_fired_;
  int next_id_{0};
  SimTime last_pop_{0};
};

TEST(CalendarQueue, OrdersByTime) {
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
  q.push(3.0, owned(record), 3);
  q.push(1.0, owned(record), 1);
  q.push(2.0, owned(record), 2);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().invoke();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueue, SameTimestampPopsInInsertionOrder) {
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
  for (int i = 0; i < 1000; ++i) q.push(5.0, owned(record), static_cast<std::uint64_t>(i));
  while (!q.empty()) q.pop().invoke();
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(CalendarQueue, InterleavedTiesKeepScheduleOrder) {
  // Ties pushed in several rounds around pops: seq must still win.
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
  q.push(1.0, owned(record), 0);
  q.push(2.0, owned(record), 1);
  q.pop().invoke();                  // fires id 0 at t=1
  q.push(2.0, owned(record), 2);     // tie with id 1, later seq
  q.push(2.0, owned(record), 3);
  while (!q.empty()) q.pop().invoke();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueue, RandomizedEquivalenceUniformTimes) {
  Xoshiro256SS rng(0xCAFE);
  MirroredQueues m;
  double t = 0;
  for (int step = 0; step < 20000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.55) {
      t += procsim::des::sample_exponential(rng, 3.0);
      // Pushes go backwards in time too (anywhere >= the last pop): the
      // rewind path must keep the scan invariant.
      const double when =
          rng.next_double() < 0.2 ? t * rng.next_double() : t;
      m.push(when);
    } else {
      m.pop_and_check();
    }
  }
  m.drain_and_check();
}

TEST(CalendarQueue, RandomizedEquivalenceClusteredTimestamps) {
  // Few distinct timestamps, long same-time runs: the tie-breaking stress.
  Xoshiro256SS rng(0xBEEF);
  MirroredQueues m;
  for (int step = 0; step < 20000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.6) {
      const double when =
          static_cast<double>(procsim::des::sample_uniform_int(rng, 0, 7)) * 100.0;
      m.push(when);
    } else {
      m.pop_and_check();
    }
  }
  m.drain_and_check();
}

TEST(CalendarQueue, RandomizedEquivalenceHugeJumps) {
  // Mixed magnitudes up to 1e18: bucket math must survive virtual slot
  // numbers far beyond any integer range.
  Xoshiro256SS rng(0xDead);
  MirroredQueues m;
  double base = 0;
  for (int step = 0; step < 5000; ++step) {
    if (m.size() == 0 || rng.next_double() < 0.5) {
      const double magnitude = std::pow(10.0, procsim::des::sample_uniform_int(rng, 0, 18));
      m.push(base + rng.next_double() * magnitude);
    } else {
      auto before = m.size();
      m.pop_and_check();
      ASSERT_EQ(m.size(), before - 1);
    }
    if (step % 500 == 499) base += 1e17;  // the whole schedule leaps forward
  }
  m.drain_and_check();
}

TEST(CalendarQueue, RandomizedEquivalenceFigureRegime) {
  // The shape of the paper's 16x22 figure runs: a pending set of about 40
  // events that surges to about 350 (a job start injecting its packets),
  // many pushes at the current time (arbitration passes, same-cycle
  // ejections) and same-timestamp bursts, over cycle-quantized and
  // continuous times alike.
  Xoshiro256SS rng(0xF16);
  MirroredQueues m;
  double now = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 120000; ++step) {
    const std::size_t target = (step / 6000) % 4 == 3 ? 350 : 40;
    if (m.size() == 0 || (m.size() < target && rng.next_double() < 0.6)) {
      const double u = rng.next_double();
      if (u < 0.3) {
        m.push(now);
      } else if (u < 0.35) {
        const double at = now + static_cast<double>(
                                    procsim::des::sample_uniform_int(rng, 0, 12));
        const auto burst = procsim::des::sample_uniform_int(rng, 5, 20);
        for (std::int64_t k = 0; k < burst; ++k) m.push(at);
      } else {
        double delay = std::floor(procsim::des::sample_exponential(rng, 40.0));
        if (rng.next_double() < 0.5) delay += rng.next_double();
        m.push(now + delay);
      }
    } else {
      now = m.calendar().next_time();
      m.pop_and_check();
    }
    peak = std::max(peak, m.size());
  }
  m.drain_and_check();
  EXPECT_GE(peak, 300u);
}

TEST(CalendarQueue, SlotsStraddling2To53AndAWidthChange) {
  // Below the first re-bucketing the width is 1, so times around 2^53 are
  // slots around 2^53, where consecutive doubles are 2 apart. Then a surge
  // of pushes re-buckets to a new width mid-run with those events pending,
  // and the drain shrinks it again.
  Xoshiro256SS rng(0x2053);
  MirroredQueues m;
  const double base = 0x1p53;
  for (int step = 0; step < 4000; ++step) {
    if (m.size() == 0 || (m.size() < 24 && rng.next_double() < 0.55)) {
      const auto k = procsim::des::sample_uniform_int(rng, -64, 64);
      m.push(base + static_cast<double>(k));
    } else {
      m.pop_and_check();
    }
  }
  EXPECT_EQ(m.calendar().bucket_width(), 1.0);
  EXPECT_EQ(m.calendar().rebucket_count(), 0u);

  for (int i = 0; i < 400; ++i) {
    m.push(base + rng.next_double() * 1e6);
    if (i % 3 == 0) m.pop_and_check();
  }
  EXPECT_NE(m.calendar().bucket_width(), 1.0);
  EXPECT_GT(m.calendar().rebucket_count(), 0u);
  for (int i = 0; i < 200; ++i) {
    const auto k = procsim::des::sample_uniform_int(rng, -64, 64);
    m.push(base + static_cast<double>(k));
    m.pop_and_check();
  }
  m.drain_and_check();
}

TEST(CalendarQueue, SlotsBeyondTheClampKeepOrder) {
  // Times whose slot exceeds +-2^62 share one clamped slot per side; their
  // bucket keeps them (time, seq) sorted, so pop order stays exact.
  MirroredQueues m;
  const double far[] = {1e19, 1e300, -1e300, 5e18, -7e18, 1e19, 0.0, 1e300, -1.0, 3.5};
  for (int round = 0; round < 3; ++round) {
    for (const double t : far) m.push(t);
    for (int i = 0; i < 4; ++i) m.pop_and_check();
  }
  m.drain_and_check();
}

TEST(CalendarQueue, SubnormalSpreadKeepsTheWidth) {
  // A pending set spread over a few subnormals estimates a width whose
  // inverse overflows; the queue keeps its width rather than turn time 0
  // into a NaN slot.
  MirroredQueues m;
  for (int i = 0; i < 100; ++i)
    m.push(static_cast<double>(i % 7) * std::numeric_limits<double>::denorm_min());
  EXPECT_GT(m.calendar().rebucket_count(), 0u);
  EXPECT_EQ(m.calendar().bucket_width(), 1.0);
  m.drain_and_check();
}

TEST(CalendarQueue, ClearAndReuseBetweenReplications) {
  Xoshiro256SS rng(0x5EED);
  MirroredQueues m;
  for (int rep = 0; rep < 5; ++rep) {
    for (int step = 0; step < 3000; ++step) {
      if (m.size() == 0 || rng.next_double() < 0.6) {
        m.push(rng.next_double() * 1000.0);
      } else {
        m.pop_and_check();
      }
    }
    // Alternate full drains and mid-flight clears.
    if (rep % 2 == 0) m.drain_and_check();
    m.clear();
    EXPECT_EQ(m.calendar().size(), 0u);
    EXPECT_EQ(m.calendar().scheduled_count(), 0u);
  }
}

TEST(CalendarQueue, GrowthAndShrinkRebucketing) {
  EventQueue q(EventEngine::kCalendar);
  const std::size_t initial_buckets = q.bucket_count();
  Xoshiro256SS rng(7);
  double last = 0;
  auto noop = [] {};
  for (int i = 0; i < 100000; ++i)
    q.push(rng.next_double() * 1e6, owned(noop));
  EXPECT_GT(q.bucket_count(), initial_buckets);  // grew with the pending set
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.time, last);  // still ordered through every resize
    last = ev.time;
  }
  EXPECT_EQ(q.bucket_count(), initial_buckets);  // shrank back to the floor
}

TEST(CalendarQueue, CrossCheckModeAgreesOnRandomSchedule) {
  EventQueue q(EventEngine::kCrossCheck);
  Xoshiro256SS rng(0xAB);
  double t = 0;
  int fired = 0;
  auto count = [&fired] { ++fired; };
  for (int step = 0; step < 5000; ++step) {
    if (q.empty() || rng.next_double() < 0.55) {
      t += procsim::des::sample_exponential(rng, 1.0);
      q.push(t, owned(count));
    } else {
      q.pop().invoke();  // throws std::logic_error on any divergence
    }
  }
  while (!q.empty()) q.pop().invoke();
  EXPECT_GT(fired, 0);
}

TEST(CalendarQueue, DefaultEngineIsCalendar) {
  const procsim::testing::VerifyScope off(false);
  EventQueue q;
  EXPECT_EQ(q.engine(), EventEngine::kCalendar);
}

TEST(CalendarQueue, VerifyModeUpgradesOnlyTheCalendar) {
  const procsim::testing::VerifyScope on(true);
  EXPECT_EQ(EventQueue().engine(), EventEngine::kCrossCheck);
  EXPECT_EQ(EventQueue(EventEngine::kCalendar).engine(), EventEngine::kCrossCheck);
  EXPECT_EQ(EventQueue(EventEngine::kHeap).engine(), EventEngine::kHeap);
}

TEST(CalendarQueue, SimulatorRunsBitIdenticallyOnBothEngines) {
  // The same stochastic schedule drained through each engine must produce
  // the identical firing trace.
  std::vector<std::vector<double>> traces;
  for (const EventEngine engine :
       {EventEngine::kCalendar, EventEngine::kHeap, EventEngine::kCrossCheck}) {
    EventQueue q(engine);
    Xoshiro256SS rng(42);
    std::vector<double> fired;
    // Each event carries its own scheduled time, bit-cast into the argument.
    auto record = [&fired](std::uint64_t bits) {
      fired.push_back(std::bit_cast<double>(bits));
    };
    double t = 0;
    for (int i = 0; i < 200; ++i) {
      t += procsim::des::sample_exponential(rng, 2.0);
      q.push(t, owned(record), std::bit_cast<std::uint64_t>(t));
    }
    while (!q.empty()) {
      const auto ev = q.pop();
      ev.invoke();
    }
    traces.push_back(std::move(fired));
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

// ---------------------------------------------------------------------------
// The same-instant lane: pushes at the last pop's time bypass the buckets
// and merge back by (time, seq).
// ---------------------------------------------------------------------------

TEST(CalendarLane, MergesWithSameTimeCalendarEventsPushedEarlier) {
  for (const EventEngine engine : {EventEngine::kCalendar, EventEngine::kCrossCheck}) {
    EventQueue q(engine);
    std::vector<int> fired;
    auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
    q.push(2.0, owned(record), 0);
    q.push(2.0, owned(record), 1);
    q.push(2.0, owned(record), 2);
    q.push(3.0, owned(record), 9);
    EXPECT_EQ(q.lane_size(), 0u);  // nothing popped yet: no lane time
    q.pop().invoke();              // id 0 at t=2; ids 1, 2 wait in a bucket
    q.push(2.0, owned(record), 3);
    q.push(2.0, owned(record), 4);
    EXPECT_EQ(q.lane_size(), 2u);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
    q.pop().invoke();  // id 1: the bucket's earlier seq beats the lane front
    EXPECT_EQ(q.lane_size(), 2u);
    q.push(2.0, owned(record), 5);  // joins the lane behind ids 3 and 4
    EXPECT_EQ(q.lane_size(), 3u);
    while (!q.empty()) q.pop().invoke();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 9}));
    EXPECT_EQ(q.lane_size(), 0u);
  }
}

TEST(CalendarLane, RefusesPushesIntoThePast) {
  // The queue itself accepts times before the last pop (only the Simulator
  // forbids them); such an event must go to the buckets, and once it has
  // popped, the lane still holds only its own timestamp.
  MirroredQueues m;
  m.push(10.0);
  m.pop_and_check();  // last pop: t = 10
  m.push(10.0);
  EXPECT_EQ(m.calendar().lane_size(), 1u);
  m.push(5.0);  // into the past: buckets
  EXPECT_EQ(m.calendar().lane_size(), 1u);
  EXPECT_DOUBLE_EQ(m.calendar().next_time(), 5.0);
  m.pop_and_check();  // t = 5 from the buckets, ahead of the lane
  EXPECT_DOUBLE_EQ(m.last_pop(), 5.0);
  m.push(5.0);   // the lane holds t = 10: refused
  m.push(10.0);  // t = 10 is not the last pop's time: refused
  EXPECT_EQ(m.calendar().lane_size(), 1u);
  m.push(7.0);
  EXPECT_DOUBLE_EQ(m.calendar().next_time(), 5.0);
  m.drain_and_check();  // 5, 7, 10 (lane), 10 (bucket)
}

TEST(CalendarLane, ClearForgetsTheLaneBetweenReplications) {
  MirroredQueues m;
  m.push(4.0);
  m.pop_and_check();
  m.push(4.0);
  m.push(4.0);
  EXPECT_EQ(m.calendar().lane_size(), 2u);
  m.clear();
  EXPECT_EQ(m.calendar().lane_size(), 0u);
  EXPECT_TRUE(m.calendar().empty());
  m.push(4.0);  // no pop since clear(): the lane has no time yet
  EXPECT_EQ(m.calendar().lane_size(), 0u);
  m.push(1.0);
  m.pop_and_check();  // t = 1
  m.push(1.0);
  EXPECT_EQ(m.calendar().lane_size(), 1u);
  m.drain_and_check();
}

TEST(CalendarLane, RandomizedEquivalenceWithSameInstantPushes) {
  // Pushes at the last pop's time (the lane), into the past, at clustered
  // future times and far ahead, with mid-flight clears; the calendar must
  // pop exactly the heap's order throughout.
  Xoshiro256SS rng(0x1A4E);
  MirroredQueues m;
  std::size_t lane_seen = 0;
  for (int rep = 0; rep < 4; ++rep) {
    for (int step = 0; step < 20000; ++step) {
      if (m.size() == 0 || rng.next_double() < 0.55) {
        const double u = rng.next_double();
        const double now = m.last_pop();
        if (u < 0.4) {
          m.push(now);
        } else if (u < 0.5) {
          m.push(now * rng.next_double());  // the past (or now when 0)
        } else if (u < 0.8) {
          m.push(now + static_cast<double>(procsim::des::sample_uniform_int(rng, 0, 3)));
        } else {
          m.push(now + procsim::des::sample_exponential(rng, 50.0));
        }
        lane_seen = std::max(lane_seen, m.calendar().lane_size());
      } else {
        m.pop_and_check();
      }
    }
    if (rep % 2 == 0) m.drain_and_check();
    m.clear();
  }
  EXPECT_GT(lane_seen, 3u);
}

TEST(CalendarLane, CrossCheckShadowsLaneEvents) {
  // Under kCrossCheck every pop, lane pops included, is compared with the
  // heap shadow; a schedule that keeps the lane busy must stay clean.
  EventQueue q(EventEngine::kCrossCheck);
  int fired = 0;
  auto count = [&fired] { ++fired; };
  std::size_t lane_seen = 0;
  q.push(0.0, owned(count));
  for (int step = 0; step < 5000 && !q.empty(); ++step) {
    const auto ev = q.pop();
    ev.invoke();
    q.push(ev.time, owned(count));  // same instant: the lane
    if (step % 3 == 0) q.push(ev.time + 1.0, owned(count));
    lane_seen = std::max(lane_seen, q.lane_size());
    if (q.size() > 50) (void)q.pop();
  }
  while (!q.empty()) q.pop().invoke();
  EXPECT_GT(fired, 0);
  EXPECT_GT(lane_seen, 0u);
}

TEST(CalendarLane, HeapEngineHasNoLane) {
  EventQueue q(EventEngine::kHeap);
  auto noop = [] {};
  q.push(1.0, owned(noop));
  (void)q.pop();
  q.push(1.0, owned(noop));
  EXPECT_EQ(q.lane_size(), 0u);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
