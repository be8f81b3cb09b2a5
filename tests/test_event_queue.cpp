// Randomized equivalence suite for the calendar-queue event engine: the
// calendar queue must pop in exactly the (time, insertion-sequence) order of
// the binary-heap oracle over adversarial schedules — clustered timestamps,
// huge time jumps, interleaved push/pop, clear/reuse between replications —
// because that order *is* the determinism contract every figure CSV rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "verify_scope.hpp"

namespace {

using procsim::des::EventEngine;
using procsim::des::EventQueue;
using procsim::des::SimTime;
using procsim::des::Xoshiro256SS;

/// Mirrors every operation onto a calendar queue and a heap oracle and
/// asserts pop-for-pop identity of (time, payload id). Payload ids are
/// unique per push, so equality proves the full order, including
/// same-timestamp FIFO tie-breaking.
class MirroredQueues {
 public:
  void push(SimTime t) {
    const int id = next_id_++;
    calendar_.push(t, [this, id] { calendar_fired_.push_back(id); });
    heap_.push(t, [this, id] { heap_fired_.push_back(id); });
  }

  void pop_and_check() {
    ASSERT_FALSE(calendar_.empty());
    ASSERT_FALSE(heap_.empty());
    ASSERT_DOUBLE_EQ(calendar_.next_time(), heap_.next_time());
    auto ev_c = calendar_.pop();
    auto ev_h = heap_.pop();
    ASSERT_DOUBLE_EQ(ev_c.time, ev_h.time);
    ev_c.action();
    ev_h.action();
    ASSERT_EQ(calendar_fired_.back(), heap_fired_.back());
  }

  void drain_and_check() {
    while (!heap_.empty()) pop_and_check();
    EXPECT_TRUE(calendar_.empty());
    EXPECT_EQ(calendar_fired_, heap_fired_);
  }

  void clear() {
    calendar_.clear();
    heap_.clear();
    calendar_fired_.clear();
    heap_fired_.clear();
  }

  [[nodiscard]] EventQueue& calendar() { return calendar_; }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  EventQueue calendar_{EventEngine::kCalendar};
  EventQueue heap_{EventEngine::kHeap};
  std::vector<int> calendar_fired_;
  std::vector<int> heap_fired_;
  int next_id_{0};
};

TEST(CalendarQueue, OrdersByTime) {
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueue, SameTimestampPopsInInsertionOrder) {
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) q.push(5.0, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(CalendarQueue, InterleavedTiesKeepScheduleOrder) {
  // Ties pushed in several rounds around pops: seq must still win.
  EventQueue q(EventEngine::kCalendar);
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(0); });
  q.push(2.0, [&] { fired.push_back(1); });
  q.pop().action();                           // fires id 0 at t=1
  q.push(2.0, [&] { fired.push_back(2); });   // tie with id 1, later seq
  q.push(2.0, [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().action();
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
  for (int i = 0; i < 100000; ++i)
    q.push(rng.next_double() * 1e6, [] {});
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
  for (int step = 0; step < 5000; ++step) {
    if (q.empty() || rng.next_double() < 0.55) {
      t += procsim::des::sample_exponential(rng, 1.0);
      q.push(t, [&fired] { ++fired; });
    } else {
      q.pop().action();  // throws std::logic_error on any divergence
    }
  }
  while (!q.empty()) q.pop().action();
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
    double t = 0;
    for (int i = 0; i < 200; ++i) {
      t += procsim::des::sample_exponential(rng, 2.0);
      q.push(t, [&fired, t] { fired.push_back(t); });
    }
    while (!q.empty()) {
      auto ev = q.pop();
      ev.action();
    }
    traces.push_back(std::move(fired));
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

}  // namespace
