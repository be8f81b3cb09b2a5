#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>
#include <limits>
#include <stdexcept>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "stats/welford.hpp"

// Every global allocation in this test binary is counted, so a test can pin
// that scheduling and firing events allocates nothing.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// GCC flags free() on memory from operator new, not knowing that this
// replacement's operator new is malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using procsim::des::EventQueue;
using procsim::des::owned;
using procsim::des::Simulator;
using procsim::des::Xoshiro256SS;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
  q.push(3.0, owned(record), 3);
  q.push(1.0, owned(record), 1);
  q.push(2.0, owned(record), 2);
  while (!q.empty()) q.pop().invoke();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  auto record = [&](std::uint64_t v) { fired.push_back(static_cast<int>(v)); };
  for (int i = 0; i < 10; ++i) q.push(5.0, owned(record), static_cast<std::uint64_t>(i));
  while (!q.empty()) q.pop().invoke();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RejectsNonFiniteTimes) {
  // A NaN event would fire and turn the clock into NaN; an infinite one
  // would never be reached. Both are rejected before anything is queued.
  EventQueue q;
  int fired = 0;
  auto count = [&] { ++fired; };
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), owned(count)),
               std::invalid_argument);
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), owned(count)),
               std::invalid_argument);
  EXPECT_THROW(q.push(-std::numeric_limits<double>::infinity(), owned(count)),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.scheduled_count(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1;
  auto probe = [&] { seen = sim.now(); };
  sim.schedule_at(7.5, owned(probe));
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  auto second = [&] { times.push_back(sim.now()); };
  auto first = [&] {
    times.push_back(sim.now());
    sim.schedule_in(3.0, owned(second));
  };
  sim.schedule_at(2.0, owned(first));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  auto noop = [] {};
  auto late = [&] { EXPECT_THROW(sim.schedule_at(5.0, owned(noop)), std::invalid_argument); };
  sim.schedule_at(10.0, owned(late));
  sim.run();
}

TEST(Simulator, NonFiniteTimesThrow) {
  Simulator sim;
  bool fired = false;
  auto mark = [&] { fired = true; };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sim.schedule_at(nan, owned(mark)), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(inf, owned(mark)), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(-inf, owned(mark)), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(nan, owned(mark)), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(inf, owned(mark)), std::invalid_argument);
  EXPECT_TRUE(sim.queue().empty());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, StopHaltsExecution) {
  Simulator sim;
  int fired = 0;
  auto tick = [&] {
    ++fired;
    if (fired == 10) sim.stop();
  };
  for (int i = 1; i <= 100; ++i) sim.schedule_at(i, owned(tick));
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.queue().size(), 90u);
}

TEST(Simulator, RunUntilRespectsHorizon) {
  Simulator sim;
  int fired = 0;
  auto tick = [&] { ++fired; };
  for (int i = 1; i <= 10; ++i) sim.schedule_at(i, owned(tick));
  sim.run_until(5.0);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  auto noop = [] {};
  sim.schedule_at(1.0, owned(noop));
  sim.run();
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulator, BatchEndRunsOncePerTimestamp) {
  // Three events at t=1 each defer work; the deferred actions run after the
  // whole t=1 batch, before the t=2 event.
  Simulator sim;
  std::vector<int> order;
  auto deferred = [&](std::uint64_t i) { order.push_back(10 + static_cast<int>(i)); };
  auto event = [&](std::uint64_t i) {
    order.push_back(static_cast<int>(i));
    sim.at_batch_end(owned(deferred), i);
  };
  auto last = [&] { order.push_back(99); };
  for (std::uint64_t i = 0; i < 3; ++i) sim.schedule_at(1.0, owned(event), i);
  sim.schedule_at(2.0, owned(last));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 99}));
}

TEST(Simulator, BatchEndActionKeepsBatchOpenWhenSchedulingAtNow) {
  // A deferred action schedules a same-time event, which defers again: the
  // batch reopens and the second deferral still runs before time advances.
  Simulator sim;
  std::vector<int> order;
  auto fourth = [&] { order.push_back(3); };
  auto third = [&] {
    order.push_back(2);
    sim.at_batch_end(owned(fourth));
  };
  auto second = [&] {
    order.push_back(1);
    sim.schedule_at(1.0, owned(third));
  };
  auto first = [&] {
    order.push_back(0);
    sim.at_batch_end(owned(second));
  };
  auto last = [&] { order.push_back(99); };
  sim.schedule_at(1.0, owned(first));
  sim.schedule_at(2.0, owned(last));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 99}));
}

TEST(Simulator, BatchEndDroppedOnStop) {
  Simulator sim;
  bool deferred_ran = false;
  auto deferred = [&] { deferred_ran = true; };
  auto stopper = [&] {
    sim.at_batch_end(owned(deferred));
    sim.stop();
  };
  sim.schedule_at(1.0, owned(stopper));
  sim.run();
  EXPECT_FALSE(deferred_ran);
  // reset() forgets the dropped action: it must not leak into the next run.
  sim.reset();
  auto noop = [] {};
  sim.schedule_at(1.0, owned(noop));
  sim.run();
  EXPECT_FALSE(deferred_ran);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  // A self-rescheduling event would run forever without the guard.
  std::function<void()> tick = [&] { sim.schedule_in(1.0, owned(tick)); };
  sim.schedule_at(0.0, owned(tick));
  const auto fired = sim.run(1000);
  EXPECT_EQ(fired, 1000u);
}

/// One self-rescheduling event chain that also defers a batch-end action
/// per event: the shape of the model's event traffic, on raw handlers.
struct Chain {
  Simulator* sim;
  std::uint64_t fired{0};
  std::uint64_t deferred{0};

  static void on_event(void* ctx, std::uint64_t step) {
    auto& c = *static_cast<Chain*>(ctx);
    ++c.fired;
    c.sim->at_batch_end({&on_batch_end, &c}, step);
    c.sim->schedule_in(static_cast<double>(1 + step % 3), {&on_event, &c}, step + 1);
  }
  static void on_batch_end(void* ctx, std::uint64_t) { ++static_cast<Chain*>(ctx)->deferred; }
};

TEST(Simulator, SchedulingAllocatesNothingOnceWarm) {
  // Events carry their payload in the 64-bit argument, so once the queue's
  // buckets and the batch-end vectors hold their steady-state capacity, a
  // long run allocates nothing at all.
  Simulator sim;
  Chain chain{&sim};
  sim.schedule_at(0.0, {&Chain::on_event, &chain});
  sim.run(200);  // warm-up: every bucket and vector reaches its capacity
  const std::size_t before = g_allocations;
  EXPECT_EQ(sim.run(20000), 20000u);
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(chain.fired, 20200u);
  EXPECT_EQ(chain.deferred, 20200u);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256SS a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256SS a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, JumpDecorrelatesStreams) {
  Xoshiro256SS a(7);
  Xoshiro256SS child = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == child()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256SS r(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Distributions, ExponentialMeanConverges) {
  Xoshiro256SS r(5);
  procsim::stats::Welford w;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_exponential(r, 42.0));
  EXPECT_NEAR(w.mean(), 42.0, 0.5);
}

TEST(Distributions, ExponentialRejectsBadMean) {
  Xoshiro256SS r(5);
  EXPECT_THROW((void)procsim::des::sample_exponential(r, 0.0), std::invalid_argument);
  EXPECT_THROW((void)procsim::des::sample_exponential(r, -1.0), std::invalid_argument);
}

TEST(Distributions, UniformIntCoversRangeUniformly) {
  Xoshiro256SS r(11);
  std::array<int, 6> counts{};
  for (int i = 0; i < 60000; ++i)
    ++counts[static_cast<std::size_t>(procsim::des::sample_uniform_int(r, 0, 5))];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Distributions, UniformIntBoundsInclusive) {
  Xoshiro256SS r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = procsim::des::sample_uniform_int(r, 3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Distributions, ExponentialCountAtLeastMin) {
  Xoshiro256SS r(17);
  procsim::stats::Welford w;
  for (int i = 0; i < 100000; ++i) {
    const auto n = procsim::des::sample_exponential_count(r, 5.0);
    EXPECT_GE(n, 1);
    w.add(static_cast<double>(n));
  }
  // Rounding + floor-at-1 nudges the mean slightly above 5.
  EXPECT_NEAR(w.mean(), 5.0, 0.5);
}

TEST(Distributions, NormalMoments) {
  Xoshiro256SS r(23);
  procsim::stats::Welford w;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_normal(r));
  EXPECT_NEAR(w.mean(), 0.0, 0.02);
  EXPECT_NEAR(w.stddev(), 1.0, 0.02);
}

TEST(Distributions, LognormalMeanMatchesFormula) {
  Xoshiro256SS r(29);
  procsim::stats::Welford w;
  const double mu = 1.0, sigma = 0.5;
  for (int i = 0; i < 200000; ++i) w.add(procsim::des::sample_lognormal(r, mu, sigma));
  EXPECT_NEAR(w.mean(), std::exp(mu + sigma * sigma / 2), 0.05);
}

TEST(Distributions, DiscreteRespectsWeights) {
  Xoshiro256SS r(31);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 100000; ++i)
    ++counts[procsim::des::sample_discrete(r, weights)];
  EXPECT_NEAR(counts[0], 10000, 600);
  EXPECT_NEAR(counts[1], 30000, 900);
  EXPECT_NEAR(counts[2], 60000, 900);
}

TEST(Distributions, DiscreteRejectsDegenerate) {
  Xoshiro256SS r(37);
  const std::vector<double> empty;
  EXPECT_THROW((void)procsim::des::sample_discrete(r, empty), std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW((void)procsim::des::sample_discrete(r, zeros), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW((void)procsim::des::sample_discrete(r, negative), std::invalid_argument);
}

}  // namespace
