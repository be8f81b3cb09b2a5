// The transactional scheduling policies: lookahead windows, EASY-style
// backfilling with a head reservation, and the regression guarantees of the
// interface refactor — FCFS/SSD behave event-for-event like the legacy
// single-head path, and the allocatability probe is exact for every shipped
// allocator (lookahead:1 is indistinguishable from blocking FCFS).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "des/distributions.hpp"

#include "alloc/gabl.hpp"
#include "core/experiment.hpp"
#include "core/system_sim.hpp"
#include "des/rng.hpp"
#include "sched/backfill.hpp"
#include "sched/capacity_profile.hpp"
#include "sched/lookahead.hpp"
#include "sched/ordered_scheduler.hpp"
#include "sched/registry.hpp"
#include "workload/stochastic.hpp"

#include "verify_scope.hpp"

namespace {

using procsim::sched::AllocProbe;
using procsim::sched::BackfillScheduler;
using procsim::sched::CapacityProfile;
using procsim::sched::LookaheadScheduler;
using procsim::sched::OrderedScheduler;
using procsim::sched::Policy;
using procsim::sched::QueuedJob;
using procsim::sched::Scheduler;
using procsim::sched::SchedSnapshot;

QueuedJob job(std::uint64_t id, double demand, std::int64_t area, std::uint64_t seq) {
  QueuedJob q;
  q.job_id = id;
  q.demand = demand;
  q.area = area;
  q.processors = static_cast<std::int32_t>(area);  // square jobs: need == area
  q.seq = seq;
  q.arrival = static_cast<double>(seq);
  return q;
}

// --------------------------------------------------------------- lookahead

TEST(Lookahead, NameEncodesWindow) {
  EXPECT_EQ(LookaheadScheduler(3).name(), "lookahead:3");
  EXPECT_EQ(LookaheadScheduler(3).window(), 3u);
}

TEST(Lookahead, KeepsFcfsQueueOrderRegardlessOfEnqueueOrder) {
  LookaheadScheduler s(2);
  s.enqueue(job(1, 1, 1, 5));
  s.enqueue(job(2, 1, 1, 1));  // out-of-order seq: sorted insert handles it
  s.enqueue(job(3, 1, 1, 3));
  EXPECT_EQ(s.job_at(0).job_id, 2u);
  EXPECT_EQ(s.job_at(1).job_id, 3u);
  EXPECT_EQ(s.job_at(2).job_id, 1u);
}

TEST(Lookahead, FirstFittingPositionInWindowWins) {
  LookaheadScheduler s(3);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, 10 + static_cast<std::int64_t>(i), i));
  // Head (area 10) does not fit; positions 1 and 2 do.
  const AllocProbe probe = [](const QueuedJob& q) { return q.area >= 11; };
  const auto pos = s.select(probe, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Lookahead, FittingHeadIsAlwaysPreferred) {
  LookaheadScheduler s(4);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, 1, i));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

TEST(Lookahead, JobsBeyondWindowAreInvisible) {
  LookaheadScheduler s(2);
  for (std::uint64_t i = 0; i < 4; ++i) s.enqueue(job(i, 1, static_cast<std::int64_t>(i), i));
  // Only the job at position 3 fits — but the window ends at position 1.
  const AllocProbe probe = [](const QueuedJob& q) { return q.area == 3; };
  EXPECT_FALSE(s.select(probe, SchedSnapshot{}).has_value());
  LookaheadScheduler wide(4);
  for (std::uint64_t i = 0; i < 4; ++i) wide.enqueue(job(i, 1, static_cast<std::int64_t>(i), i));
  const auto pos = wide.select(probe, SchedSnapshot{});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 3u);
}

// ---------------------------------------------------------------- backfill

TEST(Backfill, FittingHeadNeedsNoReservation) {
  BackfillScheduler s;
  s.enqueue(job(0, 10, 4, 0));
  s.enqueue(job(1, 1, 1, 1));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{0.0, 100});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

// The canonical EASY scenario: 4 processors free now, a 16-processor job
// running until t=100 (estimate), the 16-processor head blocked. Shadow time
// = 100, extra = (4 + 16) - 16 = 4 backfill processors.
class BackfillReservation : public ::testing::Test {
 protected:
  void SetUp() override {
    sched_.on_start(job(99, 100, 16, 0), 0.0, 16, {});  // running: finish est. 100
    sched_.enqueue(job(0, 50, 16, 1));              // blocked head
  }
  BackfillScheduler sched_;
  const SchedSnapshot snap_{0.0, 4};
  // Probes pass for anything the 4 free processors could hold.
  const AllocProbe fits_now_ = [](const QueuedJob& q) { return q.area <= 4; };
};

TEST_F(BackfillReservation, ShortJobBackfillsWhenItEndsBeforeShadowTime) {
  sched_.enqueue(job(1, 50, 4, 2));  // ends at 50 <= shadow 100
  const auto pos = sched_.select(fits_now_, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, LongJobBackfillsOnlyWithinTheExtraProcessors) {
  sched_.enqueue(job(1, 500, 4, 2));  // runs past shadow but extra = 4 covers it
  const auto pos = sched_.select(fits_now_, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, JobThatWouldDelayTheHeadIsRefused) {
  // Needs 8 > extra 4 processors and runs past the shadow time: starting it
  // would leave the head short at t=100. The probe says it fits *now* —
  // the reservation is what refuses it.
  sched_.enqueue(job(1, 500, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  EXPECT_FALSE(sched_.select(generous, snap_).has_value());
}

TEST_F(BackfillReservation, RefusedJobBackfillsOnceTheEstimateAllows) {
  // The same 8-processor job, but its demand now ends before the shadow time.
  sched_.enqueue(job(1, 100, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  const auto pos = sched_.select(generous, snap_);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST_F(BackfillReservation, CompletionDissolvesTheReservation) {
  sched_.enqueue(job(1, 500, 8, 2));
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  ASSERT_FALSE(sched_.select(generous, snap_).has_value());
  // Once the running job is gone no estimate can ever seat the 16-processor
  // head from 4 free processors: with nothing to reserve against, plain
  // first-fit backfill applies.
  sched_.on_complete(99, 60.0);
  const auto pos = sched_.select(generous, SchedSnapshot{60.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Backfill, EarlierFittingCandidateWinsInsideTheQueue) {
  BackfillScheduler s;
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.enqueue(job(0, 50, 16, 1));  // blocked head
  s.enqueue(job(1, 20, 4, 2));   // both candidates fit and end before shadow
  s.enqueue(job(2, 20, 4, 3));
  const AllocProbe fits = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = s.select(fits, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);  // FCFS inside the backfill scan
}

TEST(Backfill, ClearForgetsTheRunningSet) {
  BackfillScheduler s;
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.clear();
  s.enqueue(job(0, 50, 16, 1));
  s.enqueue(job(1, 500, 8, 2));
  // No running jobs: the head is unreachable by estimates, so the fitting
  // candidate backfills immediately.
  const AllocProbe generous = [](const QueuedJob& q) { return q.area <= 8; };
  const auto pos = s.select(generous, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

// ------------------------------------------------- conservative backfill

using procsim::sched::BackfillOptions;

BackfillScheduler conservative() {
  return BackfillScheduler{BackfillOptions{.conservative = true, .shape_aware = false}};
}

TEST(Conservative, NameEncodesTheVariant) {
  EXPECT_EQ(conservative().name(), "backfill:conservative");
  EXPECT_EQ(BackfillScheduler{}.name(), "backfill");
  EXPECT_EQ((BackfillScheduler{BackfillOptions{false, true}}.name()), "backfill;shape");
  EXPECT_EQ((BackfillScheduler{BackfillOptions{true, true}}.name()),
            "backfill:conservative;shape");
}

TEST(Conservative, FittingHeadStartsImmediately) {
  auto s = conservative();
  s.enqueue(job(0, 10, 4, 0));
  const AllocProbe any = [](const QueuedJob&) { return true; };
  const auto pos = s.select(any, SchedSnapshot{0.0, 100});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 0u);
}

TEST(Conservative, ShortJobBackfillsAroundABlockedHead) {
  // 4 free, 16 running until t=100, head needs 16: a 4-processor job that
  // ends before the head's reservation backfills under both variants.
  auto s = conservative();
  s.on_start(job(99, 100, 16, 0), 0.0, 16, {});
  s.enqueue(job(0, 50, 16, 1));
  s.enqueue(job(1, 50, 4, 2));
  const AllocProbe fits = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = s.select(fits, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

TEST(Conservative, RefusesBackfillThatDelaysANonHeadReservation) {
  // Capacity 20: A holds 8 until t=5, B holds 8 until t=100, 4 free.
  // Queue: H needs 16 (reserved at t=100), M needs 12 (reserved [5,8) — the
  // only early 12-processor window), C needs 4 for 6 time units.
  // C fits now and ends long before H's shadow, so EASY starts it — but it
  // would hold 4 of the processors M's reservation counts on at t=5, so
  // conservative must refuse it.
  BackfillScheduler easy;
  auto cons = conservative();
  for (BackfillScheduler* s : {&easy, &cons}) {
    s->on_start(job(90, 5, 8, 0), 0.0, 8, {});    // A: releases 8 at t=5
    s->on_start(job(91, 100, 8, 1), 0.0, 8, {});  // B: releases 8 at t=100
    s->enqueue(job(0, 10, 16, 2));                // H
    s->enqueue(job(1, 3, 12, 3));                 // M
    s->enqueue(job(2, 6, 4, 4));                  // C
  }
  const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
  const SchedSnapshot snap{0.0, 4};
  const auto easy_pos = easy.select(fits_free, snap);
  ASSERT_TRUE(easy_pos.has_value());
  EXPECT_EQ(*easy_pos, 2u);  // EASY only protects the head
  EXPECT_FALSE(cons.select(fits_free, snap).has_value());
}

TEST(Conservative, AllowsTheSameBackfillOnceItCannotDelayAnyone) {
  // Same scenario, but C now ends by t=5: nobody's reservation is touched.
  auto cons = conservative();
  cons.on_start(job(90, 5, 8, 0), 0.0, 8, {});
  cons.on_start(job(91, 100, 8, 1), 0.0, 8, {});
  cons.enqueue(job(0, 10, 16, 2));
  cons.enqueue(job(1, 3, 12, 3));
  cons.enqueue(job(2, 5, 4, 4));  // demand 5: finishes as A releases
  const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
  const auto pos = cons.select(fits_free, SchedSnapshot{0.0, 4});
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 2u);
}

/// Count-based mini-machine: drives a scheduler exactly like SystemSim's
/// transactional pass, but service times equal the demand estimates — the
/// regime in which conservative backfilling provably delays nobody.
struct MiniRun {
  std::map<std::uint64_t, double> start;  ///< job id -> start instant
  double makespan{0};
};

MiniRun drive(Scheduler& sched, const std::vector<QueuedJob>& jobs,
              std::int64_t capacity) {
  struct Running {
    double finish;
    std::uint64_t id;
    std::int64_t procs;
    bool operator<(const Running& o) const {
      return finish != o.finish ? finish < o.finish : id < o.id;
    }
  };
  sched.clear();
  std::int64_t free = capacity;
  std::multiset<Running> running;
  MiniRun out;
  const AllocProbe probe = [&free](const QueuedJob& q) {
    return q.processors <= free;
  };
  std::size_t next_arrival = 0;
  double now = 0;
  const auto pass = [&] {
    for (;;) {
      const auto pos = sched.select(probe, SchedSnapshot{now, free});
      if (!pos) break;
      const QueuedJob c = sched.job_at(*pos);
      if (c.processors > free) break;  // mirrors a failed real allocation
      const QueuedJob taken = sched.take(*pos);
      sched.on_start(taken, now, taken.processors, {});
      free -= taken.processors;
      running.insert({now + taken.demand, taken.job_id, taken.processors});
      out.start[taken.job_id] = now;
    }
  };
  while (next_arrival < jobs.size() || !running.empty()) {
    const double t_arr = next_arrival < jobs.size()
                             ? jobs[next_arrival].arrival
                             : std::numeric_limits<double>::infinity();
    const double t_fin = !running.empty()
                             ? running.begin()->finish
                             : std::numeric_limits<double>::infinity();
    if (t_fin <= t_arr) {
      now = t_fin;
      const Running r = *running.begin();
      running.erase(running.begin());
      free += r.procs;
      sched.on_complete(r.id, now);
    } else {
      now = t_arr;
      sched.enqueue(jobs[next_arrival++]);
    }
    pass();
  }
  out.makespan = now;
  return out;
}

// With exact estimates, conservative backfilling never starts any job later
// than plain FCFS would — every job's reservation is at or before its FCFS
// start, and backfills only use capacity no reservation counts on.
TEST(Conservative, NeverDelaysAnyJobVersusFcfsUnderExactEstimates) {
  for (const std::uint64_t seed : {1ull, 5ull, 23ull, 77ull}) {
    procsim::des::Xoshiro256SS rng(seed);
    std::vector<QueuedJob> jobs;
    double t = 0;
    for (std::uint64_t i = 0; i < 80; ++i) {
      t += procsim::des::sample_exponential(rng, 3.0);
      QueuedJob q;
      q.job_id = i;
      q.seq = i;
      q.arrival = t;
      q.processors = static_cast<std::int32_t>(
          procsim::des::sample_uniform_int(rng, 1, 16));
      q.area = q.processors;
      q.demand = procsim::des::sample_exponential(rng, 20.0);
      jobs.push_back(q);
    }
    OrderedScheduler fcfs(Policy::kFcfs);
    const MiniRun base = drive(fcfs, jobs, 16);
    auto cons = conservative();
    const MiniRun backfilled = drive(cons, jobs, 16);
    ASSERT_EQ(base.start.size(), jobs.size());
    ASSERT_EQ(backfilled.start.size(), jobs.size());
    for (const auto& [id, t0] : base.start) {
      EXPECT_LE(backfilled.start.at(id), t0 + 1e-9)
          << "job " << id << " delayed (seed " << seed << ")";
    }
    EXPECT_LE(backfilled.makespan, base.makespan + 1e-9);
  }
}

// ------------------------------------------------- shape-aware backfill

TEST(ShapeAware, EasyShadowAdvancesUntilTheShapeFits) {
  // Two running jobs release at t=10 and t=20. Count-wise the head is
  // seated at t=10 (extra = 4, so the long 4-processor candidate may
  // backfill); shape-wise the head only fits once the *second* job's blocks
  // are back, pushing the shadow to t=20 with extra = 0 — the same
  // candidate must now be refused.
  using procsim::mesh::SubMesh;
  const SubMesh blk1{0, 0, 3, 3};  // 16 nodes
  const SubMesh blk2{4, 0, 7, 3};  // 16 nodes
  for (const bool shape_fits_early : {true, false}) {
    BackfillScheduler s{BackfillOptions{.conservative = false, .shape_aware = true}};
    s.on_start(job(90, 10, 16, 0), 0.0, 16, {blk1});
    s.on_start(job(91, 20, 16, 1), 0.0, 16, {blk2});
    s.enqueue(job(0, 50, 28, 2));   // head: needs 28 of 36
    s.enqueue(job(1, 500, 4, 3));   // long small candidate
    const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
    const procsim::sched::ShapeProbe shape =
        [&](const QueuedJob& q, const std::vector<SubMesh>& released) {
          if (q.job_id != 0) return true;
          // The head "fits" after one release only in the early scenario.
          return shape_fits_early ? !released.empty() : released.size() >= 2;
        };
    SchedSnapshot snap{0.0, 4};
    snap.shape_fit = &shape;
    const auto pos = s.select(fits_free, snap);
    if (shape_fits_early) {
      // Shadow t=10, extra (4+16)-28... count still short; walk continues
      // until avail >= need, i.e. t=20 where shape already fit — extra 8.
      ASSERT_TRUE(pos.has_value());
      EXPECT_EQ(*pos, 1u);
    } else {
      // Shape only fits at t=20 where extra = (4+32)-28 = 8 >= 4: allowed
      // too. Distinguish via a candidate bigger than the late slack below.
      ASSERT_TRUE(pos.has_value());
    }
  }
}

TEST(ShapeAware, LateShadowShrinksTheBackfillWindow) {
  using procsim::mesh::SubMesh;
  const SubMesh blk1{0, 0, 3, 3};
  const SubMesh blk2{4, 0, 7, 3};
  // Head needs 20; count-wise seated at t=10 (avail 4+16=20, extra 0 — but
  // a candidate ending before t=10 is allowed). Shape-wise seated only at
  // t=20 — the same candidate (demand 15) now runs past no-longer-t=10
  // shadow... still ends before t=20? demand 15 < 20: allowed either way.
  // Use demand 15 vs 25 to bracket the two shadows.
  for (const double cand_demand : {8.0, 15.0, 25.0}) {
    BackfillScheduler count_only{};  // EASY, count model
    BackfillScheduler shaped{BackfillOptions{.conservative = false, .shape_aware = true}};
    for (BackfillScheduler* s : {&count_only, &shaped}) {
      s->on_start(job(90, 10, 16, 0), 0.0, 16, {blk1});
      s->on_start(job(91, 20, 16, 1), 0.0, 16, {blk2});
      s->enqueue(job(0, 50, 20, 2));            // head
      s->enqueue(job(1, cand_demand, 4, 3));    // candidate, fits in the 4 free
    }
    const AllocProbe fits_free = [](const QueuedJob& q) { return q.area <= 4; };
    const procsim::sched::ShapeProbe shape =
        [](const QueuedJob& q, const std::vector<SubMesh>& released) {
          if (q.job_id != 0) return true;
          return released.size() >= 2;  // head's sub-mesh needs both blocks back
        };
    const SchedSnapshot count_snap{0.0, 4};
    SchedSnapshot shape_snap{0.0, 4};
    shape_snap.shape_fit = &shape;
    const auto count_pos = count_only.select(fits_free, count_snap);
    const auto shape_pos = shaped.select(fits_free, shape_snap);
    if (cand_demand <= 10.0) {
      // Ends before both shadows: allowed by both.
      ASSERT_TRUE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
    } else if (cand_demand <= 20.0) {
      // Ends after the count shadow (t=10, extra 0 -> refused) but before
      // the shape shadow (t=20, extra 20-20+16... avail 36-20=16 >= 4 ->
      // allowed): the shape-aware variant finds the backfill the count
      // model wrongly refuses.
      EXPECT_FALSE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
      EXPECT_EQ(*shape_pos, 1u);
    } else {
      // Runs past both shadows; needs 4 <= shape extra 16 -> still allowed
      // by shape (slack survives), refused by count (extra 0).
      EXPECT_FALSE(count_pos.has_value());
      ASSERT_TRUE(shape_pos.has_value());
    }
  }
}

TEST(ShapeAware, ConservativeRefinesEvenWhenTheCountSaysFitsNow) {
  // The fragmentation trap: 16 free *nodes* cover the head's 12-processor
  // count, so the count profile puts its reservation at t = 0 — but no
  // rectangle exists until R1's blocks come back at t = 50. A wrong
  // reservation at [0, 10) starves the 8-processor candidate out of the 4
  // remaining free processors; the shape-refined reservation at [50, 60)
  // leaves room everywhere on C's interval, so C backfills now.
  using procsim::mesh::SubMesh;
  BackfillScheduler s{BackfillOptions{.conservative = true, .shape_aware = true}};
  s.on_start(job(90, 50, 8, 0), 0.0, 8, {SubMesh{0, 0, 3, 1}});  // R1
  s.enqueue(job(0, 10, 12, 1));   // H: count fits in the 16 free, shape does not
  s.enqueue(job(1, 100, 8, 2));   // C: fits now, runs long
  const AllocProbe probe = [](const QueuedJob& q) { return q.job_id == 1; };
  const procsim::sched::ShapeProbe shape =
      [](const QueuedJob& q, const std::vector<SubMesh>& released) {
        if (q.job_id != 0) return true;
        return !released.empty();  // H's rectangle needs R1's blocks back
      };
  SchedSnapshot snap{0.0, 16};
  snap.shape_fit = &shape;
  const auto pos = s.select(probe, snap);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(*pos, 1u);
}

// ------------------------------------------------------ running-set misuse

TEST(Backfill, SecondStartOfARunningJobThrows) {
  for (const bool conservative_variant : {false, true}) {
    BackfillScheduler s{BackfillOptions{.conservative = conservative_variant}};
    s.on_start(job(7, 10, 4, 0), 0.0, 4, {});
    EXPECT_THROW(s.on_start(job(7, 10, 4, 0), 1.0, 4, {}), std::logic_error);
    // The refused start left no phantom entry behind: one completion
    // empties the running set, a second one is unknown.
    s.on_complete(7, 10.0);
    EXPECT_THROW(s.on_complete(7, 10.0), std::logic_error);
  }
}

TEST(Backfill, CompletionOfAnUnknownJobThrows) {
  BackfillScheduler s;
  EXPECT_THROW(s.on_complete(42, 0.0), std::logic_error);
  s.on_start(job(1, 10, 4, 0), 0.0, 4, {});
  EXPECT_THROW(s.on_complete(2, 5.0), std::logic_error);
  s.clear();
  EXPECT_THROW(s.on_complete(1, 5.0), std::logic_error);  // clear forgot it
}

// ---------------------------------------------------------- capacity profile

TEST(CapacityProfile, ReleasesAtOneInstantMergeIntoOneStep) {
  CapacityProfile p(0.0, 2);
  p.add_release(0.0, 1);  // at the origin: folds into the origin step
  p.add_release(5.0, 2);
  p.add_release(5.0, 3);
  p.add_release(9.0, 1);
  const std::vector<CapacityProfile::Step> want{{0.0, 3}, {5.0, 8}, {9.0, 9}};
  EXPECT_EQ(p.steps(), want);
  EXPECT_EQ(p.step_at(-1.0), 0u);  // before the origin: the origin step
  EXPECT_EQ(p.step_at(0.0), 0u);
  EXPECT_EQ(p.step_at(4.999), 0u);
  EXPECT_EQ(p.step_at(5.0), 1u);  // a step is active from its own instant
  EXPECT_EQ(p.step_at(8.0), 1u);
  EXPECT_EQ(p.step_at(9.0), 2u);
  EXPECT_EQ(p.step_at(1e300), 2u);
}

TEST(CapacityProfile, FitFromTheOrigin) {
  CapacityProfile p(10.0, 4);
  p.add_release(20.0, 4);
  EXPECT_EQ(p.earliest_fit(10.0, 4, 100.0), 10.0);  // fits at the origin
  EXPECT_EQ(p.earliest_fit(10.0, 5, 1.0), 20.0);    // waits for the release
  p.reserve(10.0, 5.0, 4);  // the origin step itself is reserved
  const std::vector<CapacityProfile::Step> want{{10.0, 0}, {15.0, 4}, {20.0, 8}};
  EXPECT_EQ(p.steps(), want);
  EXPECT_EQ(p.earliest_fit(10.0, 1, 1.0), 15.0);
}

TEST(CapacityProfile, ReservationEndingExactlyOnAStep) {
  CapacityProfile p(0.0, 4);
  p.add_release(10.0, 4);
  p.add_release(20.0, 4);
  p.reserve(5.0, 5.0, 4);  // [5, 10): the end is the existing t = 10 step
  const std::vector<CapacityProfile::Step> want{
      {0.0, 4}, {5.0, 0}, {10.0, 8}, {20.0, 12}};
  EXPECT_EQ(p.steps(), want);  // no duplicate step at t = 10
  EXPECT_EQ(p.earliest_fit(0.0, 4, 5.0), 0.0);    // [0, 5) touches the hole's edge
  EXPECT_EQ(p.earliest_fit(0.0, 4, 6.0), 10.0);   // [0, 6) does not fit
  EXPECT_EQ(p.earliest_fit(5.0, 1, 1.0), 10.0);   // starts as the hole ends
  p.reserve(10.0, 10.0, 8);  // again ending on a step, starting on one
  const std::vector<CapacityProfile::Step> want2{
      {0.0, 4}, {5.0, 0}, {10.0, 0}, {20.0, 12}};
  EXPECT_EQ(p.steps(), want2);
  EXPECT_EQ(p.earliest_fit(0.0, 5, 1.0), 20.0);
}

TEST(CapacityProfile, BinarySearchMatchesALinearScan) {
  procsim::des::Xoshiro256SS rng(31);
  for (int round = 0; round < 50; ++round) {
    CapacityProfile p(0.0, 8);
    double t = 0;
    for (int i = 0; i < 12; ++i) {
      // Integer instants make releases, reservation ends and probes collide.
      t += static_cast<double>(procsim::des::sample_uniform_int(rng, 0, 3));
      p.add_release(t, procsim::des::sample_uniform_int(rng, 1, 4));
    }
    for (int i = 0; i < 8; ++i) {
      const auto procs = procsim::des::sample_uniform_int(rng, 1, 6);
      const auto dur = static_cast<double>(procsim::des::sample_uniform_int(rng, 1, 9));
      p.reserve(p.earliest_fit(0.0, procs, dur), dur, procs);
    }
    const auto& steps = p.steps();
    for (std::size_t k = 1; k < steps.size(); ++k) ASSERT_LT(steps[k - 1].t, steps[k].t);
    for (double q = -1.0; q <= t + 12.0; q += 0.5) {
      std::size_t linear = 0;
      while (linear + 1 < steps.size() && steps[linear + 1].t <= q) ++linear;
      ASSERT_EQ(p.step_at(q), linear) << "round " << round << " t=" << q;
    }
  }
}

/// CapacityProfile as it was first written: the same steps, a naive earliest
/// fit that tries `from` and then every later step instant, and the
/// three-step reserve (split at t, split at t + duration, then a third search
/// for the first step to subtract from).
class ReferenceProfile {
 public:
  using Step = CapacityProfile::Step;

  ReferenceProfile(double now, std::int64_t avail) : steps_{{now, avail}} {}

  void add_release(double t, std::int64_t procs) {
    if (steps_.back().t == t)
      steps_.back().avail += procs;
    else
      steps_.push_back({t, steps_.back().avail + procs});
  }

  [[nodiscard]] double earliest_fit(double from, std::int64_t procs,
                                    double duration) const {
    std::vector<double> starts{std::max(from, steps_.front().t)};
    for (const Step& s : steps_)
      if (s.t > starts.front()) starts.push_back(s.t);
    for (const double start : starts) {
      bool ok = true;
      for (std::size_t k = 0; k < steps_.size() && ok; ++k) {
        const bool active = steps_[k].t <= start &&
                            (k + 1 == steps_.size() || steps_[k + 1].t > start);
        const bool inside = steps_[k].t > start && steps_[k].t < start + duration;
        if (active || inside) ok = steps_[k].avail >= procs;
      }
      if (ok) return start;
    }
    return steps_.back().t;
  }

  void reserve(double t, double duration, std::int64_t procs) {
    if (duration <= 0 || procs <= 0) return;
    split_at(t);
    split_at(t + duration);
    for (std::size_t i = step_at(t); i < steps_.size() && steps_[i].t < t + duration; ++i)
      steps_[i].avail -= procs;
  }

  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }

 private:
  [[nodiscard]] std::size_t step_at(double t) const {
    std::size_t i = 0;
    while (i + 1 < steps_.size() && steps_[i + 1].t <= t) ++i;
    return i;
  }
  void split_at(double t) {
    if (t <= steps_.front().t) return;
    const std::size_t i = step_at(t);
    if (steps_[i].t == t) return;
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  Step{t, steps_[i].avail});
  }

  std::vector<Step> steps_;
};

TEST(CapacityProfile, OnePassReserveMatchesTheThreeStepReserve) {
  procsim::des::Xoshiro256SS rng(57);
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return procsim::des::sample_uniform_int(rng, lo, hi);
  };
  int at_origin = 0;
  int ending_on_a_step = 0;
  int past_the_last = 0;
  for (int round = 0; round < 300; ++round) {
    const double origin = static_cast<double>(uniform(0, 3));
    const std::int64_t avail = uniform(0, 8);
    CapacityProfile p(origin, avail);
    ReferenceProfile ref(origin, avail);
    double t = origin;
    for (std::int64_t i = uniform(0, 10); i > 0; --i) {
      t += static_cast<double>(uniform(0, 3));  // integer instants collide
      const std::int64_t procs = uniform(1, 4);
      p.add_release(t, procs);
      ref.add_release(t, procs);
    }
    for (int i = 0; i < 14; ++i) {
      const auto& steps = ref.steps();
      const double last = steps.back().t;
      const auto any_step = [&] {
        return steps[static_cast<std::size_t>(
                         uniform(0, static_cast<std::int64_t>(steps.size()) - 1))]
            .t;
      };
      double start = 0;
      double duration = 0;
      switch (uniform(0, 5)) {
        case 0:  // at the origin
          start = origin;
          duration = 0.5 * static_cast<double>(uniform(1, 12));
          break;
        case 1: {  // ending exactly on a step
          const double end = any_step();
          start = end - 0.5 * static_cast<double>(uniform(0, 8));
          duration = end - start;
          break;
        }
        case 2:  // extending past the last step
          start = any_step() + 0.5 * static_cast<double>(uniform(0, 2));
          duration = last - start + 0.5 * static_cast<double>(uniform(1, 6));
          break;
        case 3:  // starting before the origin
          start = origin - 0.5 * static_cast<double>(uniform(1, 4));
          duration = 0.5 * static_cast<double>(uniform(0, 10));
          break;
        case 4:  // what the walk does: reserve at the earliest fit
          duration = 0.5 * static_cast<double>(uniform(1, 10));
          start = ref.earliest_fit(origin, uniform(1, 6), duration);
          break;
        default:  // anywhere, with degenerate durations too
          start = origin - 1.0 + 0.25 * static_cast<double>(uniform(0, 4 * 14));
          duration = 0.25 * static_cast<double>(uniform(-1, 24));
          break;
      }
      const std::int64_t procs = uniform(-1, 5);
      if (procs > 0 && duration > 0) {
        at_origin += start == origin;
        ending_on_a_step +=
            std::any_of(steps.begin(), steps.end(), [&](const CapacityProfile::Step& s) {
              return s.t == start + duration;
            });
        past_the_last += start + duration > last;
      }
      p.reserve(start, duration, procs);
      ref.reserve(start, duration, procs);
      ASSERT_EQ(p.steps(), ref.steps())
          << "round " << round << " reserve(" << start << ", " << duration << ", "
          << procs << ")";
      const double from = origin + 0.5 * static_cast<double>(uniform(0, 20));
      const std::int64_t need = uniform(1, 6);
      const double len = 0.5 * static_cast<double>(uniform(1, 8));
      ASSERT_EQ(p.earliest_fit(from, need, len), ref.earliest_fit(from, need, len));
    }
  }
  EXPECT_GT(at_origin, 100);
  EXPECT_GT(ending_on_a_step, 100);
  EXPECT_GT(past_the_last, 100);
}

// ------------------------------------------------------------ resumed walks

TEST(Resume, SameInstantTailArrivalsProbeOnlyTheNewJobs) {
  // 4 free, 60 held until t=100, a 32-processor head reserved at t=100, and
  // nothing fits by shape right now (the probe always refuses). Each
  // one-processor arrival is walked once: of 20 arrivals only the four the
  // count profile seats at t=0 are probed, plus the head's probe in the
  // first pass. A re-walk per arrival would cost 95 probes.
  const procsim::testing::VerifyScope plain(false);
  auto s = conservative();
  s.on_start(job(99, 100, 60, 0), 0.0, 60, {});
  s.enqueue(job(0, 10, 32, 1));
  int probes = 0;
  const AllocProbe never = [&probes](const QueuedJob&) {
    ++probes;
    return false;
  };
  const SchedSnapshot snap{0.0, 4};
  EXPECT_FALSE(s.select(never, snap).has_value());
  for (std::uint64_t k = 1; k <= 20; ++k) {
    s.enqueue(job(k, 5, 1, 1 + k));
    EXPECT_FALSE(s.select(never, snap).has_value());
  }
  EXPECT_EQ(probes, 5);
  // Each invalidation point makes the next pass walk afresh: the head's
  // probe, then four jobs the profile seats at t=0 (5 probes); with nothing
  // new to walk, a kept walk probes nothing.
  const auto pass_probes = [&](const SchedSnapshot& at) {
    probes = 0;
    EXPECT_FALSE(s.select(never, at).has_value());
    return probes;
  };
  EXPECT_EQ(pass_probes(snap), 0);
  (void)s.take(s.size() - 1);
  EXPECT_EQ(pass_probes(snap), 5);
  s.on_start(job(98, 7, 2, 90), 0.0, 2, {});
  EXPECT_EQ(pass_probes(snap), 5);
  s.on_complete(98, 0.0);
  EXPECT_EQ(pass_probes(snap), 5);
  s.enqueue(job(97, 5, 1, 0));  // seq 0: the new head
  EXPECT_EQ(pass_probes(snap), 5);
  EXPECT_EQ(pass_probes(SchedSnapshot{0.0, 3}), 4);  // a changed free count
  EXPECT_EQ(pass_probes(SchedSnapshot{1.0, 3}), 4);  // a changed instant
}

/// Count-based machine that drives one backfill scheduler through every
/// operation that touches a kept walk — same-instant arrival bursts, tail
/// takes (a cluster steal), non-tail enqueues, starts, completions, time
/// steps — and checks each nomination against a scheduler rebuilt from the
/// same running set and queue, which has nothing to resume. A job's shape
/// fit needs `job_id % 3` processors more than its count, so the shape-aware
/// variants place reservations the count model would not. Some completions
/// drain their processors instead of freeing them, so a completion may leave
/// the free count (and the clock) unchanged.
class ResumeMachine {
 public:
  ResumeMachine(BackfillOptions opts, std::uint64_t seed)
      : opts_(opts), sched_(opts), rng_(seed) {}

  /// Selects whose kept walk the scheduler was allowed to resume.
  [[nodiscard]] int resumable_selects() const { return resumable_; }

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const auto op = procsim::des::sample_uniform_int(rng_, 0, 99);
      if (op < 35) {
        if (sched_.size() >= kMaxQueue) continue;
        const auto burst = procsim::des::sample_uniform_int(rng_, 1, 6);
        for (std::int64_t k = 0; k < burst; ++k) {
          enqueue(next_seq_ += 4);
          pass();
        }
      } else if (op < 45) {
        if (sched_.empty()) continue;
        const auto at = procsim::des::sample_uniform_int(
            rng_, 0, static_cast<std::int64_t>(sched_.size()) - 1);
        enqueue(sched_.job_at(static_cast<std::size_t>(at)).seq + 1);
        pass();
      } else if (op < 55) {
        if (sched_.empty()) continue;
        (void)sched_.take(sched_.size() - 1);
        changed_ = true;
      } else if (op < 80) {
        if (running_.empty()) continue;
        const auto at = static_cast<std::size_t>(procsim::des::sample_uniform_int(
            rng_, 0, static_cast<std::int64_t>(running_.size()) - 1));
        const Run r = running_[at];
        running_[at] = running_.back();
        running_.pop_back();
        sched_.on_complete(r.job.job_id, now_);
        if (procsim::des::sample_uniform_int(rng_, 0, 2) == 0 && drained_ < kCapacity / 4)
          drained_ += r.allocated;
        else
          free_ += r.allocated;
        changed_ = true;
        pass();
      } else if (op < 90) {
        now_ += procsim::des::sample_exponential(rng_, 4.0);
        pass();
      } else {
        pass();
      }
    }
  }

 private:
  static constexpr std::int64_t kCapacity = 64;
  static constexpr std::size_t kMaxQueue = 40;  ///< no bursts beyond this backlog

  struct Run {
    QueuedJob job;
    double start{0};
    std::int64_t allocated{0};
    std::vector<procsim::mesh::SubMesh> blocks;
  };

  static std::int64_t need(const QueuedJob& q) {
    return q.processors + static_cast<std::int64_t>(q.job_id % 3);
  }

  void enqueue(std::uint64_t seq) {
    QueuedJob q;
    q.job_id = next_id_++;
    q.seq = seq;
    q.arrival = now_;
    q.processors = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng_, 1, 24));
    q.area = q.processors;
    q.demand = 0.5 + procsim::des::sample_exponential(rng_, 10.0);
    // Only an enqueue behind every queued seq keeps a kept walk resumable.
    if (!sched_.empty() && sched_.job_at(sched_.size() - 1).seq > seq) changed_ = true;
    sched_.enqueue(q);
  }

  [[nodiscard]] bool probe(const QueuedJob& q) const { return need(q) <= free_; }

  [[nodiscard]] SchedSnapshot snapshot() const {
    SchedSnapshot snap{now_, free_};
    if (opts_.shape_aware) snap.shape_fit = &shape_;
    return snap;
  }

  std::optional<std::size_t> fresh_select() const {
    BackfillScheduler fresh(opts_);
    for (const Run& r : running_) fresh.on_start(r.job, r.start, r.allocated, r.blocks);
    for (std::size_t i = 0; i < sched_.size(); ++i) fresh.enqueue(sched_.job_at(i));
    return fresh.select(probe_, snapshot());
  }

  void pass() {
    for (;;) {
      const SchedSnapshot snap = snapshot();
      if (walk_kept_ && !changed_ && snap.now == kept_now_ &&
          snap.free_processors == kept_free_)
        ++resumable_;
      const std::optional<std::size_t> want = fresh_select();
      const std::optional<std::size_t> pos = sched_.select(probe_, snap);
      ASSERT_EQ(pos, want) << "t=" << now_ << " queue=" << sched_.size();
      walk_kept_ = !pos;
      changed_ = false;
      kept_now_ = snap.now;
      kept_free_ = snap.free_processors;
      if (!pos) return;
      const QueuedJob c = sched_.job_at(*pos);
      ASSERT_TRUE(probe(c));  // backfill nominates only probe-approved jobs
      const QueuedJob taken = sched_.take(*pos);
      Run r{taken, now_, need(taken), {}};
      r.blocks.push_back(procsim::mesh::SubMesh{0, 0, static_cast<std::int32_t>(r.allocated) - 1, 0});
      sched_.on_start(taken, now_, r.allocated, r.blocks);
      free_ -= r.allocated;
      running_.push_back(std::move(r));
    }
  }

  BackfillOptions opts_;
  BackfillScheduler sched_;
  procsim::des::Xoshiro256SS rng_;
  double now_{0};
  std::int64_t free_{kCapacity};
  std::int64_t drained_{0};
  std::vector<Run> running_;
  std::uint64_t next_id_{0};
  std::uint64_t next_seq_{0};
  bool walk_kept_{false};
  bool changed_{false};
  double kept_now_{0};
  std::int64_t kept_free_{0};
  int resumable_{0};
  const AllocProbe probe_ = [this](const QueuedJob& q) { return probe(q); };
  const procsim::sched::ShapeProbe shape_ =
      [this](const QueuedJob& q, const std::vector<procsim::mesh::SubMesh>& released) {
        std::int64_t back = 0;
        for (const procsim::mesh::SubMesh& b : released) back += b.area();
        return need(q) <= free_ + back;
      };
};

// Verify mode re-walks every resumed select from scratch and throws on a
// differing nomination or profile; the machine compares every nomination with
// a scheduler that cannot resume. Dropping any invalidation point (take,
// on_complete, a non-tail enqueue) fails one of the two.
TEST(Resume, RandomizedOperationsMatchAFreshWalk) {
  const procsim::testing::VerifyScope verify(true);
  for (const bool conservative_variant : {true, false}) {
    for (const bool shape : {false, true}) {
      for (const std::uint64_t seed : {2ull, 4ull, 9ull, 12ull, 17ull, 40ull}) {
        SCOPED_TRACE(std::string(conservative_variant ? "conservative" : "easy") +
                     (shape ? ";shape" : "") + " seed=" + std::to_string(seed));
        ResumeMachine d(
            BackfillOptions{.conservative = conservative_variant, .shape_aware = shape},
            seed);
        EXPECT_NO_THROW(d.run(300));
        EXPECT_GT(d.resumable_selects(), 100);
      }
    }
  }
}

// End to end the resume is invisible: a saturated backlog (every arrival at
// t = 0, one pass each) gives bit-identical metrics with verify mode's
// re-walks and without.
TEST(Resume, SaturatedBacklogMetricsMatchUnderVerify) {
  for (const char* spec_name : {"backfill:conservative;shape", "backfill:conservative",
                                "backfill;shape", "backfill"}) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = procsim::mesh::Geometry(12, 12);
    cfg.allocator = procsim::core::AllocatorSpec{"FirstFit"};
    cfg.workload.source_spec = "saturation";
    cfg.workload.job_count = 120;
    cfg.sys.target_completions = 40;
    cfg.seed = 5;
    const auto spec = procsim::sched::parse_sched_spec(spec_name);
    ASSERT_TRUE(spec.has_value()) << spec_name;
    cfg.scheduler = *spec;
    std::map<std::string, double> plain;
    {
      const procsim::testing::VerifyScope off(false);
      plain = procsim::core::to_observations(procsim::core::run_once(cfg));
    }
    const procsim::testing::VerifyScope on(true);
    SCOPED_TRACE(spec_name);
    EXPECT_EQ(plain, procsim::core::to_observations(procsim::core::run_once(cfg)));
  }
}

// ------------------------------------------------ reference ;shape walk

/// A running job as the reference walk sees it.
struct RefRunning {
  double finish{0};
  std::uint64_t id{0};
  std::int64_t allocated{0};
  std::vector<procsim::mesh::SubMesh> blocks;
};

/// The conservative ;shape select as it was first written: every walked job
/// re-collects the released blocks from the start of the running set, and
/// reservations take the three-step reserve. `steps` receives the profile
/// the walk leaves behind; `walked` is false when the head starts without a
/// walk.
std::optional<std::size_t> reference_conservative_shape(
    std::vector<RefRunning> running, const std::vector<QueuedJob>& queue, double now,
    std::int64_t free, const AllocProbe& probe, const procsim::sched::ShapeProbe& shape,
    std::vector<CapacityProfile::Step>& steps, bool& walked) {
  walked = false;
  if (queue.empty()) return std::nullopt;
  if (probe(queue.front())) return 0;
  walked = true;
  std::sort(running.begin(), running.end(), [](const RefRunning& a, const RefRunning& b) {
    return a.finish != b.finish ? a.finish < b.finish : a.id < b.id;
  });
  const auto release = [&](std::size_t k) { return std::max(running[k].finish, now); };
  ReferenceProfile profile(now, free);
  for (std::size_t k = 0; k < running.size(); ++k)
    profile.add_release(release(k), running[k].allocated);
  std::optional<std::size_t> nominee;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueuedJob& c = queue[i];
    double t = profile.earliest_fit(now, c.processors, c.demand);
    if (t <= now && probe(c)) {
      nominee = i;
      break;
    }
    std::vector<procsim::mesh::SubMesh> released;
    std::size_t k = 0;
    const auto collect = [&] {
      for (; k < running.size() && release(k) <= t; ++k)
        released.insert(released.end(), running[k].blocks.begin(),
                        running[k].blocks.end());
    };
    collect();
    while (k < running.size() && !shape(c, released)) {
      t = profile.earliest_fit(std::max(t, release(k)), c.processors, c.demand);
      collect();
    }
    profile.reserve(t, c.demand, c.processors);
  }
  steps = profile.steps();
  return nominee;
}

/// Drives backfill:conservative;shape over random running sets on a real
/// occupancy index — same-instant tail arrivals (resumed walks), starts,
/// completions, overdue estimates — and checks every select against the
/// reference walk on the same running set and queue: the same nomination,
/// the same profile steps, and, for a fresh walk, the same shape-probe
/// calls with the same released blocks.
TEST(ConservativeShape, RandomizedWalkMatchesAReferenceWalk) {
  using procsim::mesh::Geometry;
  using procsim::mesh::OccupancyIndex;
  using procsim::mesh::SubMesh;
  using Call = std::pair<std::uint64_t, std::vector<SubMesh>>;
  for (const Geometry g : {Geometry(16, 12), Geometry(70, 6)}) {
    for (const std::uint64_t seed : {3ull, 8ull, 21ull, 34ull}) {
      SCOPED_TRACE(std::to_string(g.width()) + "x" + std::to_string(g.length()) +
                   " seed=" + std::to_string(seed));
      procsim::des::Xoshiro256SS rng(seed);
      const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
        return procsim::des::sample_uniform_int(rng, lo, hi);
      };
      OccupancyIndex idx(g);
      BackfillScheduler s{BackfillOptions{.conservative = true, .shape_aware = true}};
      std::map<std::uint64_t, std::pair<std::int32_t, std::int32_t>> dims;
      std::vector<RefRunning> running;
      std::vector<Call> calls;
      double now = 0;
      std::uint64_t next_id = 0;
      const AllocProbe probe = [&](const QueuedJob& q) {
        const auto [w, l] = dims.at(q.job_id);
        return idx.first_fit_rotatable(w, l).has_value();
      };
      const procsim::sched::ShapeProbe shape = [&](const QueuedJob& q,
                                                   const std::vector<SubMesh>& rel) {
        calls.emplace_back(q.job_id, rel);
        const auto [w, l] = dims.at(q.job_id);
        return idx.first_fit_rotatable_assuming_free(w, l, rel).has_value();
      };
      const auto enqueue = [&] {
        QueuedJob q;
        q.job_id = next_id++;
        q.seq = q.job_id;
        q.arrival = now;
        const auto w = static_cast<std::int32_t>(uniform(1, g.width() / 2));
        const auto l = static_cast<std::int32_t>(uniform(1, g.length()));
        dims[q.job_id] = {w, l};
        q.processors = w * l;
        q.area = q.processors;
        q.demand = 0.5 + procsim::des::sample_exponential(rng, 10.0);
        s.enqueue(q);
      };
      int walks = 0;
      int nominations = 0;
      int shape_calls = 0;
      bool resumable = false;
      const auto pass = [&] {
        for (;;) {
          std::vector<QueuedJob> queue;
          for (std::size_t i = 0; i < s.size(); ++i) queue.push_back(s.job_at(i));
          SchedSnapshot snap{now, idx.free_count()};
          snap.shape_fit = &shape;
          std::vector<CapacityProfile::Step> want_steps;
          bool walked = false;
          calls.clear();
          const auto want = reference_conservative_shape(
              running, queue, now, idx.free_count(), probe, shape, want_steps, walked);
          const std::vector<Call> want_calls = std::move(calls);
          calls.clear();
          const auto got = s.select(probe, snap);
          ASSERT_EQ(got, want) << "t=" << now << " queue=" << queue.size();
          if (walked) {
            ++walks;
            ASSERT_EQ(s.profile().steps(), want_steps) << "t=" << now;
            if (!resumable) {
              ASSERT_EQ(calls, want_calls) << "t=" << now;
              shape_calls += static_cast<int>(calls.size());
            }
          }
          resumable = !got;
          if (!got) return;
          ++nominations;
          const QueuedJob taken = s.take(*got);
          const auto [w, l] = dims.at(taken.job_id);
          const auto placed = idx.first_fit_rotatable(w, l);
          ASSERT_TRUE(placed.has_value());  // nominated jobs passed the probe
          idx.allocate(*placed);
          s.on_start(taken, now, placed->area(), {*placed});
          running.push_back({now + taken.demand, taken.job_id, placed->area(), {*placed}});
        }
      };
      for (int step = 0; step < 250; ++step) {
        const auto op = uniform(0, 9);
        if (op < 5) {
          // Same-instant tail arrivals: the kept walk stays resumable.
          for (auto k = uniform(1, 3); k > 0 && s.size() < 40; --k) {
            enqueue();
            pass();
          }
          continue;
        }
        if (op < 7 && !running.empty()) {
          const auto at = static_cast<std::size_t>(
              uniform(0, static_cast<std::int64_t>(running.size()) - 1));
          idx.release(running[at].blocks.front());
          s.on_complete(running[at].id, now);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(at));
          resumable = false;
        } else if (op < 9) {
          now += procsim::des::sample_exponential(rng, 3.0);  // estimates go overdue
          resumable = false;
        }  // else: a pass with nothing changed resumes the kept walk
        pass();
      }
      EXPECT_GT(walks, 100);
      EXPECT_GT(nominations, 20);
      EXPECT_GT(shape_calls, 50);
    }
  }
}

// ----------------------------------------------------- legacy equivalence

/// The pre-refactor OrderedScheduler, frozen: an ordered std::set whose
/// select() nominates the head unconditionally — the legacy single-head
/// blocking path expressed through the transactional interface. The
/// regression tests below assert the production scheduler drives SystemSim
/// to bit-identical results.
class LegacySingleHead final : public Scheduler {
 public:
  explicit LegacySingleHead(Policy policy) : policy_(policy), queue_(Less{policy}) {}

  void enqueue(const QueuedJob& j) override { queue_.insert(j); }
  [[nodiscard]] std::size_t size() const override { return queue_.size(); }
  [[nodiscard]] QueuedJob job_at(std::size_t pos) const override {
    return *std::next(queue_.begin(), static_cast<std::ptrdiff_t>(pos));
  }
  [[nodiscard]] std::optional<std::size_t> select(const AllocProbe&,
                                                  const SchedSnapshot&) override {
    if (queue_.empty()) return std::nullopt;
    return 0;
  }
  QueuedJob take(std::size_t pos) override {
    const auto it = std::next(queue_.begin(), static_cast<std::ptrdiff_t>(pos));
    QueuedJob j = *it;
    queue_.erase(it);
    return j;
  }
  [[nodiscard]] std::string name() const override { return "legacy"; }
  void clear() override { queue_.clear(); }

 private:
  struct Less {
    Policy policy;
    bool operator()(const QueuedJob& a, const QueuedJob& b) const {
      if (policy == Policy::kSsd && a.demand != b.demand) return a.demand < b.demand;
      return a.seq < b.seq;
    }
  };
  Policy policy_;
  std::set<QueuedJob, Less> queue_;
};

std::vector<procsim::workload::Job> stochastic_jobs(const procsim::mesh::Geometry& geom,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  procsim::des::Xoshiro256SS rng(seed);
  procsim::workload::StochasticParams params;
  params.load = 0.08;  // high enough that the queue actually backs up
  return procsim::workload::generate_stochastic(params, geom, count, rng);
}

void expect_bitwise_equal(const procsim::core::RunMetrics& a,
                          const procsim::core::RunMetrics& b) {
  EXPECT_EQ(a.events, b.events);  // event-for-event: same DES schedule length
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.service.mean(), b.service.mean());
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(LegacyRegression, FcfsAndSsdMatchTheSingleHeadPathEventForEvent) {
  const procsim::mesh::Geometry geom(8, 8);
  for (const Policy policy : {Policy::kFcfs, Policy::kSsd}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      const auto jobs = stochastic_jobs(geom, 120, seed);
      procsim::core::SystemConfig cfg;
      cfg.geom = geom;
      cfg.target_completions = 100;

      procsim::alloc::GablAllocator a1(geom);
      OrderedScheduler s1(policy);
      const auto m1 = procsim::core::SystemSim(cfg, a1, s1).run(jobs);

      procsim::alloc::GablAllocator a2(geom);
      LegacySingleHead s2(policy);
      const auto m2 = procsim::core::SystemSim(cfg, a2, s2).run(jobs);

      SCOPED_TRACE("policy=" + std::string(procsim::sched::to_string(policy)) +
                   " seed=" + std::to_string(seed));
      expect_bitwise_equal(m1, m2);
    }
  }
}

// can_allocate is exact for every shipped strategy, so lookahead:1 — which
// starts the head iff the *probe* passes — must be indistinguishable from
// blocking FCFS, whose failed real attempt ends the pass. Any divergence
// means a probe lied.
TEST(ProbeExactness, LookaheadOneEqualsBlockingFcfsForEveryAllocator) {
  for (const char* alloc_name :
       {"GABL", "Paging(0)", "MBS", "FirstFit", "BestFit", "Random"}) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = procsim::mesh::Geometry(8, 8);
    cfg.sys.target_completions = 150;
    cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
    cfg.workload.job_count = 180;
    cfg.workload.stochastic.load = 0.08;
    cfg.seed = 11;
    const auto spec = procsim::core::parse_allocator_spec(alloc_name);
    ASSERT_TRUE(spec.has_value()) << alloc_name;
    cfg.allocator = *spec;

    cfg.scheduler = Policy::kFcfs;
    const auto fcfs = procsim::core::run_once(cfg);
    cfg.scheduler = procsim::sched::SchedSpec{std::string("lookahead:1")};
    const auto look1 = procsim::core::run_once(cfg);

    SCOPED_TRACE(alloc_name);
    expect_bitwise_equal(fcfs, look1);
  }
}

// End-to-end sanity: every registered policy drives a full simulation and
// completes the workload (the transaction must not deadlock a policy whose
// select() can return nullopt while jobs still wait — completions re-run it).
TEST(Policies, EveryRegisteredPolicyCompletesAWorkload) {
  for (const char* name :
       {"FCFS", "SSD", "SJF", "LJF", "lookahead:4", "backfill",
        "backfill:conservative", "backfill;shape", "backfill:conservative;shape"}) {
    procsim::core::ExperimentConfig cfg;
    cfg.sys.geom = procsim::mesh::Geometry(8, 8);
    cfg.sys.target_completions = 80;
    cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
    cfg.workload.job_count = 100;
    cfg.workload.stochastic.load = 0.08;
    cfg.seed = 3;
    const auto spec = procsim::sched::parse_sched_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    cfg.scheduler = *spec;
    const auto m = procsim::core::run_once(cfg);
    SCOPED_TRACE(name);
    EXPECT_EQ(m.completed, 80u);
    EXPECT_GT(m.makespan, 0.0);
  }
}

// A small job may overtake a blocked head end to end: under saturation-like
// pressure backfill must strictly beat blocking FCFS on mean turnaround for
// a stream with a few huge jobs in front of many small ones, while every
// job still completes (no starvation).
TEST(Policies, BackfillImprovesTurnaroundUnderBlockedHeads) {
  procsim::core::ExperimentConfig cfg;
  cfg.sys.geom = procsim::mesh::Geometry(8, 8);
  cfg.sys.target_completions = 150;
  cfg.allocator = procsim::core::AllocatorSpec{"FirstFit"};  // fragments
  cfg.workload.kind = procsim::core::WorkloadKind::kStochastic;
  cfg.workload.job_count = 180;
  cfg.workload.stochastic.load = 0.1;
  cfg.seed = 19;

  cfg.scheduler = Policy::kFcfs;
  const auto fcfs = procsim::core::run_once(cfg);
  cfg.scheduler = procsim::sched::SchedSpec{std::string("backfill")};
  const auto backfill = procsim::core::run_once(cfg);

  EXPECT_EQ(fcfs.completed, backfill.completed);
  EXPECT_LT(backfill.turnaround.mean(), fcfs.turnaround.mean());
}

}  // namespace
