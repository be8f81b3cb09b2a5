#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "alloc/registry.hpp"
#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "mesh/free_submesh_scan.hpp"
#include "mesh/mesh_state.hpp"
#include "mesh/occupancy_index.hpp"
#include "verify_scope.hpp"

namespace {

using procsim::mesh::Coord;
using procsim::mesh::FreeSubmeshScan;
using procsim::mesh::Geometry;
using procsim::mesh::MeshState;
using procsim::mesh::NodeId;
using procsim::mesh::OccupancyIndex;
using procsim::mesh::SubMesh;

TEST(OccupancyIndex, EmptyMeshFirstFitAtOrigin) {
  OccupancyIndex idx(Geometry(8, 6));
  const auto s = idx.first_fit(3, 2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, SubMesh::from_base(Coord{0, 0}, 3, 2));
  EXPECT_EQ(idx.free_count(), 48);
}

TEST(OccupancyIndex, ValidationMirrorsLegacyScan) {
  OccupancyIndex idx(Geometry(8, 6));
  EXPECT_FALSE(idx.first_fit(9, 1).has_value());
  EXPECT_FALSE(idx.first_fit(1, 7).has_value());
  EXPECT_THROW((void)idx.first_fit(0, 1), std::invalid_argument);
  EXPECT_THROW((void)idx.best_fit(1, -1), std::invalid_argument);
  EXPECT_THROW((void)idx.busy_in(SubMesh{0, 0, 8, 5}), std::invalid_argument);
}

TEST(OccupancyIndex, AllocateReleaseRoundTripUpdatesCounts) {
  OccupancyIndex idx(Geometry(10, 4));
  const SubMesh s{2, 1, 5, 3};
  idx.allocate(s);
  EXPECT_EQ(idx.free_count(), 40 - 12);
  EXPECT_EQ(idx.busy_in(SubMesh{0, 0, 9, 3}), 12);
  EXPECT_TRUE(idx.is_busy(Coord{2, 1}));
  EXPECT_FALSE(idx.is_free(s));
  idx.release(s);
  EXPECT_EQ(idx.free_count(), 40);
  EXPECT_TRUE(idx.is_free(s));
}

TEST(OccupancyIndex, PreconditionViolationsThrow) {
  OccupancyIndex idx(Geometry(6, 6));
  idx.allocate(SubMesh{0, 0, 2, 2});
  EXPECT_THROW(idx.allocate(SubMesh{2, 2, 3, 3}), std::logic_error);
  EXPECT_THROW(idx.release(SubMesh{3, 3, 4, 4}), std::logic_error);
  EXPECT_THROW(idx.allocate(SubMesh{4, 4, 6, 6}), std::out_of_range);
}

TEST(OccupancyIndex, RejectedUpdatesLeaveTheIndexUntouched) {
  // The index is an allocator's only occupancy record, so an update it
  // rejects must not change a bit, even when the clash lies in a later row
  // or word than the first.
  OccupancyIndex idx(Geometry(70, 4));
  idx.allocate(SubMesh{66, 2, 66, 2});
  idx.allocate(SubMesh{0, 0, 3, 0});
  const auto expect_unchanged = [&idx] {
    EXPECT_EQ(idx.free_count(), 280 - 5);
    std::vector<NodeId> free;
    idx.free_nodes_into(free);
    EXPECT_EQ(free.size(), 275u);
    EXPECT_TRUE(idx.is_busy(Coord{66, 2}));
    EXPECT_TRUE(idx.is_busy(Coord{0, 0}));
  };
  EXPECT_THROW(idx.allocate(SubMesh{60, 0, 69, 3}), std::logic_error);
  expect_unchanged();
  EXPECT_THROW(idx.release(SubMesh{0, 0, 4, 0}), std::logic_error);
  expect_unchanged();
  EXPECT_THROW(idx.release(SubMesh{66, 1, 66, 2}), std::logic_error);
  expect_unchanged();
}

TEST(OccupancyIndex, WordBoundaryMeshes) {
  // Widths of exactly 64 and just over one word exercise the multi-word
  // shift/mask paths (the scaling meshes are 64- and 128-wide).
  for (const std::int32_t w : {63, 64, 65, 128}) {
    OccupancyIndex idx(Geometry(w, 3));
    idx.allocate(SubMesh{0, 0, w - 2, 2});  // leave the last column free
    const auto s = idx.first_fit(1, 3);
    ASSERT_TRUE(s.has_value()) << "width " << w;
    EXPECT_EQ(s->x1, w - 1) << "width " << w;
    EXPECT_FALSE(idx.first_fit(2, 1).has_value()) << "width " << w;
    const auto big = idx.largest_free(w, 3);
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->area(), 3) << "width " << w;
  }
}

TEST(OccupancyIndex, ToMeshStateRoundTrips) {
  OccupancyIndex idx(Geometry(9, 5));
  idx.allocate(SubMesh{1, 1, 3, 2});
  idx.allocate(SubMesh{7, 4, 8, 4});
  const MeshState state = idx.to_mesh_state();
  EXPECT_EQ(state.free_count(), idx.free_count());
  for (std::int32_t y = 0; y < 5; ++y)
    for (std::int32_t x = 0; x < 9; ++x)
      EXPECT_EQ(state.is_busy(Coord{x, y}), idx.is_busy(Coord{x, y}));
}

TEST(OccupancyIndex, FreeNodesRowMajorOrder) {
  OccupancyIndex idx(Geometry(3, 2));
  idx.allocate(idx.geometry().id(Coord{1, 0}));
  std::vector<NodeId> free;
  idx.free_nodes_into(free);
  ASSERT_EQ(free.size(), 5u);
  EXPECT_EQ(free[0], idx.geometry().id(Coord{0, 0}));
  EXPECT_EQ(free[1], idx.geometry().id(Coord{2, 0}));
  EXPECT_EQ(free[2], idx.geometry().id(Coord{0, 1}));
  EXPECT_TRUE(idx.is_busy(idx.geometry().id(Coord{1, 0})));
  EXPECT_FALSE(idx.is_busy(idx.geometry().id(Coord{2, 0})));
  EXPECT_THROW((void)idx.is_busy(NodeId{6}), std::out_of_range);
  EXPECT_THROW((void)idx.is_busy(NodeId{-1}), std::out_of_range);
}

TEST(OccupancyIndex, FreeNodesIntoRetainsCapacityAcrossCalls) {
  // Random rebuilds its free list with free_nodes_into on every allocation
  // with one reused buffer; at a 512×512 mesh (262,144 nodes) a per-call
  // reallocation would be a malloc/free of a megabyte per event. The
  // contract: after a first call sized the buffer, later calls never
  // reallocate (clear() + reserve() within existing capacity keep the same
  // heap block).
  OccupancyIndex idx(Geometry(512, 512));
  ASSERT_EQ(idx.geometry().nodes(), 262144);
  std::vector<NodeId> buf;
  idx.free_nodes_into(buf);
  ASSERT_EQ(buf.size(), 262144u);
  const std::size_t cap = buf.capacity();
  const NodeId* data = buf.data();
  // Churn occupancy between calls so the free list genuinely changes size.
  idx.allocate(SubMesh{0, 0, 255, 255});
  idx.free_nodes_into(buf);
  EXPECT_EQ(buf.size(), 262144u - 65536u);
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
  idx.release(SubMesh{0, 0, 255, 255});
  idx.free_nodes_into(buf);
  EXPECT_EQ(buf.size(), 262144u);
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
}

TEST(OccupancyIndex, FreeNodesIntoMatchesPerNodeScanUnderChurn) {
  // The word walk must list exactly the nodes is_busy() calls free, in
  // ascending order, on widths around the 64-bit word boundary (a tail word
  // with 63, 0 and 1 valid bits) and under random allocate/release churn.
  for (const std::int32_t w : {63, 64, 65}) {
    const Geometry g(w, 9);
    OccupancyIndex idx(g);
    procsim::des::Xoshiro256SS rng(static_cast<std::uint64_t>(w));
    std::vector<SubMesh> live;
    std::vector<NodeId> got;
    idx.free_nodes_into(got);
    const std::size_t cap = got.capacity();
    for (int step = 0; step < 400; ++step) {
      if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
        const auto a =
            static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, w));
        const auto b =
            static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 3));
        if (const auto s = idx.first_fit(a, b)) {
          idx.allocate(*s);
          live.push_back(*s);
        }
      } else {
        const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
            rng, 0, static_cast<std::int64_t>(live.size()) - 1));
        idx.release(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
      idx.free_nodes_into(got);
      std::vector<NodeId> want;
      for (NodeId n = 0; n < g.nodes(); ++n)
        if (!idx.is_busy(n)) want.push_back(n);
      ASSERT_EQ(got, want) << "width " << w << " step " << step;
      ASSERT_EQ(static_cast<std::int32_t>(got.size()), idx.free_count());
      EXPECT_EQ(got.capacity(), cap) << "width " << w << " step " << step;
    }
  }
}

/// Satellite: thousands of allocate/release steps on random geometries, with
/// the index's first/best/largest-fit answers checked against the legacy
/// FreeSubmeshScan oracle on every step.
class IndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexEquivalence, MatchesLegacyScanUnderChurn) {
  procsim::des::Xoshiro256SS rng(GetParam());
  // Geometry drawn at random, biased to include word-boundary widths.
  const std::int32_t widths[] = {5, 9, 16, 31, 33, 63, 64, 65};
  const std::int32_t w = widths[procsim::des::sample_uniform_int(rng, 0, 7)];
  const auto l =
      static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 3, 24));
  const Geometry g(w, l);

  MeshState state(g);
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;

  const std::int32_t side_cap_w = std::max(1, g.width() / 2);
  const std::int32_t side_cap_l = std::max(1, g.length() / 2);
  for (int step = 0; step < 500; ++step) {
    // Mutate: mostly allocate (via the oracle's own first_fit so the test
    // doesn't trust the index for placement), otherwise release.
    const auto a =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side_cap_w));
    const auto b =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side_cap_l));
    if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
      const FreeSubmeshScan scan(state);
      if (const auto s = scan.first_fit(a, b)) {
        state.allocate(*s);
        idx.allocate(*s);
        live.push_back(*s);
      }
    } else {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[i]);
      idx.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }

    // Compare every query family against the oracle on the mutated state.
    const FreeSubmeshScan oracle(state);
    ASSERT_EQ(idx.free_count(), state.free_count()) << "step " << step;
    const auto qa =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, g.width()));
    const auto qb =
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, g.length()));
    ASSERT_EQ(idx.first_fit(qa, qb), oracle.first_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    ASSERT_EQ(idx.first_fit_rotatable(qa, qb), oracle.first_fit_rotatable(qa, qb))
        << "step " << step;
    ASSERT_EQ(idx.best_fit(qa, qb), oracle.best_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    const auto cw = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, std::min(g.width(), 8)));
    const auto cl = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, std::min(g.length(), 8)));
    ASSERT_EQ(idx.largest_free(cw, cl), oracle.largest_free(cw, cl))
        << "step " << step << " caps=" << cw << "x" << cl;
    // Uncapped largest_free is the *oracle's* quadratic worst case, so it is
    // sampled rather than run every step; the capped variant above already
    // covers the index's search loop each step.
    if (step % 16 == 0) {
      const auto area_cap = procsim::des::sample_uniform_int(rng, 1, g.nodes());
      ASSERT_EQ(idx.largest_free(g.width(), g.length(), area_cap),
                oracle.largest_free(g.width(), g.length(), area_cap))
          << "step " << step << " area_cap=" << area_cap;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChurn, IndexEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

/// 512-scale word-boundary widths: 511 (eight words with a 63-bit tail) and
/// 512 (exactly eight full words, tail_mask all ones). Lengths stay small so
/// the quadratic legacy oracle stays affordable per step — the *width* is
/// what exercises the multi-word shift/mask/frontier arithmetic.
class WideIndexEquivalence : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(WideIndexEquivalence, MatchesLegacyScanUnderChurn) {
  const std::int32_t w = GetParam();
  procsim::des::Xoshiro256SS rng(0x51DE + static_cast<std::uint64_t>(w));
  const Geometry g(w, 10);
  MeshState state(g);
  OccupancyIndex idx(g);
  std::vector<SubMesh> live;

  for (int step = 0; step < 150; ++step) {
    const auto a = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.width() / 2));
    const auto b = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, 5));
    if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
      const FreeSubmeshScan scan(state);
      if (const auto s = scan.first_fit(a, b)) {
        state.allocate(*s);
        idx.allocate(*s);
        live.push_back(*s);
      }
    } else {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(live.size()) - 1));
      state.release(live[i]);
      idx.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }

    const FreeSubmeshScan oracle(state);
    ASSERT_EQ(idx.free_count(), state.free_count()) << "step " << step;
    const auto qa = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.width()));
    const auto qb = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, g.length()));
    ASSERT_EQ(idx.first_fit(qa, qb), oracle.first_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    ASSERT_EQ(idx.best_fit(qa, qb), oracle.best_fit(qa, qb))
        << "step " << step << " q=" << qa << "x" << qb;
    // Capped queries on a mesh that just changed: an allocation leaves the
    // frontier an upper bound, a release forces a sync; both must reproduce
    // the oracle at these widths.
    const auto cw = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, std::min(g.width(), 16)));
    const auto cl = static_cast<std::int32_t>(
        procsim::des::sample_uniform_int(rng, 1, 8));
    ASSERT_EQ(idx.largest_free(cw, cl), oracle.largest_free(cw, cl))
        << "step " << step << " caps=" << cw << "x" << cl;
    if (step % 25 == 0) {
      const auto area_cap = procsim::des::sample_uniform_int(rng, 1, g.nodes());
      ASSERT_EQ(idx.largest_free(g.width(), g.length(), area_cap),
                oracle.largest_free(g.width(), g.length(), area_cap))
          << "step " << step << " area_cap=" << area_cap;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundary512, WideIndexEquivalence,
                         ::testing::Values(511, 512));

/// Largest sub-rectangle of `found` with area <= budget, anchored at its
/// base (GABL's trim of a carved piece to what the job still owes).
SubMesh trim_to_budget(const SubMesh& found, std::int64_t budget) {
  if (found.area() <= budget) return found;
  std::int32_t best_w = 1;
  std::int32_t best_l = 1;
  std::int64_t best_area = 0;
  for (std::int32_t w = 1; w <= found.width(); ++w) {
    const std::int32_t l =
        std::min<std::int32_t>(found.length(), static_cast<std::int32_t>(budget / w));
    if (l < 1) break;
    if (static_cast<std::int64_t>(w) * l > best_area) {
      best_area = static_cast<std::int64_t>(w) * l;
      best_w = w;
      best_l = l;
    }
  }
  return SubMesh::from_base(found.base(), best_w, best_l);
}

/// GABL-style carving runs — largest_free, allocate the trimmed piece, query
/// again with the piece's sides as the new caps — interleaved with releases
/// and contiguous placements that fragment the mesh. Every answer must equal
/// the oracle's, and the runs must exercise both ways an answer is reached
/// after an allocation: from the stale frontier as an upper bound (no sync)
/// and through a sync after the bound's first_fit missed.
class CarvingEquivalence : public ::testing::TestWithParam<Geometry> {};

TEST_P(CarvingEquivalence, CarvingRunsMatchLegacyScan) {
  const Geometry g = GetParam();
  procsim::des::Xoshiro256SS rng(0xCA7E + static_cast<std::uint64_t>(g.nodes()));
  MeshState state(g);
  OccupancyIndex idx(g);
  std::vector<std::vector<SubMesh>> live;  // one entry per job: its pieces
  const auto take = [&](const SubMesh& s, std::vector<SubMesh>& job) {
    state.allocate(s);
    idx.allocate(s);
    job.push_back(s);
  };

  // A small block at a random spot, kept if free: scatters the busy nodes.
  const auto scatter = [&] {
    const SubMesh s = SubMesh::from_base(
        Coord{static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 0, g.width() - 1)),
              static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 0, g.length() - 1))},
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 4)),
        static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 3)));
    live.emplace_back();
    if (idx.is_free(s)) take(s, live.back());
  };
  while (idx.free_count() * 5 > g.nodes() * 3) scatter();

  std::uint64_t bound_answers = 0;  // post-allocation answers without a sync
  std::uint64_t synced_answers = 0;  // post-allocation answers after a sync
  const std::int32_t side = std::min(12, g.length());
  for (int step = 0; step < 300; ++step) {
    const double u = procsim::des::sample_uniform(rng, 0.0, 1.0);
    if (!live.empty() && (u < 0.3 || idx.free_count() * 2 < g.nodes())) {
      const auto i = static_cast<std::size_t>(procsim::des::sample_uniform_int(
          rng, 0, static_cast<std::int64_t>(live.size()) - 1));
      for (const SubMesh& s : live[i]) {
        state.release(s);
        idx.release(s);
      }
      live[i] = std::move(live.back());
      live.pop_back();
      continue;
    }
    if (u < 0.5) {
      scatter();
      continue;
    }
    const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side));
    const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, side));
    live.emplace_back();
    const std::int64_t target = static_cast<std::int64_t>(a) * b;
    if (idx.free_count() < target) continue;
    std::int32_t cap_w = a;
    std::int32_t cap_l = b;
    std::int64_t held = 0;
    while (held < target) {
      const auto before = idx.query_stats();
      const auto got = idx.largest_free(cap_w, cap_l);
      const auto want = FreeSubmeshScan(state).largest_free(cap_w, cap_l);
      ASSERT_EQ(got, want) << "step " << step << " caps=" << cap_w << "x" << cap_l;
      ASSERT_TRUE(got.has_value());
      if (held > 0) {
        const auto& after = idx.query_stats();
        if (after.frontier_passes == before.frontier_passes)
          ++bound_answers;
        else
          ++synced_answers;
      }
      const SubMesh piece = trim_to_budget(*got, target - held);
      take(piece, live.back());
      held += piece.area();
      cap_w = piece.width();
      cap_l = piece.length();
    }
  }
  const auto& qs = idx.query_stats();
  EXPECT_GT(bound_answers, 0u);
  EXPECT_GT(synced_answers, 0u);
  EXPECT_EQ(qs.descent_queries, 0u);
  EXPECT_EQ(qs.frontier_hits + qs.frontier_passes, qs.largest_free_queries);
}

INSTANTIATE_TEST_SUITE_P(Meshes, CarvingEquivalence,
                         ::testing::Values(Geometry(128, 128), Geometry(511, 12),
                                           Geometry(512, 12)),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                           return std::to_string(info.param.width()) + "x" +
                                  std::to_string(info.param.length());
                         });

/// Hand-built fixtures pinning the documented largest_free preference order
/// (README "Allocators & the occupancy index"): (1) maximum capped area,
/// (2) smallest width among equal areas, (3) first row-major (y, x) base.
/// Each case also re-checks the claim against the oracle on the same state.
TEST(OccupancyIndex, LargestFreeTieBreaksMatchDocumentedOrder) {
  const Geometry g(16, 16);
  const auto oracle_agrees = [](const OccupancyIndex& idx, std::int32_t cw,
                                std::int32_t cl, std::int64_t cap) {
    return idx.largest_free(cw, cl, cap) ==
           FreeSubmeshScan(idx.to_mesh_state()).largest_free(cw, cl, cap);
  };

  {
    // Smallest width wins on equal areas, even though the wider 4×3 sits
    // earlier in row-major order than the 3×4.
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{2, 1, 5, 3});    // 4 wide × 3 tall, area 12, early
    idx.release(SubMesh{10, 8, 12, 11});  // 3 wide × 4 tall, area 12, late
    const auto s = idx.largest_free(16, 16);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, (SubMesh{10, 8, 12, 11}));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
  {
    // Equal area and equal width: the first (y, x) base in row-major order.
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{9, 0, 11, 3});   // 3×4 at (9, 0)
    idx.release(SubMesh{2, 5, 4, 8});    // 3×4 at (2, 5) — later row
    const auto s = idx.largest_free(16, 16);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->base(), (Coord{9, 0}));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
  {
    // The area cap reshapes the winner: inside a free 5×5 block, max_area 12
    // admits 3×4 (w=3 reaches area 12 first; w=4×3 ties and loses on width).
    OccupancyIndex idx(g);
    idx.allocate(SubMesh{0, 0, 15, 15});
    idx.release(SubMesh{4, 4, 8, 8});
    const auto s = idx.largest_free(16, 16, 12);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, SubMesh::from_base(Coord{4, 4}, 3, 4));
    EXPECT_TRUE(oracle_agrees(idx, 16, 16, 12));
    // Width cap 2 forces the tall 2×5 strip instead.
    const auto t = idx.largest_free(2, 16);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, SubMesh::from_base(Coord{4, 4}, 2, 5));
    EXPECT_TRUE(oracle_agrees(idx, 2, 16,
                              std::numeric_limits<std::int64_t>::max()));
  }
}

/// The shape-aware reservation probe: first_fit under "these busy blocks
/// were released" must agree with a brute-force future-occupancy replay —
/// copy the index, actually release the blocks, query for real.
TEST(OccupancyIndex, AssumingFreeAgreesWithBruteForceReplayOn8x8) {
  const Geometry g(8, 8);
  procsim::des::Xoshiro256SS rng(4242);
  for (int round = 0; round < 50; ++round) {
    MeshState state(g);
    OccupancyIndex idx(g);
    std::vector<SubMesh> live;
    // Random occupancy.
    for (int step = 0; step < 30; ++step) {
      const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 4));
      const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 4));
      if (const auto s = idx.first_fit(a, b)) {
        idx.allocate(*s);
        live.push_back(*s);
      }
    }
    if (live.empty()) continue;
    // Random subset of live placements plays the projected releases.
    std::vector<SubMesh> released;
    for (const SubMesh& s : live)
      if (procsim::des::sample_bernoulli(rng, 0.5)) released.push_back(s);

    // Brute force: replay the releases on a copy, then query for real.
    OccupancyIndex future = idx;
    for (const SubMesh& s : released) future.release(s);

    for (int q = 0; q < 12; ++q) {
      const auto a = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 8));
      const auto b = static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 8));
      ASSERT_EQ(idx.first_fit_assuming_free(a, b, released), future.first_fit(a, b))
          << "round " << round << " q=" << a << "x" << b;
      ASSERT_EQ(idx.first_fit_rotatable_assuming_free(a, b, released),
                future.first_fit_rotatable(a, b))
          << "round " << round << " q=" << a << "x" << b;
    }
    // The hypothetical query must not have perturbed the real index.
    ASSERT_EQ(idx.free_count(), state.geometry().nodes() -
                                    [&] {
                                      std::int32_t busy = 0;
                                      for (const SubMesh& s : live) busy += s.area();
                                      return busy;
                                    }());
  }
}

TEST(OccupancyIndex, AssumingFreeWithNoExtrasEqualsPlainFirstFit) {
  const Geometry g(9, 7);
  OccupancyIndex idx(g);
  idx.allocate(SubMesh{0, 0, 4, 3});
  EXPECT_EQ(idx.first_fit_assuming_free(3, 3, {}), idx.first_fit(3, 3));
  // Overlapping / already-free extras are tolerated (the union counts).
  const std::vector<SubMesh> extras{{0, 0, 4, 3}, {0, 0, 2, 2}, {5, 0, 6, 1}};
  EXPECT_EQ(idx.first_fit_assuming_free(5, 4, extras)->base(),
            (procsim::mesh::Coord{0, 0}));
}

/// Verify mode cross-checks every index query against FreeSubmeshScan:
/// allocator-driven churn under it must never diverge.
TEST(OccupancyIndex, CrossCheckModeCleanOnAllocatorChurn) {
  const procsim::testing::VerifyScope on(true);
  ASSERT_TRUE(procsim::util::verify_enabled());

  procsim::des::Xoshiro256SS rng(7);
  for (const std::string name : {"FirstFit", "BestFit", "GABL"}) {
    const auto allocator =
        procsim::alloc::make_allocator(name, Geometry(12, 10), {.seed = 7});
    std::vector<procsim::alloc::Placement> live;
    for (int step = 0; step < 120; ++step) {
      if (live.empty() || procsim::des::sample_bernoulli(rng, 0.6)) {
        const auto a =
            static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 6));
        const auto b =
            static_cast<std::int32_t>(procsim::des::sample_uniform_int(rng, 1, 5));
        if (auto p = allocator->allocate(procsim::alloc::Request{a, b, a * b}))
          live.push_back(std::move(*p));
      } else {
        allocator->release(live.back());
        live.pop_back();
      }
    }
  }
}

}  // namespace
