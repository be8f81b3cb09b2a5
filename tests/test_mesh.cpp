#include <gtest/gtest.h>

#include "mesh/coord.hpp"
#include "mesh/mesh_state.hpp"
#include "mesh/submesh.hpp"

namespace {

using procsim::mesh::Coord;
using procsim::mesh::Geometry;
using procsim::mesh::MeshState;
using procsim::mesh::NodeId;
using procsim::mesh::SubMesh;

TEST(Geometry, IdCoordRoundTrip) {
  const Geometry g(16, 22);
  EXPECT_EQ(g.nodes(), 352);
  for (std::int32_t y = 0; y < g.length(); ++y)
    for (std::int32_t x = 0; x < g.width(); ++x) {
      const auto id = g.id(Coord{x, y});
      EXPECT_EQ(g.coord(id), (Coord{x, y}));
    }
}

TEST(Geometry, ContainsBounds) {
  const Geometry g(4, 3);
  EXPECT_TRUE(g.contains(Coord{0, 0}));
  EXPECT_TRUE(g.contains(Coord{3, 2}));
  EXPECT_FALSE(g.contains(Coord{4, 0}));
  EXPECT_FALSE(g.contains(Coord{0, 3}));
  EXPECT_FALSE(g.contains(Coord{-1, 0}));
}

TEST(SubMesh, PaperExample) {
  // Definition 1's example: (0,0,2,1) is the 3×2 sub-mesh with base (0,0).
  const SubMesh s{0, 0, 2, 1};
  EXPECT_EQ(s.width(), 3);
  EXPECT_EQ(s.length(), 2);
  EXPECT_EQ(s.area(), 6);
  EXPECT_EQ(s.base(), (Coord{0, 0}));
  EXPECT_EQ(s.end(), (Coord{2, 1}));
}

TEST(SubMesh, FromBase) {
  const SubMesh s = SubMesh::from_base(Coord{3, 4}, 2, 5);
  EXPECT_EQ(s, (SubMesh{3, 4, 4, 8}));
  EXPECT_EQ(s.area(), 10);
}

TEST(SubMesh, ContainsCoordAndSubmesh) {
  const SubMesh s{1, 1, 4, 4};
  EXPECT_TRUE(s.contains(Coord{1, 1}));
  EXPECT_TRUE(s.contains(Coord{4, 4}));
  EXPECT_FALSE(s.contains(Coord{0, 1}));
  EXPECT_TRUE(s.contains(SubMesh{2, 2, 3, 3}));
  EXPECT_TRUE(s.contains(s));
  EXPECT_FALSE(s.contains(SubMesh{0, 0, 2, 2}));
}

TEST(SubMesh, OverlapIsSymmetricAndExact) {
  const SubMesh a{0, 0, 2, 2};
  const SubMesh b{2, 2, 4, 4};  // shares the corner node (2,2)
  const SubMesh c{3, 0, 5, 1};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_FALSE(c.overlaps(a));
}

TEST(SubMesh, SuitableMatchesDefinition4) {
  const SubMesh s{0, 0, 3, 2};  // 4×3
  EXPECT_TRUE(s.suitable_for(4, 3));
  EXPECT_TRUE(s.suitable_for(2, 2));
  EXPECT_FALSE(s.suitable_for(5, 1));
  EXPECT_FALSE(s.suitable_for(1, 4));
}

TEST(MeshState, StartsAllFree) {
  MeshState m(Geometry(4, 4));
  EXPECT_EQ(m.free_count(), 16);
  EXPECT_EQ(m.busy_count(), 0);
  for (std::int32_t n = 0; n < 16; ++n) EXPECT_FALSE(m.is_busy(n));
}

TEST(MeshState, AllocateReleaseRoundTrip) {
  MeshState m(Geometry(4, 4));
  const SubMesh s{1, 1, 2, 2};
  m.allocate(s);
  EXPECT_EQ(m.free_count(), 12);
  EXPECT_TRUE(m.is_busy(Coord{1, 1}));
  EXPECT_TRUE(m.is_busy(Coord{2, 2}));
  EXPECT_FALSE(m.is_busy(Coord{0, 0}));
  m.release(s);
  EXPECT_EQ(m.free_count(), 16);
  EXPECT_FALSE(m.is_busy(Coord{1, 1}));
}

TEST(MeshState, DoubleAllocationThrows) {
  MeshState m(Geometry(4, 4));
  m.allocate(0);
  EXPECT_THROW(m.allocate(0), std::logic_error);
}

TEST(MeshState, ReleasingFreeNodeThrows) {
  MeshState m(Geometry(4, 4));
  EXPECT_THROW(m.release(0), std::logic_error);
}

TEST(MeshState, OutOfRangeThrows) {
  MeshState m(Geometry(4, 4));
  EXPECT_THROW(m.allocate(16), std::out_of_range);
  EXPECT_THROW(m.allocate(-1), std::out_of_range);
  EXPECT_THROW((void)m.is_busy(99), std::out_of_range);
}

TEST(MeshState, AllFreeChecksBoundsAndOccupancy) {
  MeshState m(Geometry(4, 4));
  EXPECT_TRUE(m.all_free(SubMesh{0, 0, 3, 3}));
  EXPECT_FALSE(m.all_free(SubMesh{0, 0, 4, 3}));  // outside the mesh
  m.allocate(m.geometry().id(Coord{2, 2}));
  EXPECT_FALSE(m.all_free(SubMesh{1, 1, 2, 2}));
  EXPECT_TRUE(m.all_free(SubMesh{0, 0, 1, 1}));
}

TEST(MeshState, PaperFigure1Scenario) {
  // Fig. 1 of the paper: a 4×4 mesh where a 2×2 contiguous request fails
  // although 4 processors are free. Free nodes per the figure: (0,3), (1,2),
  // (2,1), (3,0) — an anti-diagonal.
  MeshState m(Geometry(4, 4));
  for (std::int32_t y = 0; y < 4; ++y)
    for (std::int32_t x = 0; x < 4; ++x)
      if (x + y != 3) m.allocate(m.geometry().id(Coord{x, y}));
  EXPECT_EQ(m.free_count(), 4);
  // No 2×2 free sub-mesh exists...
  bool any = false;
  for (std::int32_t y = 0; y + 2 <= 4 && !any; ++y)
    for (std::int32_t x = 0; x + 2 <= 4 && !any; ++x)
      any = m.all_free(SubMesh::from_base(Coord{x, y}, 2, 2));
  EXPECT_FALSE(any);
  // ...yet a non-contiguous strategy can hand out the 4 free processors.
  EXPECT_EQ(m.free_count(), 4);
}

TEST(MeshState, ClearRestoresPristine) {
  MeshState m(Geometry(4, 4));
  m.allocate(SubMesh{0, 0, 3, 3});
  m.clear();
  EXPECT_EQ(m.free_count(), 16);
}

TEST(MeshState, SubMeshOpsMatchPerNodeLoops) {
  // The sub-mesh allocate/release/all_free must agree with the single-node
  // path on every span alignment (start/middle/end of a row, full rows), and
  // a rejected sub-mesh op must leave the map untouched.
  MeshState rowwise(Geometry(7, 5));
  MeshState pernode(Geometry(7, 5));
  const SubMesh spans[] = {{0, 0, 2, 1}, {3, 1, 6, 3}, {0, 4, 6, 4}, {5, 0, 5, 0}};
  for (const SubMesh& s : spans) {
    rowwise.allocate(s);
    for (std::int32_t y = s.y1; y <= s.y2; ++y)
      for (std::int32_t x = s.x1; x <= s.x2; ++x)
        pernode.allocate(pernode.geometry().id(Coord{x, y}));
    EXPECT_EQ(rowwise.free_count(), pernode.free_count());
    for (NodeId n = 0; n < rowwise.geometry().nodes(); ++n)
      ASSERT_EQ(rowwise.is_busy(n), pernode.is_busy(n)) << "node " << n;
  }
  EXPECT_FALSE(rowwise.all_free(SubMesh{0, 0, 0, 0}));
  EXPECT_TRUE(rowwise.all_free(SubMesh{3, 0, 4, 0}));
  EXPECT_THROW(rowwise.allocate(SubMesh{0, 0, 2, 1}), std::logic_error);
  EXPECT_THROW(rowwise.release(SubMesh{2, 0, 3, 0}), std::logic_error);
  EXPECT_THROW(rowwise.allocate(SubMesh{5, 3, 8, 4}), std::out_of_range);
  for (const SubMesh& s : spans) rowwise.release(s);
  EXPECT_EQ(rowwise.free_count(), 35);
}

}  // namespace
