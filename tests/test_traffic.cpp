#include <gtest/gtest.h>

#include <set>

#include "des/rng.hpp"
#include "network/traffic.hpp"

namespace {

using procsim::des::Xoshiro256SS;
using procsim::mesh::SubMesh;
using procsim::network::block_node;
using procsim::network::generate_message_plan;
using procsim::network::IndexPair;
using procsim::network::map_plan;
using procsim::network::TrafficPattern;

TEST(Traffic, EmptyForSingleProcessor) {
  Xoshiro256SS rng(1);
  EXPECT_TRUE(generate_message_plan(TrafficPattern::kAllToAll, 1, 5, rng).empty());
  EXPECT_TRUE(generate_message_plan(TrafficPattern::kAllToAll, 8, 0, rng).empty());
  EXPECT_THROW((void)generate_message_plan(TrafficPattern::kAllToAll, 8, -1, rng),
               std::invalid_argument);
}

TEST(Traffic, NoSelfMessagesAnyPattern) {
  Xoshiro256SS rng(2);
  for (const auto pattern :
       {TrafficPattern::kAllToAll, TrafficPattern::kOneToAll, TrafficPattern::kRandomPairs,
        TrafficPattern::kRingNeighbour}) {
    for (const std::int32_t k : {2, 3, 7, 32}) {
      const auto plan = generate_message_plan(pattern, k, 200, rng);
      ASSERT_EQ(plan.size(), 200u);
      for (const auto& [s, d] : plan) {
        EXPECT_NE(s, d);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, k);
        EXPECT_GE(d, 0);
        EXPECT_LT(d, k);
      }
    }
  }
}

TEST(Traffic, AllToAllSpreadsSources) {
  Xoshiro256SS rng(3);
  // count <= k consecutive slots of the phase schedule have distinct sources.
  const auto plan = generate_message_plan(TrafficPattern::kAllToAll, 20, 20, rng);
  std::set<std::int32_t> sources;
  for (const auto& [s, d] : plan) sources.insert(s);
  EXPECT_EQ(sources.size(), 20u);
}

TEST(Traffic, AllToAllCoversAllPairsOverFullSweep) {
  Xoshiro256SS rng(4);
  const std::int32_t k = 6;
  const auto plan = generate_message_plan(TrafficPattern::kAllToAll, k, k * (k - 1), rng);
  std::set<IndexPair> pairs(plan.begin(), plan.end());
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(k * (k - 1)));
}

TEST(Traffic, OneToAllAlwaysFromRoot) {
  Xoshiro256SS rng(5);
  const auto plan = generate_message_plan(TrafficPattern::kOneToAll, 9, 40, rng);
  std::set<std::int32_t> dsts;
  for (const auto& [s, d] : plan) {
    EXPECT_EQ(s, 0);
    dsts.insert(d);
  }
  EXPECT_EQ(dsts.size(), 8u);  // sweeps every peer
}

TEST(Traffic, RingNeighbourStepsByOne) {
  Xoshiro256SS rng(6);
  const auto plan = generate_message_plan(TrafficPattern::kRingNeighbour, 5, 30, rng);
  for (const auto& [s, d] : plan) EXPECT_EQ(d, (s + 1) % 5);
}

TEST(Traffic, RandomPairsUniformish) {
  Xoshiro256SS rng(7);
  const auto plan = generate_message_plan(TrafficPattern::kRandomPairs, 4, 40000, rng);
  std::array<int, 4> src_counts{};
  for (const auto& [s, d] : plan) ++src_counts[static_cast<std::size_t>(s)];
  for (const int c : src_counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Traffic, PlanIsDeterministicPerSeed) {
  Xoshiro256SS a(42), b(42);
  const auto p1 = generate_message_plan(TrafficPattern::kAllToAll, 11, 50, a);
  const auto p2 = generate_message_plan(TrafficPattern::kAllToAll, 11, 50, b);
  EXPECT_EQ(p1, p2);
}

TEST(Traffic, MapPlanBindsIndicesToNodes) {
  // On a 10-wide mesh, block (0,1)-(0,1) holds node 10 and block
  // (0,2)-(1,2) nodes 20 and 21: indices 0, 1, 2 bind 10, 20, 21.
  const procsim::mesh::Geometry g(10, 4);
  const std::vector<SubMesh> blocks{{0, 1, 0, 1}, {0, 2, 1, 2}};
  const std::vector<IndexPair> plan{{0, 2}, {2, 1}};
  const auto traffic = map_plan(plan, blocks, g, 3);
  ASSERT_EQ(traffic.size(), 2u);
  EXPECT_EQ(traffic[0], std::make_pair(10, 21));
  EXPECT_EQ(traffic[1], std::make_pair(21, 20));
}

TEST(Traffic, MapPlanRejectsBadIndices) {
  // The blocks hold three nodes but the job computes on two: index 2 is
  // out of range even though the blocks could resolve it.
  const procsim::mesh::Geometry g(10, 4);
  const std::vector<SubMesh> blocks{{0, 1, 2, 1}};
  EXPECT_THROW((void)map_plan(std::vector<IndexPair>{{0, 2}}, blocks, g, 2),
               std::invalid_argument);
  EXPECT_THROW((void)map_plan(std::vector<IndexPair>{{1, 1}}, blocks, g, 2),
               std::invalid_argument);
  EXPECT_THROW((void)map_plan(std::vector<IndexPair>{{-1, 0}}, blocks, g, 2),
               std::invalid_argument);
}

TEST(Traffic, BlockNodeWalksBlocksRowMajor) {
  const procsim::mesh::Geometry g(8, 8);
  const std::vector<SubMesh> blocks{{2, 3, 4, 4}, {7, 0, 7, 1}, {0, 7, 0, 7}};
  const std::vector<procsim::mesh::NodeId> want{26, 27, 28, 34, 35, 36, 7, 15, 56};
  for (std::int32_t i = 0; i < 9; ++i)
    EXPECT_EQ(block_node(blocks, g, i), want[static_cast<std::size_t>(i)]) << "i=" << i;
  EXPECT_THROW((void)block_node(blocks, g, 9), std::out_of_range);
  EXPECT_THROW((void)block_node(blocks, g, -1), std::out_of_range);
  EXPECT_THROW((void)block_node({}, g, 0), std::out_of_range);
}

TEST(Traffic, PatternNames) {
  EXPECT_STREQ(to_string(TrafficPattern::kAllToAll), "all-to-all");
  EXPECT_STREQ(to_string(TrafficPattern::kOneToAll), "one-to-all");
  EXPECT_STREQ(to_string(TrafficPattern::kRandomPairs), "random");
  EXPECT_STREQ(to_string(TrafficPattern::kRingNeighbour), "ring-neighbour");
}

}  // namespace
