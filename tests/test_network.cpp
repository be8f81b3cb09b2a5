#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "mesh/coord.hpp"
#include "network/routing.hpp"
#include "network/wormhole_network.hpp"

namespace {

using procsim::des::Simulator;
using procsim::mesh::Coord;
using procsim::mesh::Geometry;
using procsim::mesh::NodeId;
using procsim::network::ChannelMap;
using procsim::network::Delivery;
using procsim::network::Direction;
using procsim::network::NetworkParams;
using procsim::network::WormholeNetwork;

// ------------------------------------------------------------------ Routing

TEST(Routing, NeighboursOnMeshEdges) {
  const ChannelMap map(Geometry(4, 3));
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kWest), -1);
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kEast), g.id(Coord{1, 0}));
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kNorth), -1);
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kSouth), g.id(Coord{3, 1}));
}

TEST(Routing, TorusWrapsAround) {
  const ChannelMap map(Geometry(4, 3), /*torus=*/true);
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.neighbour(g.id(Coord{0, 0}), Direction::kWest), g.id(Coord{3, 0}));
  EXPECT_EQ(map.neighbour(g.id(Coord{3, 2}), Direction::kNorth), g.id(Coord{3, 0}));
}

TEST(Routing, XYRouteGoesXThenY) {
  const ChannelMap map(Geometry(8, 8));
  const Geometry& g = map.geometry();
  const auto path = map.route(g.id(Coord{1, 1}), g.id(Coord{4, 5}));
  // injection + 3 east + 4 north + ejection
  ASSERT_EQ(path.size(), 9u);
  EXPECT_EQ(path.front(), map.injection(g.id(Coord{1, 1})));
  EXPECT_EQ(path[1], map.link(g.id(Coord{1, 1}), Direction::kEast));
  EXPECT_EQ(path[4], map.link(g.id(Coord{4, 1}), Direction::kNorth));
  EXPECT_EQ(path.back(), map.ejection(g.id(Coord{4, 5})));
}

TEST(Routing, HopCountIsManhattanOnMesh) {
  const ChannelMap map(Geometry(16, 22));
  const Geometry& g = map.geometry();
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{15, 21})), 36);
  EXPECT_EQ(map.hop_count(g.id(Coord{3, 3}), g.id(Coord{3, 3})), 0);
  EXPECT_EQ(map.hop_count(g.id(Coord{5, 7}), g.id(Coord{2, 7})), 3);
}

TEST(Routing, TorusTakesShorterWay) {
  const ChannelMap map(Geometry(16, 22), /*torus=*/true);
  const Geometry& g = map.geometry();
  // 0 -> 15 along x: 1 hop west on the torus, not 15 east.
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{15, 0})), 1);
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{0, 21})), 1);
  EXPECT_EQ(map.hop_count(g.id(Coord{0, 0}), g.id(Coord{8, 0})), 8);
}

TEST(Routing, SelfRouteThrows) {
  const ChannelMap map(Geometry(4, 4));
  EXPECT_THROW((void)map.route(3, 3), std::invalid_argument);
}

TEST(Routing, ChannelIdsAreDisjointRanges) {
  const ChannelMap map(Geometry(4, 4));
  EXPECT_FALSE(map.is_injection(map.link(0, Direction::kEast)));
  EXPECT_TRUE(map.is_injection(map.injection(5)));
  EXPECT_FALSE(map.is_ejection(map.injection(5)));
  EXPECT_TRUE(map.is_ejection(map.ejection(5)));
  EXPECT_EQ(map.channel_count(), 6 * 16);  // 4 links + inj + ej per node (VC0 only)
  EXPECT_EQ(map.ejection(15), 6 * 16 - 1);

  const ChannelMap torus(Geometry(4, 4), /*torus=*/true);
  EXPECT_EQ(torus.channel_count(), 10 * 16);  // 8 link VCs + inj + ej per node
  EXPECT_EQ(torus.link(0, Direction::kSouth, 1), 7 * 16);
  EXPECT_TRUE(torus.is_injection(torus.injection(0)));
  EXPECT_FALSE(torus.is_injection(torus.link(15, Direction::kSouth, 1)));
  EXPECT_TRUE(torus.is_ejection(torus.ejection(5)));
  EXPECT_FALSE(torus.is_ejection(torus.injection(15)));
}

/// XY route written hop by hop through neighbour(): coordinates decide the
/// direction (the torus takes the shorter way, east/north on ties) and the
/// dateline VC switches at the wrap-around link.
std::vector<procsim::network::ChannelId> reference_route(const ChannelMap& map,
                                                         NodeId src, NodeId dst) {
  const Geometry& g = map.geometry();
  std::vector<procsim::network::ChannelId> path{map.injection(src)};
  NodeId cur = src;
  const auto walk = [&](std::int32_t from, std::int32_t to, std::int32_t extent,
                        Direction pos, Direction neg, bool along_x) {
    std::int32_t delta = to - from;
    if (map.torus()) {
      const std::int32_t wrap = delta > 0 ? delta - extent : delta + extent;
      if (std::abs(wrap) < std::abs(delta)) delta = wrap;
    }
    const Direction dir = delta >= 0 ? pos : neg;
    std::int32_t vc = 0;
    for (std::int32_t i = 0; i < std::abs(delta); ++i) {
      const Coord c = g.coord(cur);
      const std::int32_t at = along_x ? c.x : c.y;
      if (map.torus() && (dir == pos ? at == extent - 1 : at == 0)) vc = 1;
      path.push_back(map.link(cur, dir, vc));
      cur = map.neighbour(cur, dir);
    }
  };
  const Coord a = g.coord(src);
  const Coord b = g.coord(dst);
  walk(a.x, b.x, g.width(), Direction::kEast, Direction::kWest, true);
  walk(a.y, b.y, g.length(), Direction::kNorth, Direction::kSouth, false);
  EXPECT_EQ(cur, dst);
  path.push_back(map.ejection(dst));
  return path;
}

/// route_into reuses whatever vector it is handed — a recycled packet's path,
/// dirty and longer than needed — and must leave exactly route()'s channels.
TEST(Routing, RouteIntoADirtyVectorEqualsRouteForEveryPair) {
  for (const auto& [geom, torus] : {std::pair{Geometry(5, 4), false},
                                    std::pair{Geometry(37, 29), false},
                                    std::pair{Geometry(6, 6), true}}) {
    const ChannelMap map(geom, torus);
    std::vector<procsim::network::ChannelId> reused(
        static_cast<std::size_t>(geom.width() + geom.length()) * 3, -7);
    for (NodeId src = 0; src < geom.nodes(); ++src) {
      for (NodeId dst = 0; dst < geom.nodes(); ++dst) {
        if (src == dst) continue;
        const auto want = map.route(src, dst);
        map.route_into(src, dst, reused);
        ASSERT_EQ(reused, want) << geom.width() << "x" << geom.length()
                                << (torus ? " torus" : "") << " " << src << "->" << dst;
        // The hop-by-hop walk on every pair of the small networks and on
        // every 16th pair of the large mesh (it is the slow part).
        if (geom.nodes() <= 36 || (src * 31 + dst) % 16 == 0) {
          ASSERT_EQ(want, reference_route(map, src, dst))
              << geom.width() << "x" << geom.length() << (torus ? " torus" : "") << " "
              << src << "->" << dst;
        }
        // Dirty the vector again, past its current size.
        reused.resize(reused.capacity(), -7);
      }
    }
    EXPECT_THROW(map.route_into(3, 3, reused), std::invalid_argument);
  }
}

// ----------------------------------------------------------------- Wormhole

struct Harness {
  Simulator sim;
  WormholeNetwork net;
  std::vector<Delivery> deliveries;

  explicit Harness(Geometry g, NetworkParams p = NetworkParams{3, 8, false})
      : net(sim, g, p) {
    net.set_delivery_sink(
        [](void* ctx, const Delivery& d) {
          static_cast<Harness*>(ctx)->deliveries.push_back(d);
        },
        this);
  }
};

TEST(Wormhole, ContentionFreeLatencyMatchesFormula) {
  // One packet across D hops: latency = (D+1)(1+st) + P_len.
  for (const int st : {0, 1, 3}) {
    for (const int plen : {1, 4, 8}) {
      Harness h(Geometry(16, 22),
                NetworkParams{st, plen, false});
      const Geometry& g = h.net.channels().geometry();
      h.net.inject(g.id(Coord{2, 3}), g.id(Coord{9, 10}), 7);
      h.sim.run();
      ASSERT_EQ(h.deliveries.size(), 1u);
      const Delivery& d = h.deliveries[0];
      EXPECT_EQ(d.hops, 14);
      EXPECT_DOUBLE_EQ(d.latency, (14 + 1) * (1 + st) + plen);
      EXPECT_DOUBLE_EQ(d.latency, h.net.base_latency(14));
      EXPECT_DOUBLE_EQ(d.blocked, 0.0);
      EXPECT_EQ(d.tag, 7u);
    }
  }
}

TEST(Wormhole, AdjacentNodesMinimumLatency) {
  Harness h(Geometry(4, 4), NetworkParams{3, 8, false});
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{1, 0}), 0);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(h.deliveries[0].latency, 2 * 4 + 8);  // 2 channels + drain
}

TEST(Wormhole, EveryInjectedPacketDeliveredExactlyOnce) {
  Harness h(Geometry(8, 8));
  const Geometry& g = h.net.channels().geometry();
  int count = 0;
  for (NodeId s = 0; s < g.nodes(); ++s)
    for (const NodeId t : {(s + 7) % g.nodes(), (s + 21) % g.nodes()})
      if (s != t) {
        h.net.inject(s, t, static_cast<std::uint64_t>(count++));
      }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), static_cast<std::size_t>(count));
  EXPECT_EQ(h.net.in_flight(), 0u);
  EXPECT_EQ(h.net.metrics().delivered, static_cast<std::uint64_t>(count));
}

TEST(Wormhole, SameSourceSerialisesOnInjectionChannel) {
  Harness h(Geometry(8, 1), NetworkParams{0, 4, false});
  const Geometry& g = h.net.channels().geometry();
  // Two packets from node 0: the second must wait for the injection port.
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 1);
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 2);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(h.deliveries[0].blocked, 0.0);
  EXPECT_GT(h.deliveries[1].blocked, 0.0);
  EXPECT_GT(h.deliveries[1].latency, h.deliveries[0].latency);
}

TEST(Wormhole, ContentionOnSharedLinkBlocksSecondHeader) {
  Harness h(Geometry(4, 1), NetworkParams{0, 8, false});
  const Geometry& g = h.net.channels().geometry();
  // Both packets need link (1->2); injected same cycle from different nodes.
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 0}), 1);
  h.net.inject(g.id(Coord{1, 0}), g.id(Coord{3, 0}), 2);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  double total_blocked = 0;
  for (const auto& d : h.deliveries) total_blocked += d.blocked;
  EXPECT_GT(total_blocked, 0.0);
  EXPECT_GT(h.net.metrics().blocking.max(), 0.0);
}

TEST(Wormhole, DisjointPathsDoNotInteract) {
  Harness h(Geometry(8, 8), NetworkParams{3, 8, false});
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 0}), 1);  // row 0
  h.net.inject(g.id(Coord{0, 7}), g.id(Coord{7, 7}), 2);  // row 7
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 2u);
  for (const auto& d : h.deliveries) EXPECT_DOUBLE_EQ(d.blocked, 0.0);
}

TEST(Wormhole, HeavyRandomTrafficDrainsCompletely) {
  Harness h(Geometry(16, 22));
  const Geometry& g = h.net.channels().geometry();
  procsim::des::Xoshiro256SS rng(17);
  for (int i = 0; i < 2000; ++i) {
    const auto s = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    auto t = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    if (t == s) t = (t + 1) % g.nodes();
    h.net.inject(s, t, static_cast<std::uint64_t>(i));
  }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 2000u);  // conservation, no deadlock
  EXPECT_EQ(h.net.in_flight(), 0u);
  // Latency never below the contention-free bound.
  for (const auto& d : h.deliveries)
    EXPECT_GE(d.latency, h.net.base_latency(d.hops) - 1e-9);
}

TEST(Wormhole, TorusTrafficDrainsCompletely) {
  Harness h(Geometry(8, 8), NetworkParams{3, 8, true});
  const Geometry& g = h.net.channels().geometry();
  procsim::des::Xoshiro256SS rng(23);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    auto t = static_cast<NodeId>(rng() % static_cast<std::uint64_t>(g.nodes()));
    if (t == s) t = (t + 1) % g.nodes();
    h.net.inject(s, t, static_cast<std::uint64_t>(i));
  }
  h.sim.run();
  EXPECT_EQ(h.deliveries.size(), 500u);
}

TEST(Wormhole, FifoArbitrationOrdersWaiters) {
  Harness h(Geometry(4, 1), NetworkParams{0, 8, false});
  const Geometry& g = h.net.channels().geometry();
  // Three packets to the same destination: ejection port serialises; FIFO
  // order of arrival at the contended channel decides delivery order.
  h.net.inject(g.id(Coord{2, 0}), g.id(Coord{3, 0}), 1);  // closest, wins
  h.net.inject(g.id(Coord{1, 0}), g.id(Coord{3, 0}), 2);
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 0}), 3);
  h.sim.run();
  ASSERT_EQ(h.deliveries.size(), 3u);
  EXPECT_EQ(h.deliveries[0].tag, 1u);
  EXPECT_EQ(h.deliveries[1].tag, 2u);
  EXPECT_EQ(h.deliveries[2].tag, 3u);
}

TEST(Wormhole, MetricsAccumulate) {
  Harness h(Geometry(8, 8));
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{3, 4}), 1);
  h.sim.run();
  EXPECT_EQ(h.net.metrics().injected, 1u);
  EXPECT_EQ(h.net.metrics().delivered, 1u);
  EXPECT_DOUBLE_EQ(h.net.metrics().hops.mean(), 7.0);
}

TEST(Wormhole, ResetRejectsInFlightPackets) {
  Harness h(Geometry(8, 8));
  const Geometry& g = h.net.channels().geometry();
  h.net.inject(g.id(Coord{0, 0}), g.id(Coord{7, 7}), 1);
  EXPECT_THROW(h.net.reset(), std::logic_error);
  h.sim.run();
  h.net.reset();
  EXPECT_EQ(h.net.metrics().injected, 0u);
}

TEST(Wormhole, RejectsBadParams) {
  Simulator sim;
  EXPECT_THROW(WormholeNetwork(sim, Geometry(4, 4), NetworkParams{-1, 8, false}),
               std::invalid_argument);
  EXPECT_THROW(WormholeNetwork(sim, Geometry(4, 4), NetworkParams{3, 0, false}),
               std::invalid_argument);
}

}  // namespace
