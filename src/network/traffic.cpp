#include "network/traffic.hpp"

#include <stdexcept>

#include "des/distributions.hpp"

namespace procsim::network {

const char* to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::kAllToAll: return "all-to-all";
    case TrafficPattern::kOneToAll: return "one-to-all";
    case TrafficPattern::kRandomPairs: return "random";
    case TrafficPattern::kRingNeighbour: return "ring-neighbour";
  }
  return "?";
}

std::vector<IndexPair> generate_message_plan(TrafficPattern pattern, std::int32_t k,
                                             std::int64_t count, des::Xoshiro256SS& rng) {
  if (count < 0) throw std::invalid_argument("generate_message_plan: negative count");
  std::vector<IndexPair> plan;
  if (k < 2 || count == 0) return plan;
  plan.reserve(static_cast<std::size_t>(count));

  switch (pattern) {
    case TrafficPattern::kAllToAll: {
      // Sliced all-to-all phase schedule: in round r every processor i
      // addresses (i + 1 + r) mod k, so any `count` consecutive slots keep
      // sources maximally spread (no artificial serialisation on one
      // injection port). A random starting slot decorrelates jobs.
      const std::int64_t slots = static_cast<std::int64_t>(k) * (k - 1);
      std::int64_t at = des::sample_uniform_int(rng, 0, slots - 1);
      for (std::int64_t m = 0; m < count; ++m) {
        const auto r = static_cast<std::int32_t>(at / k);  // round: 0..k-2
        const auto i = static_cast<std::int32_t>(at % k);
        plan.emplace_back(i, (i + 1 + r) % k);
        at = (at + 1) % slots;
      }
      break;
    }
    case TrafficPattern::kOneToAll: {
      std::int64_t at = des::sample_uniform_int(rng, 0, k - 2);
      for (std::int64_t m = 0; m < count; ++m) {
        plan.emplace_back(0, static_cast<std::int32_t>(1 + at));
        at = (at + 1) % (k - 1);
      }
      break;
    }
    case TrafficPattern::kRandomPairs: {
      for (std::int64_t m = 0; m < count; ++m) {
        const auto src = static_cast<std::int32_t>(des::sample_uniform_int(rng, 0, k - 1));
        auto dst = static_cast<std::int32_t>(des::sample_uniform_int(rng, 0, k - 2));
        if (dst >= src) ++dst;
        plan.emplace_back(src, dst);
      }
      break;
    }
    case TrafficPattern::kRingNeighbour: {
      std::int64_t at = des::sample_uniform_int(rng, 0, k - 1);
      for (std::int64_t m = 0; m < count; ++m) {
        const auto src = static_cast<std::int32_t>(at);
        plan.emplace_back(src, static_cast<std::int32_t>((at + 1) % k));
        at = (at + 1) % k;
      }
      break;
    }
  }
  return plan;
}

mesh::NodeId block_node(std::span<const mesh::SubMesh> blocks,
                        const mesh::Geometry& geom, std::int32_t i) {
  if (i >= 0) {
    for (const mesh::SubMesh& b : blocks) {
      if (i < b.area())
        return geom.id(mesh::Coord{b.x1 + i % b.width(), b.y1 + i / b.width()});
      i -= b.area();
    }
  }
  throw std::out_of_range("block_node: index outside the blocks");
}

std::vector<SrcDst> map_plan(std::span<const IndexPair> plan,
                             std::span<const mesh::SubMesh> blocks,
                             const mesh::Geometry& geom, std::int32_t processors) {
  std::vector<SrcDst> out;
  out.reserve(plan.size());
  for (const auto& [si, di] : plan) {
    if (si < 0 || di < 0 || si >= processors || di >= processors || si == di)
      throw std::invalid_argument("map_plan: plan index out of range");
    out.emplace_back(block_node(blocks, geom, si), block_node(blocks, geom, di));
  }
  return out;
}

}  // namespace procsim::network
