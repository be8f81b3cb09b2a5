#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"

namespace procsim::network {

/// Communication patterns a parallel job can exercise. The paper's
/// experiments use all-to-all exclusively ("it causes much message collision
/// and is known as the weak point for non-contiguous allocation"); the other
/// ProcSimity patterns are provided for the ablation benches and examples.
enum class TrafficPattern {
  kAllToAll,      ///< messages sweep the ordered processor pairs round-robin
  kOneToAll,      ///< processor 0 multicasts across the peers
  kRandomPairs,   ///< independent uniform source/destination pairs
  kRingNeighbour, ///< processor i talks to processor i+1 (mod k)
};

[[nodiscard]] const char* to_string(TrafficPattern p) noexcept;

/// (source index, destination index) within a job's processor list.
using IndexPair = std::pair<std::int32_t, std::int32_t>;

/// Samples a job's communication plan: `count` messages among `k`
/// processors following `pattern`. Indices, not nodes — the plan is fixed at
/// job arrival and reused unchanged under every allocation strategy. For
/// all-to-all the messages take `count` consecutive entries of the ordered
/// pair enumeration starting at a random offset, spreading traffic across
/// the whole job exactly like a sliced all-to-all exchange. Empty for k < 2.
[[nodiscard]] std::vector<IndexPair> generate_message_plan(TrafficPattern pattern,
                                                           std::int32_t k,
                                                           std::int64_t count,
                                                           des::Xoshiro256SS& rng);

/// One packet to inject: (source node, destination node).
using SrcDst = std::pair<mesh::NodeId, mesh::NodeId>;

/// The i-th node of a placement's blocks: block order, row-major inside
/// each block. Throws std::out_of_range unless 0 <= i < total block area.
[[nodiscard]] mesh::NodeId block_node(std::span<const mesh::SubMesh> blocks,
                                      const mesh::Geometry& geom, std::int32_t i);

/// Binds a plan to the processors the allocator granted: index i is
/// block_node(blocks, geom, i), and every index must lie below
/// `processors` (the job's compute nodes; the blocks may hold more). The
/// simulator builds its message streams from the plan directly
/// (core::StreamSet::build); this materialised list is the tests' oracle.
[[nodiscard]] std::vector<SrcDst> map_plan(std::span<const IndexPair> plan,
                                           std::span<const mesh::SubMesh> blocks,
                                           const mesh::Geometry& geom,
                                           std::int32_t processors);

}  // namespace procsim::network
