#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "mesh/mesh_state.hpp"
#include "mesh/submesh.hpp"

namespace procsim::mesh {

/// Free-sub-mesh queries over a MeshState occupancy bitmap.
///
/// Builds a 2D prefix sum of the busy map once, after which "is this
/// rectangle entirely free?" is O(1). The scan object is a snapshot: rebuild
/// after any allocation — which is exactly why production queries now go
/// through the incrementally maintained OccupancyIndex instead. This class
/// stays as the reference oracle: its exhaustive scans are obviously
/// correct, and the equivalence tests plus verify mode (PROCSIM_VERIFY=1)
/// hold the index to its answers bit for bit.
class FreeSubmeshScan {
 public:
  explicit FreeSubmeshScan(const MeshState& state);

  /// Number of busy nodes inside `s` (must lie within the mesh).
  [[nodiscard]] std::int32_t busy_in(const SubMesh& s) const;

  /// True if `s` lies within the mesh and contains no busy node.
  [[nodiscard]] bool is_free(const SubMesh& s) const;

  /// First-fit: lowest base in row-major order hosting a free a×b sub-mesh.
  [[nodiscard]] std::optional<SubMesh> first_fit(std::int32_t a, std::int32_t b) const;

  /// First-fit trying a×b then, if that fails and a != b, the rotated b×a
  /// (standard orientation switch of contiguous strategies).
  [[nodiscard]] std::optional<SubMesh> first_fit_rotatable(std::int32_t a,
                                                           std::int32_t b) const;

  /// Best-fit: among all free a×b placements, the one bordered by the fewest
  /// free nodes (tightest packing); ties resolve to the lowest row-major base.
  [[nodiscard]] std::optional<SubMesh> best_fit(std::int32_t a, std::int32_t b) const;

  /// Largest-area free sub-mesh with width <= max_w and length <= max_l,
  /// optionally also area <= max_area. Ties resolve to the first candidate in
  /// deterministic (width, length, base) scan order. This is GABL's inner
  /// search. Returns nullopt only when no free node exists.
  [[nodiscard]] std::optional<SubMesh> largest_free(
      std::int32_t max_w, std::int32_t max_l,
      std::int64_t max_area = std::numeric_limits<std::int64_t>::max()) const;

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }

 private:
  [[nodiscard]] std::int64_t rect_sum(std::int32_t x1, std::int32_t y1, std::int32_t x2,
                                      std::int32_t y2) const;
  /// Free nodes in the one-node-wide ring around `s`, clipped to the mesh.
  [[nodiscard]] std::int32_t free_border(const SubMesh& s) const;

  Geometry geom_;
  std::vector<std::int64_t> prefix_;  // (W+1)×(L+1) inclusive prefix sums of busy
};

}  // namespace procsim::mesh
