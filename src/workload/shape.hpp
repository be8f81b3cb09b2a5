#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "mesh/coord.hpp"

namespace procsim::workload {

/// Maps a trace job's processor count to a requested sub-mesh (a, b):
/// the smallest-area a×b >= p that fits in the mesh, preferring the most
/// square shape (smallest perimeter) among equals. Trace files record only
/// "p processors"; contiguity-seeking strategies (GABL, the contiguous
/// baselines) need a shape, and near-square minimises path lengths.
[[nodiscard]] std::pair<std::int32_t, std::int32_t> shape_for_processors(
    std::int32_t p, const mesh::Geometry& geom);

/// shape_for_processors for one geometry, scanned once per distinct
/// processor count: a trace repeats a few counts many times, and each scan
/// is O(min(W, p)) with a division per width. Holds one entry per count
/// seen (no table over every possible count), so memory follows the
/// trace's variety, not the mesh size. Exact: the shape depends only on p
/// and the geometry.
class ShapeMemo {
 public:
  explicit ShapeMemo(const mesh::Geometry& geom) : geom_(geom) {}

  [[nodiscard]] const mesh::Geometry& geometry() const noexcept { return geom_; }

  /// shape_for_processors(p, geometry()); throws as it does, caching nothing.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> operator()(std::int32_t p) {
    const auto it = shapes_.find(p);
    if (it != shapes_.end()) return it->second;
    const auto shape = shape_for_processors(p, geom_);
    shapes_.emplace(p, shape);
    return shape;
  }

 private:
  mesh::Geometry geom_;
  std::unordered_map<std::int32_t, std::pair<std::int32_t, std::int32_t>> shapes_;
};

}  // namespace procsim::workload
