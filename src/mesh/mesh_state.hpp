#pragma once

#include <cstdint>
#include <vector>

#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"

namespace procsim::mesh {

/// Per-node occupancy map of a mesh, one byte per node: the input type of
/// the FreeSubmeshScan oracle. No allocator keeps one (their occupancy is the
/// OccupancyIndex); OccupancyIndex::to_mesh_state() builds one for the oracle,
/// and tests and benches build their own.
class MeshState {
 public:
  explicit MeshState(Geometry geom)
      : geom_(geom),
        busy_(static_cast<std::size_t>(geom.nodes()), 0),
        free_(geom.nodes()) {}

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }

  [[nodiscard]] bool is_busy(NodeId n) const { return busy_[checked(n)] != 0; }
  [[nodiscard]] bool is_busy(Coord c) const { return is_busy(geom_.id(c)); }

  [[nodiscard]] std::int32_t free_count() const noexcept { return free_; }
  [[nodiscard]] std::int32_t busy_count() const noexcept { return geom_.nodes() - free_; }

  /// Marks a single node allocated. Precondition: currently free.
  void allocate(NodeId n);
  /// Marks a single node free. Precondition: currently busy.
  void release(NodeId n);

  /// Marks all nodes of `s` allocated. Precondition: all free.
  void allocate(const SubMesh& s);
  /// Marks all nodes of `s` free. Precondition: all busy.
  void release(const SubMesh& s);

  /// True if every node of `s` is free (s must lie inside the mesh).
  [[nodiscard]] bool all_free(const SubMesh& s) const;

  /// Frees every node (fresh replication).
  void clear();

 private:
  [[nodiscard]] std::size_t checked(NodeId n) const;
  /// Busy nodes of `s`; throws std::out_of_range unless `s` lies in the mesh.
  [[nodiscard]] std::int32_t busy_in(const SubMesh& s) const;

  Geometry geom_;
  std::vector<std::uint8_t> busy_;
  std::int32_t free_;
};

}  // namespace procsim::mesh
