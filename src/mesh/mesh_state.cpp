#include "mesh/mesh_state.hpp"

#include <algorithm>
#include <stdexcept>

namespace procsim::mesh {

std::size_t MeshState::checked(NodeId n) const {
  if (n < 0 || n >= geom_.nodes()) throw std::out_of_range("MeshState: node id out of range");
  return static_cast<std::size_t>(n);
}

void MeshState::allocate(NodeId n) {
  const std::size_t i = checked(n);
  if (busy_[i]) throw std::logic_error("MeshState: double allocation of node");
  busy_[i] = 1;
  --free_;
}

void MeshState::release(NodeId n) {
  const std::size_t i = checked(n);
  if (!busy_[i]) throw std::logic_error("MeshState: releasing a free node");
  busy_[i] = 0;
  ++free_;
}

std::int32_t MeshState::busy_in(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end()))
    throw std::out_of_range("MeshState: sub-mesh outside mesh");
  std::int32_t busy = 0;
  for (std::int32_t y = s.y1; y <= s.y2; ++y)
    for (std::int32_t x = s.x1; x <= s.x2; ++x) busy += is_busy(Coord{x, y});
  return busy;
}

// The sub-mesh variants check the whole rectangle before changing a node, so
// a violation leaves the map untouched.

void MeshState::allocate(const SubMesh& s) {
  if (busy_in(s) != 0) throw std::logic_error("MeshState: double allocation of node");
  for (std::int32_t y = s.y1; y <= s.y2; ++y)
    for (std::int32_t x = s.x1; x <= s.x2; ++x) allocate(geom_.id(Coord{x, y}));
}

void MeshState::release(const SubMesh& s) {
  if (busy_in(s) != s.area()) throw std::logic_error("MeshState: releasing a free node");
  for (std::int32_t y = s.y1; y <= s.y2; ++y)
    for (std::int32_t x = s.x1; x <= s.x2; ++x) release(geom_.id(Coord{x, y}));
}

bool MeshState::all_free(const SubMesh& s) const {
  if (!s.valid() || !geom_.contains(s.base()) || !geom_.contains(s.end())) return false;
  return busy_in(s) == 0;
}

void MeshState::clear() {
  std::fill(busy_.begin(), busy_.end(), std::uint8_t{0});
  free_ = geom_.nodes();
}

}  // namespace procsim::mesh
