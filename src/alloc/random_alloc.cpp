#include "alloc/random_alloc.hpp"

#include "des/distributions.hpp"

namespace procsim::alloc {

std::optional<Placement> RandomAllocator::allocate(const Request& req) {
  validate_request(req, geometry());
  note_attempt(req);
  if (free_processors() < req.processors) return std::nullopt;

  // Reused scratch: the free list is rebuilt in place each call instead of
  // allocating a fresh vector per request (this is the allocator's hot path).
  index().free_nodes_into(free_scratch_);
  std::vector<mesh::NodeId>& free = free_scratch_;
  // Partial Fisher-Yates: draw p distinct nodes uniformly.
  Placement placement;
  placement.blocks.reserve(static_cast<std::size_t>(req.processors));
  for (std::int32_t i = 0; i < req.processors; ++i) {
    const auto j = static_cast<std::size_t>(des::sample_uniform_int(
        rng_, i, static_cast<std::int64_t>(free.size()) - 1));
    std::swap(free[static_cast<std::size_t>(i)], free[j]);
    const mesh::Coord c = geometry().coord(free[static_cast<std::size_t>(i)]);
    placement.blocks.push_back(mesh::SubMesh{c.x, c.y, c.x, c.y});
    occupy(free[static_cast<std::size_t>(i)]);
  }
  finalize_placement(placement, req.processors);
  return placement;
}

bool RandomAllocator::can_allocate(const Request& req) const {
  validate_request(req, geometry());
  // Any p free nodes do; crucially this draws nothing from rng_, so probing
  // leaves the strategy's placement sequence untouched.
  return free_processors() >= req.processors;
}

void RandomAllocator::release(const Placement& placement) {
  for (const mesh::SubMesh& blk : placement.blocks) vacate(blk);
}

}  // namespace procsim::alloc
