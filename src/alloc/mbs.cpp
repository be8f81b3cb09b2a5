#include "alloc/mbs.hpp"

#include <stdexcept>

namespace procsim::alloc {

MbsAllocator::MbsAllocator(mesh::Geometry geom) : Allocator(geom), tiling_(geom) {}

std::vector<std::int32_t> MbsAllocator::base4_factorize(std::int32_t p) {
  if (p <= 0) throw std::invalid_argument("base4_factorize: p must be positive");
  std::vector<std::int32_t> digits;
  while (p > 0) {
    digits.push_back(p % 4);
    p /= 4;
  }
  return digits;
}

std::optional<Placement> MbsAllocator::allocate(const Request& req) {
  validate_request(req, geometry());
  note_attempt(req);
  if (free_processors() < req.processors) return std::nullopt;

  // Outstanding block requests per order. Digits above the tiling's maximum
  // order cannot exist as blocks; fold them down immediately (4x at the next
  // order down).
  std::vector<std::int64_t> want(static_cast<std::size_t>(tiling_.max_order()) + 1, 0);
  {
    const std::vector<std::int32_t> digits = base4_factorize(req.processors);
    std::int64_t overflow = 0;
    for (std::size_t i = digits.size(); i-- > 0;) {
      if (i > static_cast<std::size_t>(tiling_.max_order())) {
        overflow = overflow * 4 + digits[i];
      } else {
        want[i] += digits[i];
        if (overflow > 0) {
          want[i] += overflow * 4;
          overflow = 0;
        }
      }
    }
    if (overflow > 0) want[0] += overflow;  // degenerate 1-wide meshes
  }

  Placement placement;
  bool split = false;  // left the factorized shape (buddy break-up happened)
  std::vector<mesh::BuddyTiling::BlockId> taken;
  for (std::size_t order = want.size(); order-- > 0;) {
    while (want[order] > 0) {
      if (auto block = tiling_.take_block(static_cast<std::int32_t>(order))) {
        taken.push_back(*block);
        --want[order];
      } else if (order > 0) {
        split = true;
        // Break the request into four buddies one order down (paper: "the
        // requested block is broken into 4 requests for smaller blocks").
        want[order - 1] += 4 * want[order];
        want[order] = 0;
      } else {
        // Out of single nodes: only possible when free < p, which the guard
        // above excludes. Roll back defensively.
        for (const auto id : taken) tiling_.release_block(id);
        return std::nullopt;
      }
    }
  }

  placement.blocks.reserve(taken.size());
  placement.tags.reserve(taken.size());
  for (const auto id : taken) {
    placement.blocks.push_back(tiling_.rect(id));
    placement.tags.push_back(id);
  }
  if (split) note_fallback(req);
  for (const mesh::SubMesh& b : placement.blocks) occupy(b);
  finalize_placement(placement, req.processors);
  return placement;
}

bool MbsAllocator::can_allocate(const Request& req) const {
  validate_request(req, geometry());
  // Buddy splitting reaches single nodes, so MBS succeeds whenever p
  // processors are free regardless of their arrangement.
  return free_processors() >= req.processors;
}

void MbsAllocator::release(const Placement& placement) {
  for (const std::int32_t tag : placement.tags) tiling_.release_block(tag);
  for (const mesh::SubMesh& b : placement.blocks) vacate(b);
}

void MbsAllocator::reset() {
  Allocator::reset();
  tiling_.clear();
}

}  // namespace procsim::alloc
