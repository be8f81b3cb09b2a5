#include "alloc/paging.hpp"

#include <algorithm>

namespace procsim::alloc {

PagingAllocator::PagingAllocator(mesh::Geometry geom, std::int32_t size_index,
                                 mesh::PageIndexing indexing)
    : Allocator(geom),
      table_(geom, size_index, indexing),
      page_busy_(table_.page_count(), 0) {}

std::optional<Placement> PagingAllocator::allocate(const Request& req) {
  validate_request(req, geometry());
  note_attempt(req);
  // Pages are whole allocation units, so under pure Paging the free
  // processor count equals the capacity of the free pages.
  if (free_processors() < req.processors) return std::nullopt;

  Placement placement;
  // Reserve a lower-bound page count (full side² pages); clipped edge pages
  // can only raise it slightly, so growth reallocations are rare.
  const std::int32_t full_page = table_.page_side() * table_.page_side();
  const std::size_t pages_hint =
      static_cast<std::size_t>((req.processors + full_page - 1) / full_page);
  placement.tags.reserve(pages_hint);
  placement.blocks.reserve(pages_hint);
  std::int32_t capacity = 0;
  for (std::size_t i = 0; i < table_.page_count() && capacity < req.processors; ++i) {
    if (page_busy_[i]) continue;
    placement.tags.push_back(static_cast<std::int32_t>(i));
    placement.blocks.push_back(table_.page(i));
    capacity += table_.page(i).area();
  }
  if (capacity < req.processors) return std::nullopt;  // unreachable under pure Paging

  for (const std::int32_t tag : placement.tags)
    page_busy_[static_cast<std::size_t>(tag)] = 1;
  for (const mesh::SubMesh& b : placement.blocks) occupy(b);
  finalize_placement(placement, req.processors);
  return placement;
}

bool PagingAllocator::can_allocate(const Request& req) const {
  validate_request(req, geometry());
  // Pages are whole allocation units, so the free processor count equals the
  // free pages' capacity: the same guard allocate() uses.
  return free_processors() >= req.processors;
}

void PagingAllocator::release(const Placement& placement) {
  for (const std::int32_t tag : placement.tags)
    page_busy_.at(static_cast<std::size_t>(tag)) = 0;
  for (const mesh::SubMesh& b : placement.blocks) vacate(b);
}

std::size_t PagingAllocator::free_pages() const {
  return static_cast<std::size_t>(std::count(page_busy_.begin(), page_busy_.end(), 0));
}

std::string PagingAllocator::name() const {
  return "Paging(" + std::to_string(table_.size_index()) + ")";
}

void PagingAllocator::reset() {
  Allocator::reset();
  std::fill(page_busy_.begin(), page_busy_.end(), std::uint8_t{0});
}

}  // namespace procsim::alloc
