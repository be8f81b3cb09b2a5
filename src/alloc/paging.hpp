#pragma once

#include <vector>

#include "alloc/allocator.hpp"
#include "mesh/page_table.hpp"

namespace procsim::alloc {

/// Paging strategy (Lo et al., TPDS 1997). The mesh is tiled into pages of
/// side 2^size_index; a page is the allocation unit and pages are handed out
/// in indexing order (the paper's main results use row-major). Paging(0)
/// has one-node pages, hence no internal fragmentation; larger pages trade
/// internal fragmentation for contiguity.
class PagingAllocator final : public Allocator {
 public:
  PagingAllocator(mesh::Geometry geom, std::int32_t size_index,
                  mesh::PageIndexing indexing = mesh::PageIndexing::kRowMajor);

  [[nodiscard]] std::optional<Placement> allocate(const Request& req) override;
  [[nodiscard]] bool can_allocate(const Request& req) const override;
  void release(const Placement& placement) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool is_noncontiguous() const override { return true; }
  void reset() override;

  [[nodiscard]] const mesh::PageTable& pages() const noexcept { return table_; }
  /// Pages not held by any placement (tests).
  [[nodiscard]] std::size_t free_pages() const;

 private:
  mesh::PageTable table_;
  std::vector<std::uint8_t> page_busy_;  // by page index
};

}  // namespace procsim::alloc
