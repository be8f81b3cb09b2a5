#include "core/job_arena.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace procsim::core {

void StreamSet::build(std::span<const network::IndexPair> plan,
                      std::span<const mesh::SubMesh> blocks, const mesh::Geometry& geom,
                      std::int32_t processors, Scratch& scratch) {
  // Cumulative block areas up to the compute nodes: index i lives in the
  // first block whose end exceeds i.
  scratch.block_end.clear();
  std::int32_t covered = 0;
  for (const mesh::SubMesh& b : blocks) {
    if (covered >= processors) break;
    covered += b.area();
    scratch.block_end.push_back(covered);
  }
  const std::int32_t limit = std::min(processors, covered);
  const auto node_of = [&](std::int32_t i) {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(scratch.block_end.begin(), scratch.block_end.end(), i) -
        scratch.block_end.begin());
    const mesh::SubMesh& b = blocks[k];
    const std::int32_t off = k == 0 ? i : i - scratch.block_end[k - 1];
    return geom.id(mesh::Coord{b.x1 + off % b.width(), b.y1 + off / b.width()});
  };

  // Each source's message count, kept in its table entry; its first
  // message lists it. The plan is validated here, before any stream state
  // changes.
  if (scratch.per_index.size() < static_cast<std::size_t>(limit))
    scratch.per_index.resize(static_cast<std::size_t>(limit), 0);
  scratch.order.clear();
  const auto reset_table = [&scratch] {
    for (const auto& [node, i] : scratch.order)
      scratch.per_index[static_cast<std::size_t>(i)] = 0;
  };
  for (const auto& [si, di] : plan) {
    if (si < 0 || di < 0 || si >= limit || di >= limit || si == di) {
      reset_table();
      throw std::invalid_argument("StreamSet: plan index out of range");
    }
    if (scratch.per_index[static_cast<std::size_t>(si)]++ == 0)
      scratch.order.emplace_back(node_of(si), si);
  }

  // Sources by ascending node; each takes a window of dsts_ sized by its
  // count, and its table entry now names its sorted position.
  std::sort(scratch.order.begin(), scratch.order.end());
  const std::size_t n = scratch.order.size();
  srcs_.resize(n);
  next_.resize(n);
  end_.resize(n);
  std::uint32_t offset = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto [node, i] = scratch.order[k];
    std::uint32_t& entry = scratch.per_index[static_cast<std::size_t>(i)];
    srcs_[k] = node;
    next_[k] = offset;  // the fill cursor below
    offset += entry;
    end_[k] = offset;
    entry = static_cast<std::uint32_t>(k);
  }

  // Grouped fill in plan order: each source's destinations land contiguously
  // and in the order the message plan issued them.
  dsts_.resize(plan.size());
  for (const auto& [si, di] : plan)
    dsts_[next_[scratch.per_index[static_cast<std::size_t>(si)]]++] = node_of(di);
  for (std::size_t k = 0; k < n; ++k) next_[k] = k == 0 ? 0 : end_[k - 1];
  reset_table();
}

std::optional<mesh::NodeId> StreamSet::advance(mesh::NodeId src) {
  const auto it = std::lower_bound(srcs_.begin(), srcs_.end(), src);
  if (it == srcs_.end() || *it != src)
    throw std::logic_error("StreamSet: delivery from unknown source stream");
  return next_at(static_cast<std::size_t>(it - srcs_.begin()));
}

void StreamSet::clear() noexcept {
  srcs_.clear();
  next_.clear();
  end_.clear();
  dsts_.clear();
}

JobArena::Slot JobArena::acquire(workload::Job job) {
  const std::uint64_t id = job.id;
  Slot s;
  if (!free_.empty()) {
    s = free_.back();
  } else {
    if (jobs_.size() > std::numeric_limits<Slot>::max())
      throw std::length_error("JobArena: slot index overflow");
    s = static_cast<Slot>(jobs_.size());
    outstanding_.emplace_back();
    start_time_.emplace_back();
    jobs_.emplace_back();
    placements_.emplace_back();
    streams_.emplace_back();
    occupied_.push_back(0);
  }
  if (!index_.emplace(id, s).second)
    throw std::invalid_argument("JobArena: duplicate job id " + std::to_string(id));
  if (!free_.empty()) free_.pop_back();  // committed only after the id check
  outstanding_[s] = 0;
  start_time_[s] = 0;
  jobs_[s] = std::move(job);
  placements_[s] = alloc::Placement{};
  streams_[s].clear();
  occupied_[s] = 1;
  return s;
}

void JobArena::release(Slot s) {
  if (!occupied(s)) throw std::logic_error("JobArena: releasing a free slot");
  index_.erase(jobs_[s].id);
  jobs_[s] = workload::Job{};          // drop the message plan's memory
  placements_[s] = alloc::Placement{}; // drop the node list's memory
  occupied_[s] = 0;
  free_.push_back(s);
}

workload::Job JobArena::extract(Slot s) {
  if (!occupied(s)) throw std::logic_error("JobArena: extracting a free slot");
  workload::Job out = std::move(jobs_[s]);
  release(s);
  return out;
}

void JobArena::clear() {
  index_.clear();
  free_.clear();
  // Keep the slot vectors (and every StreamSet's capacity); only the job
  // payloads are dropped. The free list is rebuilt descending so the next
  // run reuses slot 0 first — the same slot sequence a fresh arena produces.
  for (std::size_t s = jobs_.size(); s-- > 0;) {
    jobs_[s] = workload::Job{};
    placements_[s] = alloc::Placement{};
    occupied_[s] = 0;
    free_.push_back(static_cast<Slot>(s));
  }
}

JobArena::Slot JobArena::slot_of(std::uint64_t id) const {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::logic_error("JobArena: no slot for job id " + std::to_string(id));
  return it->second;
}

}  // namespace procsim::core
