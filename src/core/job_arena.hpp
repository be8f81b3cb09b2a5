#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"
#include "network/traffic.hpp"
#include "workload/job.hpp"

namespace procsim::core {

/// A running job's outgoing message streams in one flat layout: the sorted
/// source nodes, a window into a shared destination vector per source, and
/// a cursor per source. No node allocations per job, and the vectors keep
/// their capacity across slot reuse, so a steady-state run builds streams
/// allocation-free.
///
/// Sources iterate in ascending NodeId and each source's destinations keep
/// message-plan order: that injection sequence shapes every simulated byte,
/// so it must not change with how the streams are built.
///
/// build() reads the plan and the placement's blocks directly: processor
/// index i is the i-th node of the blocks (network::block_node), resolved
/// in O(log blocks) from cumulative block areas, and the work is
/// O(messages + sources · log sources) on top — network::map_plan, which
/// materialises the (source, destination) list, stays as the test oracle.
class StreamSet {
 public:
  /// Per-simulator working memory of build(), shared by every StreamSet of
  /// one JobArena: a per-processor-index table sized to the largest job
  /// seen (grown, never shrunk) whose touched entries build() resets, so no
  /// job start makes a pass over all processors and warm builds allocate
  /// nothing.
  struct Scratch {
    /// Per processor index: its message count while counting (0: it sends
    /// nothing), then its source's sorted position while filling.
    std::vector<std::uint32_t> per_index;
    /// (node, processor index) per source, sorted by node.
    std::vector<std::pair<mesh::NodeId, std::int32_t>> order;
    std::vector<std::int32_t> block_end;  ///< cumulative areas of the blocks
  };

  /// Rebuilds from a job's message plan bound to `blocks`, whose first
  /// `processors` nodes are the job's compute nodes. Throws
  /// std::invalid_argument — before changing any stream state — if an
  /// index lies outside [0, processors) or the blocks, or a message sends
  /// to itself. Keeps capacity.
  void build(std::span<const network::IndexPair> plan,
             std::span<const mesh::SubMesh> blocks, const mesh::Geometry& geom,
             std::int32_t processors, Scratch& scratch);

  [[nodiscard]] std::size_t sources() const noexcept { return srcs_.size(); }
  [[nodiscard]] mesh::NodeId source(std::size_t i) const noexcept { return srcs_[i]; }
  [[nodiscard]] std::size_t messages() const noexcept { return dsts_.size(); }

  /// Next destination for the i-th source, advancing its cursor.
  [[nodiscard]] std::optional<mesh::NodeId> next_at(std::size_t i) noexcept {
    if (next_[i] == end_[i]) return std::nullopt;
    return dsts_[next_[i]++];
  }

  /// Next destination for source node `src` (binary search over the sorted
  /// source list — the per-delivery path). std::nullopt when the stream is
  /// exhausted; throws std::logic_error for a node that never sent.
  [[nodiscard]] std::optional<mesh::NodeId> advance(mesh::NodeId src);

  void clear() noexcept;

 private:
  std::vector<mesh::NodeId> srcs_;     ///< sorted ascending, unique
  std::vector<std::uint32_t> next_;    ///< per source: cursor into dsts_
  std::vector<std::uint32_t> end_;     ///< per source: one past the last
  std::vector<mesh::NodeId> dsts_;     ///< all destinations, grouped by source
};

/// Slot-reusing storage for every job the simulator currently tracks (queued
/// or running). Hot per-delivery fields — the packets-outstanding counter and
/// the start time — live in their own contiguous arrays (SoA), cold state
/// (the Job, its Placement, its StreamSet) in parallel slot vectors.
///
/// The slot index doubles as the network tag, making the delivery path a
/// direct array access; the id → slot hash map exists only for the scheduler
/// path, which speaks job ids. Released slots go to a free list and their
/// containers keep capacity, so long replays stop allocating once the peak
/// concurrent-job count is reached.
class JobArena {
 public:
  using Slot = std::uint32_t;

  /// Admits a job (at arrival) and returns its slot. Throws
  /// std::invalid_argument on a duplicate job id.
  [[nodiscard]] Slot acquire(workload::Job job);

  /// Frees the slot for reuse and forgets the id mapping.
  void release(Slot s);

  /// Removes the job from the slot and returns it (release + payload move).
  /// The inter-mesh migration path: the stolen job leaves this arena whole
  /// and re-enters another mesh's arena on re-queue — one resident copy ever.
  [[nodiscard]] workload::Job extract(Slot s);

  /// Forgets everything; keeps slot capacity for the next run.
  void clear();

  [[nodiscard]] std::size_t active() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool occupied(Slot s) const noexcept {
    return s < occupied_.size() && occupied_[s] != 0;
  }

  /// Slot behind a job id (the scheduler path); throws std::logic_error if
  /// the id is not resident.
  [[nodiscard]] Slot slot_of(std::uint64_t id) const;
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.find(id) != index_.end();
  }

  [[nodiscard]] workload::Job& job(Slot s) noexcept { return jobs_[s]; }
  [[nodiscard]] const workload::Job& job(Slot s) const noexcept { return jobs_[s]; }
  [[nodiscard]] alloc::Placement& placement(Slot s) noexcept { return placements_[s]; }
  [[nodiscard]] const alloc::Placement& placement(Slot s) const noexcept {
    return placements_[s];
  }
  [[nodiscard]] double& start_time(Slot s) noexcept { return start_time_[s]; }
  [[nodiscard]] std::int64_t& outstanding(Slot s) noexcept { return outstanding_[s]; }
  [[nodiscard]] StreamSet& streams(Slot s) noexcept { return streams_[s]; }
  /// Builds slot `s`'s streams from its job's message plan and placement.
  void build_streams(Slot s, const mesh::Geometry& geom) {
    streams_[s].build(jobs_[s].message_plan, placements_[s].blocks, geom,
                      jobs_[s].processors, stream_scratch_);
  }

 private:
  // Hot (per-delivery) columns.
  std::vector<std::int64_t> outstanding_;
  std::vector<double> start_time_;
  // Cold columns.
  std::vector<workload::Job> jobs_;
  std::vector<alloc::Placement> placements_;
  std::vector<StreamSet> streams_;
  StreamSet::Scratch stream_scratch_;  ///< shared by every slot's build
  std::vector<char> occupied_;
  std::vector<Slot> free_;
  std::unordered_map<std::uint64_t, Slot> index_;
};

}  // namespace procsim::core
