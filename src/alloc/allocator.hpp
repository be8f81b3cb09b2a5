#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mesh/coord.hpp"
#include "mesh/occupancy_index.hpp"
#include "mesh/submesh.hpp"

namespace procsim::obs {
class Recorder;
}  // namespace procsim::obs

namespace procsim::alloc {

/// An allocation request. Stochastic workloads request a sub-mesh shape
/// (a = width, b = length) with processors == a*b; trace-driven workloads
/// request `processors` directly and the shape is a derived bounding hint
/// (see workload::shape_for_processors).
struct Request {
  std::int32_t width{1};       ///< a
  std::int32_t length{1};      ///< b
  std::int32_t processors{1};  ///< p, the processors that actually compute
};

/// The outcome of a successful allocation.
struct Placement {
  /// Disjoint rectangles whose processors are held by the job. The job's
  /// `Request::processors` compute nodes are the first that many nodes of
  /// the blocks in block order, row-major inside each block
  /// (network::block_node resolves them).
  std::vector<mesh::SubMesh> blocks;
  /// Total processors held — may exceed Request::processors (internal
  /// fragmentation: Paging with pages > 1 node, GABL's a*b bounding).
  std::int32_t allocated{0};
  /// Strategy-private bookkeeping (page indices, buddy block ids).
  std::vector<std::int32_t> tags;
};

/// Common interface of every allocation strategy. Each strategy owns the
/// mesh occupancy (one strategy drives one simulated machine) plus whatever
/// auxiliary index it needs, and guarantees:
///   * allocate() either returns a Placement of disjoint, previously-free
///     blocks (now marked busy) or changes nothing;
///   * release() returns exactly the Placement's blocks to the free pool.
///
/// The base owns the occupancy as one bit-parallel OccupancyIndex, which
/// answers the strategies' free-rectangle queries without any per-event
/// snapshot rebuild and rejects a double allocation or a release of a free
/// node (std::logic_error). Strategies mutate occupancy only through
/// occupy()/vacate().
class Allocator {
 public:
  explicit Allocator(mesh::Geometry geom) : index_(geom) {}
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Attempts to place `req` now; nullopt means the request must wait.
  [[nodiscard]] virtual std::optional<Placement> allocate(const Request& req) = 0;

  /// The scheduler's transactional probe: true iff allocate(req) would
  /// return a placement at this instant. Exact for every shipped strategy
  /// and side-effect free — non-contiguous strategies answer from the free
  /// count, the contiguous baselines from one occupancy-index fit query —
  /// so a scheduling pass may probe many queued jobs without perturbing
  /// allocator state (Random's RNG included).
  [[nodiscard]] virtual bool can_allocate(const Request& req) const = 0;

  /// The probe-at-instant: true iff allocate(req) would succeed once every
  /// node of `released` (blocks of running jobs projected to finish by then)
  /// had been returned to the free pool. Reservation-aware schedulers use it
  /// to place a blocked job's reservation at a *shape-feasible* release
  /// instant instead of a merely count-feasible one. With an empty
  /// `released` this is exactly can_allocate(req).
  ///
  /// The default is the count model every non-contiguous strategy's
  /// can_allocate already uses (free + released area >= need) — exact for
  /// them, an optimistic approximation for strategies whose feasibility
  /// depends on arrangement; the contiguous baselines override it with a
  /// hypothetical-occupancy index query, which is exact.
  [[nodiscard]] virtual bool can_allocate_with_free(
      const Request& req, const std::vector<mesh::SubMesh>& released) const;

  /// Returns a placement obtained from allocate() on this allocator.
  virtual void release(const Placement& placement) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True when the strategy is non-contiguous in the paper's sense:
  /// allocation succeeds whenever enough processors are free, regardless of
  /// their arrangement (no external fragmentation).
  [[nodiscard]] virtual bool is_noncontiguous() const = 0;

  /// Restores the pristine empty mesh (between replications).
  virtual void reset() { index_.clear(); }

  [[nodiscard]] const mesh::OccupancyIndex& index() const noexcept { return index_; }
  /// Alias of index(), kept only because perfbench/selftest.cpp reads it.
  [[nodiscard]] const mesh::OccupancyIndex& state() const noexcept { return index_; }
  [[nodiscard]] const mesh::Geometry& geometry() const noexcept {
    return index_.geometry();
  }
  [[nodiscard]] std::int32_t free_processors() const noexcept {
    return index_.free_count();
  }

  /// Attaches (nullptr detaches) the observability recorder. Observation-only
  /// like every obs hook: strategies note attempts/fallbacks through it, never
  /// read it. SystemSim::run wires this from SystemConfig::recorder.
  void set_recorder(obs::Recorder* rec) noexcept { rec_ = rec; }

 protected:
  /// Marks `s` (all currently free) busy.
  void occupy(const mesh::SubMesh& s) { index_.allocate(s); }
  /// Returns `s` (all currently busy) to the free pool.
  void vacate(const mesh::SubMesh& s) { index_.release(s); }
  void occupy(mesh::NodeId n) { index_.allocate(n); }
  void vacate(mesh::NodeId n) { index_.release(n); }

  /// Sets `allocated` to the blocks' total area; throws std::logic_error
  /// if that is fewer than the `p` processors the job computes on.
  static void finalize_placement(Placement& placement, std::int32_t p);

  /// Strategy-level observability notes (no-ops when detached). Strategies
  /// call note_attempt() at allocate() entry and note_fallback() when they
  /// leave their contiguous fast path (GABL carving, MBS buddy splitting).
  void note_attempt(const Request& req) const;
  void note_fallback(const Request& req) const;

 private:
  mesh::OccupancyIndex index_;
  obs::Recorder* rec_{nullptr};  ///< non-owning; null = observability off
};

/// Validates a request against a geometry (shared by all strategies).
/// Throws std::invalid_argument for non-positive or oversized requests.
void validate_request(const Request& req, const mesh::Geometry& geom);

}  // namespace procsim::alloc
