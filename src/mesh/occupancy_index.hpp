#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "mesh/coord.hpp"
#include "mesh/submesh.hpp"

namespace procsim::mesh {

class MeshState;

/// Incrementally maintained occupancy bitmap with bit-parallel free-sub-mesh
/// queries — the scalable successor of FreeSubmeshScan's snapshot rebuild.
///
/// Each mesh row is a chain of 64-bit words holding one *free* bit per node
/// (tail bits past the width stay zero, i.e. read as busy). allocate() and
/// release() touch only the words of the rows they span, so maintaining the
/// index costs O(rows touched) per event instead of an O(W·L) rebuild per
/// query. The rectangle queries then run on whole words: "columns where `a`
/// consecutive free bits start" is a handful of shift-ANDs per row, and a
/// height-`b` window is the AND of `b` row masks.
///
/// On top of the bitmap sit two summary levels (the 512×512 fast path):
///
///  * level 1 — one record per row: longest free run and a row-is-all-free
///    flag (the flags packed into 64-row bitset words);
///  * level 2 — one record per 64-row block: the max over the block's
///    per-row longest runs.
///
/// first_fit and best_fit walk rows through these summaries: a whole block
/// whose max run is shorter than the request width is skipped in one
/// comparison (fully-busy regions), a window of all-free rows answers
/// first_fit without touching run masks (fully-free regions), and only rows
/// inside a *viable* window — b consecutive rows that each hold a run of
/// `a` — ever compute run masks. allocate() and release() set a dirty bit
/// per row they touch; a query first recomputes the dirty rows and the
/// maxima of the blocks holding them, found by scanning one bitset word per
/// 64 rows, so steady churn pays O(rows touched), not O(L).
///
/// Every query reproduces FreeSubmeshScan's answer bit for bit — same scan
/// order, same tie-breaking — which the randomized equivalence test and
/// verify mode both enforce: under PROCSIM_VERIFY=1 (util/verify.hpp) every
/// fit query also runs FreeSubmeshScan on a reconstructed snapshot and throws
/// std::logic_error on any divergence, restoring the O(W·L)-per-query cost
/// the index exists to remove.
///
/// Queries reuse internal scratch buffers (that reuse is part of the point:
/// no per-query vector allocations), so one OccupancyIndex must not be
/// queried from two threads at once. Allocators are per-simulated-machine
/// and single-threaded; parallel replications each own their allocator.
class OccupancyIndex {
 public:
  explicit OccupancyIndex(Geometry geom);

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] std::int32_t free_count() const noexcept { return free_count_; }
  [[nodiscard]] std::int32_t busy_count() const noexcept {
    return geom_.nodes() - free_count_;
  }
  [[nodiscard]] bool is_busy(Coord c) const;
  [[nodiscard]] bool is_busy(NodeId n) const { return is_busy(geom_.coord(n)); }

  /// O(rows touched) incremental updates. allocate() requires every node of
  /// `s` free, release() every node busy; violations throw std::logic_error,
  /// out-of-mesh throws std::out_of_range, and either leaves the index as it
  /// was.
  void allocate(const SubMesh& s);
  void release(const SubMesh& s);
  void allocate(NodeId n);
  void release(NodeId n);

  /// Frees every node (fresh replication).
  void clear();

  /// The free node ids in ascending (row-major) order, written into a
  /// caller-owned buffer (cleared first) so Random's per-allocation free list
  /// reuses one allocation across calls.
  void free_nodes_into(std::vector<NodeId>& out) const;

  // --- Queries, answer-identical to FreeSubmeshScan on the same occupancy ---

  /// Number of busy nodes inside `s` (must lie within the mesh).
  [[nodiscard]] std::int32_t busy_in(const SubMesh& s) const;

  /// True if `s` lies within the mesh and contains no busy node.
  [[nodiscard]] bool is_free(const SubMesh& s) const;

  /// First-fit: lowest base in row-major order hosting a free a×b sub-mesh.
  [[nodiscard]] std::optional<SubMesh> first_fit(std::int32_t a, std::int32_t b) const;

  /// First-fit trying a×b then, if that fails and a != b, the rotated b×a.
  [[nodiscard]] std::optional<SubMesh> first_fit_rotatable(std::int32_t a,
                                                           std::int32_t b) const;

  /// First-fit on a *hypothetical* occupancy: the current bitmap with every
  /// node of `extra_free` additionally marked free (blocks may be busy, free
  /// or overlapping — the union is what counts). This is the scheduler's
  /// probe-at-instant: "would an a×b sub-mesh fit once these running jobs'
  /// blocks are released?" answered without mutating the index, in one
  /// bitmap copy + the standard scan. Same scan order and tie-breaking as
  /// first_fit on a real occupancy (the shape-aware backfill tests replay
  /// the releases for real and compare).
  [[nodiscard]] std::optional<SubMesh> first_fit_assuming_free(
      std::int32_t a, std::int32_t b, const std::vector<SubMesh>& extra_free) const;

  /// Rotatable variant of the hypothetical-occupancy first fit: a×b, then
  /// b×a when a != b, both searched on the one bitmap that ORs `extra_free`
  /// in, so the copy and the OR are paid once per call, not per orientation.
  /// Each orientation still counts as one first-fit query.
  [[nodiscard]] std::optional<SubMesh> first_fit_rotatable_assuming_free(
      std::int32_t a, std::int32_t b, const std::vector<SubMesh>& extra_free) const;

  /// Best-fit: among all free a×b placements, the one bordered by the fewest
  /// free nodes; ties resolve to the lowest row-major base.
  ///
  /// Candidate scoring reads per-row free-count prefix sums from a
  /// generation-stamped cache maintained in lock-step with allocate/release
  /// (the stamps are bumped there; a stale row recomputes on first use), so
  /// repeat queries under churn reuse every untouched row instead of
  /// rebuilding column counts from the bitmap per query. Candidate windows
  /// are pre-filtered through the row/block summaries: a window containing
  /// a row with no width-a run has an empty mask and is never ANDed or
  /// scored. Answers are bit-identical to the exhaustive path (skipped
  /// windows contribute no candidates; oracle equivalence and cross-check
  /// cover it).
  [[nodiscard]] std::optional<SubMesh> best_fit(std::int32_t a, std::int32_t b) const;

  /// Largest-area free sub-mesh with width <= max_w, length <= max_l and
  /// optionally area <= max_area; ties resolve to the first candidate in
  /// deterministic (width, length, base) scan order (GABL's inner search).
  ///
  /// Answered from one feasibility frontier H — H[w] is the tallest l such
  /// that a free w×l sub-mesh exists, non-increasing in w — in O(max_w) to
  /// pick the winner plus one first_fit for its base. The frontier is kept
  /// incrementally: per block of rows it stores the tallest maximal free
  /// rectangle per span ending in the block and the per-column free-run
  /// heights at the block's last row. A sync recomputes (heights + one
  /// monotonic stack per row) only the blocks holding a row whose occupancy
  /// stamp went stale or whose incoming heights changed, then folds the
  /// block maxima into H. A cold sync is one stack pass over every row.
  ///
  /// Allocation only removes free space, so after allocate-only changes the
  /// last frontier is an upper bound of the true one, and its cap-winner
  /// (w*, l*) is exactly the true winner whenever the first_fit(w*, l*)
  /// that places it succeeds: every other width's true capped area is at
  /// most its bound area. GABL's carving loop (query, allocate the piece,
  /// query with narrower caps) is answered that way without a sync. A miss,
  /// any release or clear() forces a sync.
  ///
  /// Tie-breaking semantics (bit-identical to FreeSubmeshScan::largest_free,
  /// see README "Allocators & the occupancy index"): maximum capped area
  /// first; among equal areas the smallest width; the base is the first
  /// (y, x) in row-major order hosting that width×length — exactly the
  /// oracle's (width asc, length asc, y asc, x asc) scan order.
  [[nodiscard]] std::optional<SubMesh> largest_free(
      std::int32_t max_w, std::int32_t max_l,
      std::int64_t max_area = std::numeric_limits<std::int64_t>::max()) const;
  /// largest_free without the verify-mode oracle, for observers (telemetry):
  /// their reads never feed the model, and the uncapped oracle is O((W·L)²).
  [[nodiscard]] std::optional<SubMesh> largest_free_unchecked(
      std::int32_t max_w, std::int32_t max_l,
      std::int64_t max_area = std::numeric_limits<std::int64_t>::max()) const;

  /// Longest horizontal run of free nodes over all rows — a cheap
  /// fragmentation gauge (telemetry): reads the block summaries after
  /// recomputing only dirty rows, so steady churn pays O(rows touched).
  [[nodiscard]] std::int32_t max_free_run() const;

  /// Observability: how often each query family ran and how largest_free
  /// was answered. Monotone per run (clear() resets); bumping them is the
  /// only side effect queries have on this struct, so attaching a reader
  /// can never change an answer.
  struct QueryStats {
    std::uint64_t first_fit_queries{0};   ///< first_fit + rotatable + assuming
    std::uint64_t best_fit_queries{0};
    std::uint64_t largest_free_queries{0};
    std::uint64_t frontier_passes{0};     ///< frontier syncs
    std::uint64_t frontier_hits{0};       ///< largest_free answered without a sync
    std::uint64_t descent_queries{0};     ///< always 0; kept for existing readers
  };
  [[nodiscard]] const QueryStats& query_stats() const noexcept { return qstats_; }

  /// Reconstructs the equivalent per-node MeshState (oracle and diagnostics).
  [[nodiscard]] MeshState to_mesh_state() const;

 private:
  [[nodiscard]] const std::uint64_t* row(std::int32_t y) const {
    return free_.data() + static_cast<std::size_t>(y) * words_;
  }
  [[nodiscard]] std::uint64_t* row(std::int32_t y) {
    return free_.data() + static_cast<std::size_t>(y) * words_;
  }
  void check_inside(const SubMesh& s) const;
  /// Free nodes of row `y` in inclusive column range [c1, c2] (caller clips).
  [[nodiscard]] std::int32_t free_in_row_range(std::int32_t y, std::int32_t c1,
                                               std::int32_t c2) const;
  /// Fills runs_ row `y` with the mask of columns where a run of `a` free
  /// bits starts, reading the occupancy from `bits` (free_.data() for the
  /// real bitmap, assume_.data() for hypothetical queries; caller sizes
  /// runs_ to free_.size() first).
  void compute_run_row(const std::uint64_t* bits, std::int32_t y, std::int32_t a) const;
  /// compute_run_row at most once per row per query (runs_epoch_ marks).
  void ensure_run_row(const std::uint64_t* bits, std::int32_t y, std::int32_t a) const;
  /// win_ = AND of runs_ rows [y, y+b); false (with early exit) if empty.
  [[nodiscard]] bool window_into_win(std::int32_t y, std::int32_t b) const;

  /// assume_ = the bitmap with every node of `extra_free` marked free.
  void assume_free(const std::vector<SubMesh>& extra_free) const;
  /// A counted, verified first fit on assume_ as assume_free left it.
  [[nodiscard]] std::optional<SubMesh> first_fit_assumed(std::int32_t a,
                                                         std::int32_t b) const;

  [[nodiscard]] std::optional<SubMesh> first_fit_impl(const std::uint64_t* bits,
                                                      std::int32_t a,
                                                      std::int32_t b) const;
  [[nodiscard]] std::optional<SubMesh> best_fit_impl(std::int32_t a,
                                                     std::int32_t b) const;

  /// Recomputes row `yi`'s level-1 summary (longest run, all-free bit).
  void summarize_row(std::size_t yi) const;
  /// Brings the two summary levels (row flags + longest runs, per-block
  /// max runs) up to date: recomputes only the dirty rows, and the block
  /// maxima only of blocks that held one.
  void ensure_summaries() const;

  /// Brings the largest_free frontier up to date with the occupancy (see
  /// largest_free); allocates its arrays on first use.
  void sync_frontier() const;

  /// Advances the rolling heights to row `y` and raises `bm[s]` to
  /// the height of every maximal free rectangle of span s whose bottom edge
  /// is row y (monotonic stack).
  void stack_frontier_row(std::int32_t y, std::int32_t* bm) const;

  /// Winner selection over frontier H: the oracle's (width, length) choice
  /// under the caps, or {0, 0} when no shape fits.
  [[nodiscard]] std::pair<std::int32_t, std::int32_t> frontier_winner(
      std::int32_t max_w, std::int32_t max_l, std::int64_t max_area) const;

  /// Marks row `y`'s cached state stale (occupancy changed): a new
  /// generation stamp for the frontier and the best_fit cache, and a dirty
  /// bit for the row summaries.
  void dirty_row(std::int32_t y) {
    const auto yi = static_cast<std::size_t>(y);
    row_gen_[yi] = ++gen_counter_;
    sum_dirty_[yi / 64] |= std::uint64_t{1} << (yi % 64);
  }

  /// Validates (recomputing iff the row's stamp is stale) and returns row
  /// `y`'s free-count prefix block: entry x = free nodes in columns [0, x).
  [[nodiscard]] const std::int32_t* ensure_rowpref(std::int32_t y) const;

  Geometry geom_;
  std::size_t words_;             ///< 64-bit words per row
  std::uint64_t tail_mask_;       ///< valid bits of the last word of a row
  std::vector<std::uint64_t> free_;  ///< length() * words_, bit = 1 ⇒ free
  std::int32_t free_count_;

  // Cache generations: row_gen_[y] advances on every occupancy change
  // touching row y; a cached row is valid iff its stamp matches, and a
  // whole-mesh cache (the largest_free frontier) is valid iff it was built
  // at the current gen_counter_.
  std::vector<std::uint64_t> row_gen_;  ///< per-row occupancy generation
  std::uint64_t gen_counter_{0};

  // Query scratch, reused across calls (see class comment on thread-safety).
  mutable std::vector<std::uint64_t> runs_;  ///< per-row run-start masks
  mutable std::vector<std::uint64_t> runs_row_epoch_;  ///< runs_ row valid marks
  mutable std::uint64_t runs_epoch_{0};      ///< bumped per query
  mutable std::vector<std::uint64_t> win_;   ///< height-b window AND
  mutable std::vector<std::uint64_t> assume_;  ///< hypothetical-occupancy bitmap

  // Hierarchical occupancy summaries (level 1: rows, level 2: 64-row blocks).
  // Row y's summary is current unless bit y of sum_dirty_ is set.
  mutable std::vector<std::uint64_t> sum_dirty_;    ///< bit y ⇒ row y stale
  mutable std::vector<std::int32_t> row_max_run_;   ///< longest free run per row
  mutable std::vector<std::uint64_t> rows_all_free_;  ///< bit y ⇒ row y all free
  mutable std::vector<std::int32_t> blk_max_run_;   ///< max row_max_run_ per block

  // largest_free frontier, allocated by the first sync. Rows are grouped
  // into blocks of kLfBlockRows, the unit a sync restacks. lf_buf_ holds,
  // in order: H[0..W+1] (H[w] = tallest free w-wide rectangle), the rolling
  // per-column free-run heights (W), the monotonic stack's start columns
  // and heights (W+1 each), then per block the heights at its last row (W)
  // and, per span s in [0, W], the tallest maximal free rectangle of span
  // exactly s ending in the block.
  static constexpr std::int32_t kLfBlockRows = 8;
  std::uint64_t release_gen_{0};  ///< gen_counter_ at the last release/clear
  mutable std::vector<std::int32_t> lf_buf_;
  mutable std::uint64_t lf_frontier_gen_{0};  ///< gen_counter_ at the last sync

  // best_fit scoring cache: per-row within-row free-count prefix sums,
  // valid iff the row's stamp matches row_gen_ (so allocate/release keep it
  // incrementally current), plus the sliding window column sums.
  mutable std::vector<std::int32_t> bf_rowpref_;        ///< L × (W+1) prefix blocks
  mutable std::vector<std::uint64_t> bf_rowpref_gen_;   ///< per-row stamps
  mutable std::vector<std::int32_t> bf_win_;  ///< Σ rowpref over window rows

  mutable QueryStats qstats_;  ///< observability tallies (see query_stats)
};

}  // namespace procsim::mesh
