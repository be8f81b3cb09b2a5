#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "sched/capacity_profile.hpp"
#include "sched/fifo_base.hpp"

namespace procsim::sched {

/// Which backfilling discipline a BackfillScheduler runs.
struct BackfillOptions {
  /// false: EASY-style (aggressive) backfilling — Lifka's Extensible Argonne
  /// Scheduler, one reservation for the blocked head only. true:
  /// conservative backfilling — *every* queued job gets a reservation
  /// (computed against a processor-availability profile), and a job may
  /// start out of order only when doing so delays none of them.
  bool conservative{false};
  /// When the simulator provides a shape probe (SchedSnapshot::shape_fit),
  /// place reservations at instants where the blocked job's sub-mesh
  /// actually fits the projected occupancy — the running jobs' blocks
  /// released by then OR-ed back into the bitmap — instead of instants where
  /// merely enough nodes are free. Matters for the contiguous baselines,
  /// whose external fragmentation makes counts optimistic; without a probe
  /// (or for count-exact strategies) behaviour degrades gracefully to the
  /// count model.
  bool shape_aware{false};
};

/// Backfilling over the paper's FCFS base order, in two variants.
///
/// **EASY** (the default): when the head cannot be allocated, its
/// reservation ("shadow time") is the earliest instant the running jobs'
/// estimated completions free enough processors for it; each queued job's
/// known `demand` serves as the runtime estimate (the paper's SSD key — the
/// real service time remains an output of network contention, so estimates
/// are exactly as accurate as SSD's ordering key). A later job may overtake
/// the head only if it fits right now (the probe) and cannot delay the
/// reservation: it either finishes (by its own estimate) before the shadow
/// time, or it needs no more than the processors left over at the shadow
/// time after the head is seated.
///
/// **Conservative**: a pass builds an availability profile (free
/// processors as a step function of time, fed by the running set's estimated
/// releases) and walks the queue in order, granting each job the earliest
/// profile slot that holds its processors for its estimated duration and
/// then subtracting that slot from the profile. A job is nominated iff its
/// own reserved start is *now* — so no nomination can push any
/// earlier-queued job's reservation back, the defining guarantee
/// (starvation-free by construction, at the cost of backfill opportunities
/// EASY would take). Shape-aware, the walk also builds a release table with
/// the profile — each running job's release instant and the end of its
/// blocks in one flat list — so a walked job's refinement locates its first
/// unreleased job by binary search and passes the shape probe a prefix of
/// that list, rebuilt only as far as it changed; most walked jobs of a
/// saturated backlog reserve past the last release and never probe.
///
/// **Resume.** A walk that nominates nobody is kept: the profile (EASY: the
/// head's reservation), the instant, the free-processor count and the number
/// of positions walked. The next select() at the same instant and free count
/// continues from there instead of re-walking, provided nothing but tail
/// arrivals happened in between — on_start, on_complete, take, clear, an
/// enqueue that does not land at the tail, and any select() that returns a
/// position all drop the kept walk. Under the Scheduler contract occupancy
/// changes only at on_start and on_complete, so the walked prefix would see
/// the same profile, the same probe answers and the same reservations;
/// nominations are identical, only the repeated probes are saved. A saturated
/// backlog filled by same-instant arrivals thus costs one walk, not one per
/// arrival. Under PROCSIM_VERIFY=1 every resumed select is re-walked from
/// scratch and a differing nomination or profile throws std::logic_error.
///
/// Processor arithmetic is count-based, in the job's *compute* processor
/// count (QueuedJob::processors — what the non-contiguous strategies
/// actually allocate by) against the running jobs' exact held counts; exact
/// for Paging(0), MBS and Random, optimistic under external (contiguous
/// baselines) or internal (Paging(k>0), GABL) fragmentation. The shape_aware
/// option replaces the optimistic count at reservation instants with an
/// exact hypothetical-occupancy fit query where the simulator provides one —
/// reservations against *queued* jobs' hypothetical placements remain
/// count-based (nobody knows where they will land).
class BackfillScheduler final : public FifoBase {
 public:
  explicit BackfillScheduler(BackfillOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] std::optional<std::size_t> select(const AllocProbe& probe,
                                                  const SchedSnapshot& snap) override;
  void enqueue(const QueuedJob& job) override;
  QueuedJob take(std::size_t pos) override;

  /// Throws std::logic_error when `job` is already running.
  void on_start(const QueuedJob& job, double now, std::int64_t allocated,
                const std::vector<mesh::SubMesh>& blocks) override;
  /// Throws std::logic_error when `job_id` is not running.
  void on_complete(std::uint64_t job_id, double now) override;

  /// "backfill[:conservative][;shape]" — the registry spec grammar.
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const BackfillOptions& options() const noexcept { return opts_; }
  /// Conservative: the availability profile the last walk left behind (its
  /// reservations up to where it stopped); stale after a select() that
  /// started the head without walking.
  [[nodiscard]] const CapacityProfile& profile() const noexcept { return profile_; }
  void clear() override;

  /// Reservation-keeping counters: a job's *first* reservation instant is
  /// remembered when it is placed, and its eventual start classifies it as
  /// honored (started no later than promised) or broken (started later —
  /// possible under EASY, whose single-reservation guarantee does not extend
  /// to jobs behind the head; conservative breaks none by construction).
  void export_counters(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const override;

 private:
  struct Running {
    double finish_estimate{0};  ///< start + demand
    std::uint64_t job_id{0};    ///< deterministic tie-breaker
    std::int64_t allocated{0};  ///< processors actually held
    std::vector<mesh::SubMesh> blocks;  ///< placement, for the shape probe
    friend bool operator<(const Running& a, const Running& b) {
      if (a.finish_estimate != b.finish_estimate)
        return a.finish_estimate < b.finish_estimate;
      return a.job_id < b.job_id;
    }
  };

  /// The walk the last select() ended with nullopt, if still resumable.
  struct Resume {
    bool valid{false};
    double now{0};
    std::int64_t free_processors{0};
    bool use_shape{false};
    std::size_t walked{0};  ///< queue positions [0, walked) already walked
  };

  /// EASY's reservation for a blocked head.
  struct HeadReservation {
    double shadow{0};        ///< when the head is seated
    std::int64_t extra{0};   ///< processors left over there
    bool reachable{false};   ///< false: no reservation to protect
    friend bool operator==(const HeadReservation&, const HeadReservation&) = default;
  };

  // `from` > 0 resumes the kept walk at that position; 0 starts afresh.
  [[nodiscard]] std::optional<std::size_t> select_easy(const AllocProbe& probe,
                                                       const SchedSnapshot& snap,
                                                       bool use_shape, std::size_t from);
  [[nodiscard]] std::optional<std::size_t> select_conservative(
      const AllocProbe& probe, const SchedSnapshot& snap, bool use_shape,
      std::size_t from);

  [[nodiscard]] HeadReservation easy_reservation(const QueuedJob& head,
                                                 const SchedSnapshot& snap,
                                                 bool use_shape);
  [[nodiscard]] std::optional<std::size_t> easy_backfill(const AllocProbe& probe,
                                                         const SchedSnapshot& snap,
                                                         const HeadReservation& res,
                                                         std::size_t from) const;
  /// The running set as one walk sees it, in estimated-finish order: job k
  /// releases at `at[k]` = max(finish_estimate, now) and holds
  /// blocks[end[k-1], end[k]). A shape refinement advances an index into it;
  /// `released` is the prefix last handed to the shape probe, trimmed or
  /// extended in place from `blocks`.
  struct ReleaseTable {
    std::vector<double> at;
    std::vector<std::size_t> end;
    std::vector<mesh::SubMesh> blocks;
    std::vector<mesh::SubMesh> released;
    /// The blocks of releases [0, k), as the shape probe takes them.
    const std::vector<mesh::SubMesh>& released_by(std::size_t k);
  };

  /// A fresh walk's profile, and its release table when `use_shape`.
  void build_profile(CapacityProfile& profile, ReleaseTable& table,
                     const SchedSnapshot& snap, bool use_shape) const;
  /// Reserves positions [from, size()) on `profile` until one may start now;
  /// `record` keeps each job's first reservation instant.
  [[nodiscard]] std::optional<std::size_t> walk_conservative(
      CapacityProfile& profile, ReleaseTable& table, const AllocProbe& probe,
      const SchedSnapshot& snap, bool use_shape, std::size_t from, bool record);
  /// PROCSIM_VERIFY: re-walks a resumed select from scratch; throws
  /// std::logic_error unless it nominates `got` and ends in the same state.
  void verify_resume(const AllocProbe& probe, const SchedSnapshot& snap, bool use_shape,
                     std::optional<std::size_t> got);

  BackfillOptions opts_;

  Resume resume_;
  CapacityProfile profile_;  ///< conservative: the kept walk's profile
  /// Conservative ;shape: the kept walk's release table. Rebuilt with the
  /// profile by every fresh walk, so it is read only while resume_ is valid.
  ReleaseTable releases_;
  HeadReservation head_;     ///< EASY: the kept walk's head reservation

  /// Kept ordered by estimated finish so the reservation walks are plain
  /// in-order traversals — no per-pass copy + sort; slot_ locates a job's
  /// entry for the O(log R) on_complete erase.
  std::multiset<Running> running_;
  std::unordered_map<std::uint64_t, std::multiset<Running>::iterator> slot_;

  /// job_id -> first reserved start instant (see export_counters).
  std::unordered_map<std::uint64_t, double> first_reservation_;
  std::uint64_t reservations_honored_{0};
  std::uint64_t reservations_broken_{0};

  // EASY's head reservation scratch (cleared per pass, capacity reused).
  std::vector<mesh::SubMesh> released_scratch_;
};

}  // namespace procsim::sched
