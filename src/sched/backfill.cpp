#include "sched/backfill.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/verify.hpp"

namespace procsim::sched {

std::optional<std::size_t> BackfillScheduler::select(const AllocProbe& probe,
                                                     const SchedSnapshot& snap) {
  const bool use_shape = opts_.shape_aware && snap.shape_fit != nullptr;
  // Same instant, same free count, same probe model, and nothing but tail
  // arrivals since the last walk ended empty-handed (every other change
  // cleared `valid`): the walked prefix would replay exactly, so skip it.
  const std::size_t from = resume_.valid && resume_.now == snap.now &&
                                   resume_.free_processors == snap.free_processors &&
                                   resume_.use_shape == use_shape
                               ? resume_.walked
                               : 0;
  resume_.valid = false;
  const std::optional<std::size_t> pos =
      opts_.conservative ? select_conservative(probe, snap, use_shape, from)
                         : select_easy(probe, snap, use_shape, from);
  if (from > 0 && util::verify_enabled()) verify_resume(probe, snap, use_shape, pos);
  if (!pos) resume_ = Resume{true, snap.now, snap.free_processors, use_shape, size()};
  return pos;
}

std::optional<std::size_t> BackfillScheduler::select_easy(const AllocProbe& probe,
                                                          const SchedSnapshot& snap,
                                                          bool use_shape,
                                                          std::size_t from) {
  if (from == 0) {
    if (empty()) return std::nullopt;
    const QueuedJob head = job_at(0);
    if (probe(head)) return 0;
    head_ = easy_reservation(head, snap, use_shape);
    // When even draining every running job cannot seat the head, there is
    // no reservation to protect — plain first-fit backfill applies.
    if (head_.reachable) first_reservation_.try_emplace(head.job_id, head_.shadow);
    from = 1;
  }
  return easy_backfill(probe, snap, head_, from);
}

BackfillScheduler::HeadReservation BackfillScheduler::easy_reservation(
    const QueuedJob& head, const SchedSnapshot& snap, bool use_shape) {
  // The head is blocked: place its reservation. Walk the running jobs in
  // estimated-finish order accumulating released processors until the head's
  // request is covered — and, shape-aware, until its sub-mesh actually fits
  // the projected occupancy; that instant is the shadow time, and whatever
  // exceeds the head's need there is the backfill slack ("extra"
  // processors).
  HeadReservation res{snap.now, 0, false};
  std::int64_t avail = snap.free_processors;
  const std::int64_t head_need = head.processors;
  released_scratch_.clear();
  // Right now the probe already failed, so shape-aware the head does not
  // fit; count-based it may (fragmentation), in which case the shadow stays
  // at `now` exactly as before.
  res.reachable = !use_shape && avail >= head_need;
  if (!res.reachable) {
    for (const Running& r : running_) {  // ordered by (finish_estimate, id)
      avail += r.allocated;
      res.shadow = r.finish_estimate;
      if (use_shape) {
        released_scratch_.insert(released_scratch_.end(), r.blocks.begin(),
                                 r.blocks.end());
        if (avail >= head_need && (*snap.shape_fit)(head, released_scratch_)) {
          res.reachable = true;
          break;
        }
      } else if (avail >= head_need) {
        res.reachable = true;
        break;
      }
    }
  }
  res.extra = res.reachable ? avail - head_need : std::numeric_limits<std::int64_t>::max();
  return res;
}

std::optional<std::size_t> BackfillScheduler::easy_backfill(const AllocProbe& probe,
                                                            const SchedSnapshot& snap,
                                                            const HeadReservation& res,
                                                            std::size_t from) const {
  for (std::size_t i = from; i < size(); ++i) {
    const QueuedJob c = job_at(i);
    // Cheap O(1) reservation conditions first; the occupancy-index probe
    // only runs for candidates that could not delay the head anyway:
    // either done (by estimate) before the shadow time, or within the
    // processors left over there after the head is seated.
    if (res.reachable && snap.now + c.demand > res.shadow && c.processors > res.extra)
      continue;
    if (probe(c)) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> BackfillScheduler::select_conservative(
    const AllocProbe& probe, const SchedSnapshot& snap, bool use_shape,
    std::size_t from) {
  if (from == 0) {
    if (empty()) return std::nullopt;
    // Fast path shared with every discipline: a fitting head starts.
    if (probe(job_at(0))) return 0;
    build_profile(profile_, releases_, snap, use_shape);
  }
  return walk_conservative(profile_, releases_, probe, snap, use_shape, from,
                           /*record=*/true);
}

const std::vector<mesh::SubMesh>& BackfillScheduler::ReleaseTable::released_by(
    std::size_t k) {
  const std::size_t n = k == 0 ? 0 : end[k - 1];
  if (n < released.size())
    released.erase(released.begin() + static_cast<std::ptrdiff_t>(n), released.end());
  else
    released.insert(released.end(),
                    blocks.begin() + static_cast<std::ptrdiff_t>(released.size()),
                    blocks.begin() + static_cast<std::ptrdiff_t>(n));
  return released;
}

void BackfillScheduler::build_profile(CapacityProfile& profile, ReleaseTable& table,
                                      const SchedSnapshot& snap, bool use_shape) const {
  // Overdue estimates (still running past start + demand) release "any
  // moment now".
  profile.reset(snap.now, snap.free_processors);
  table.at.clear();
  table.end.clear();
  table.blocks.clear();
  table.released.clear();
  for (const Running& r : running_) {
    const double at = std::max(r.finish_estimate, snap.now);
    profile.add_release(at, r.allocated);
    if (!use_shape) continue;
    table.at.push_back(at);
    table.blocks.insert(table.blocks.end(), r.blocks.begin(), r.blocks.end());
    table.end.push_back(table.blocks.size());
  }
}

std::optional<std::size_t> BackfillScheduler::walk_conservative(
    CapacityProfile& profile, ReleaseTable& table, const AllocProbe& probe,
    const SchedSnapshot& snap, bool use_shape, std::size_t from, bool record) {
  // Walk the queue in FCFS order, reserving every job's earliest feasible
  // slot. A job whose slot is *now* (and whose real allocation the probe
  // approves) is nominated; anything later holds its reservation so no
  // later candidate can take capacity from under it.
  const std::size_t n = size();
  for (std::size_t i = from; i < n; ++i) {
    const QueuedJob c = job_at(i);
    double t = profile.earliest_fit(snap.now, c.processors, c.demand);
    if (t <= snap.now && probe(c)) return i;
    if (use_shape) {
      // The job cannot start now, so its reservation must sit at a
      // *shape-feasible* instant — including when the count model says it
      // fits right now but no rectangle exists (the contiguous baselines'
      // fragmentation case, exactly what ;shape is for). Advance through
      // the running releases until the job's sub-mesh fits the blocks
      // released by then. Reservations of queued jobs are invisible to the
      // bitmap (their placements are unknown), so this refinement is exact
      // against the running set and count-based against the queue. `k`
      // counts the releases at or before t; past the last one every running
      // block is back and the count slot stands without a probe.
      const auto released_at = [&](std::size_t from_k) {
        return static_cast<std::size_t>(
            std::upper_bound(table.at.begin() + static_cast<std::ptrdiff_t>(from_k),
                             table.at.end(), t) -
            table.at.begin());
      };
      std::size_t k = released_at(0);
      while (k < table.at.size() && !(*snap.shape_fit)(c, table.released_by(k))) {
        t = profile.earliest_fit(std::max(t, table.at[k]), c.processors, c.demand);
        k = released_at(k);
      }
    }
    // try_emplace: a job already holding a first reservation costs no node.
    if (record && t > snap.now) first_reservation_.try_emplace(c.job_id, t);
    profile.reserve(t, c.demand, c.processors);
  }
  return std::nullopt;
}

void BackfillScheduler::verify_resume(const AllocProbe& probe, const SchedSnapshot& snap,
                                      bool use_shape, std::optional<std::size_t> got) {
  // The oracle: the same select from scratch on scratch state, recording no
  // reservation. A resume is exact only if it nominates the same position
  // and leaves the same reservation state behind.
  std::optional<std::size_t> want;
  bool same_state = true;
  const QueuedJob head = job_at(0);  // a resume implies a non-empty walked prefix
  if (probe(head)) {
    want = 0;
  } else if (opts_.conservative) {
    CapacityProfile fresh;
    ReleaseTable fresh_releases;
    build_profile(fresh, fresh_releases, snap, use_shape);
    want = walk_conservative(fresh, fresh_releases, probe, snap, use_shape, 0,
                             /*record=*/false);
    same_state = fresh.steps() == profile_.steps();
  } else {
    const HeadReservation fresh = easy_reservation(head, snap, use_shape);
    want = easy_backfill(probe, snap, fresh, 1);
    same_state = fresh == head_;
  }
  if (want != got || !same_state)
    throw std::logic_error("BackfillScheduler: resumed walk of " + name() + " at t=" +
                           std::to_string(snap.now) + " diverges from a fresh walk");
}

void BackfillScheduler::enqueue(const QueuedJob& job) {
  // FifoBase inserts after every entry with seq <= job.seq: only a job that
  // lands behind all of them leaves the walked prefix in place.
  if (!queue().empty() && queue().back().seq > job.seq) resume_.valid = false;
  FifoBase::enqueue(job);
}

QueuedJob BackfillScheduler::take(std::size_t pos) {
  resume_.valid = false;
  return FifoBase::take(pos);
}

void BackfillScheduler::on_start(const QueuedJob& job, double now,
                                 std::int64_t allocated,
                                 const std::vector<mesh::SubMesh>& blocks) {
  if (slot_.contains(job.job_id))
    throw std::logic_error("BackfillScheduler::on_start: job " +
                           std::to_string(job.job_id) + " is already running");
  resume_.valid = false;
  const auto res = first_reservation_.find(job.job_id);
  if (res != first_reservation_.end()) {
    // The promise was an *estimate*-based instant; a hair of float slack
    // keeps an exactly-on-time start from counting as broken.
    if (now <= res->second + 1e-9)
      ++reservations_honored_;
    else
      ++reservations_broken_;
    first_reservation_.erase(res);
  }
  const auto it =
      running_.insert(Running{now + job.demand, job.job_id, allocated, blocks});
  slot_.emplace(job.job_id, it);
}

void BackfillScheduler::on_complete(std::uint64_t job_id, double) {
  const auto it = slot_.find(job_id);
  if (it == slot_.end())
    throw std::logic_error("BackfillScheduler::on_complete: job " +
                           std::to_string(job_id) + " is not running");
  resume_.valid = false;
  running_.erase(it->second);
  slot_.erase(it);
}

std::string BackfillScheduler::name() const {
  std::string n = "backfill";
  if (opts_.conservative) n += ":conservative";
  if (opts_.shape_aware) n += ";shape";
  return n;
}

void BackfillScheduler::export_counters(
    std::vector<std::pair<std::string, std::uint64_t>>& out) const {
  out.emplace_back("backfill_reservations_honored", reservations_honored_);
  out.emplace_back("backfill_reservations_broken", reservations_broken_);
}

void BackfillScheduler::clear() {
  FifoBase::clear();
  resume_ = Resume{};
  running_.clear();
  slot_.clear();
  first_reservation_.clear();
  reservations_honored_ = 0;
  reservations_broken_ = 0;
}

}  // namespace procsim::sched
