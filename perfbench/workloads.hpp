#pragma once

// The benchmark's workloads and the replication runner they share.
//
// A workload is a fixed list of experiment cells plus a replication policy.
// One *pass* runs every cell under that policy, serially, the way
// core::run_replicated does with no thread pool: replication k of a cell is
// seeded with des::substream_seed(cell seed, k) and the cell stops when the
// stopping rule is met. The harness repeats passes for the measured time.

#include <cstdint>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "core/experiment.hpp"
#include "core/job_record_store.hpp"
#include "layers.hpp"
#include "mesh/occupancy_index.hpp"
#include "obs/recorder.hpp"
#include "stats/replication.hpp"

namespace perfbench {

/// The seed whose per-replication digests are pinned in digests.txt.
inline constexpr std::uint64_t kPinnedSeed = 1;

/// Which MetricsSink a replication streams its job records into.
enum class SinkKind {
  kJobMetrics,   ///< stats::JobMetrics, as core::run_once attaches
  kRecordStore,  ///< core::JobRecordStore, as the SWF replay attaches
};

struct WorkloadDef {
  std::string name;
  std::vector<procsim::core::ExperimentConfig> cells;
  procsim::stats::ReplicationPolicy policy;
  SinkKind sink{SinkKind::kJobMetrics};
  bool uses_swf{false};  ///< cells replay the SWF file given to make_workload
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` seeded with `seed`; `swf_path` is the trace the
/// SWF workload replays (ignored by the others). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& swf_path);

/// Decorators to run a replication through (null = a bare run).
struct Tracing {
  Tracer* tracer{nullptr};
  procsim::obs::Recorder* recorder{nullptr};  ///< attached to SystemConfig
};

/// One replication.
struct RepResult {
  procsim::core::RunMetrics metrics;
  std::uint64_t digest{0};
  double setup_s{0};         ///< allocator, scheduler, source and SystemSim built
  double source_setup_s{0};  ///< the source's share of setup_s
  double run_s{0};           ///< host time of SystemSim::run
  double run_cpu_s{0};       ///< process CPU time over the same interval
  procsim::mesh::OccupancyIndex::QueryStats index_stats;  ///< the real allocator's
};

/// Runs one replication of `cfg` exactly as core::run_once does (same
/// allocator, scheduler and source construction, same SystemSim seed, and
/// for kJobMetrics the same fairness fields), optionally through the layer
/// decorators.
[[nodiscard]] RepResult run_rep(const procsim::core::ExperimentConfig& cfg, SinkKind sink,
                                const Tracing& tracing);

/// Digest of one replication's simulated output: every to_observations()
/// value (bit pattern), completions, events, packets, and — when a record
/// store was attached — every job record.
[[nodiscard]] std::uint64_t digest_of(const procsim::core::RunMetrics& m,
                                      const procsim::core::JobRecordStore* store);

/// One pass over every cell of a workload.
struct PassResult {
  std::vector<std::uint64_t> digests;  ///< per replication, in run order
  std::vector<double> rep_s;           ///< per replication SystemSim::run host time
  /// Set-up host time of replication r of cell c: rep_setup_s[c][r].
  std::vector<std::vector<double>> rep_setup_s;
  std::uint64_t failed{0};             ///< replications that threw
  double source_setup_s{0};
  double run_s{0};
  double run_cpu_s{0};
  std::uint64_t completions{0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
  procsim::mesh::OccupancyIndex::QueryStats index_stats;  ///< summed over replications
  HostSpeed host;  ///< calibration units run between this pass's replications
};

/// With a calibrator, calibration units follow every replication (see
/// calibrate.hpp); they run outside the timed intervals.
[[nodiscard]] PassResult run_pass(const WorkloadDef& w, const Tracing& tracing,
                                  Calibrator* calibrator = nullptr);

}  // namespace perfbench
