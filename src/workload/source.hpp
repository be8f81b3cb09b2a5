#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "des/rng.hpp"
#include "mesh/coord.hpp"
#include "network/traffic.hpp"
#include "workload/job.hpp"
#include "workload/paragon_model.hpp"
#include "workload/stochastic.hpp"
#include "workload/swf.hpp"
#include "workload/trace_replay.hpp"

namespace procsim::workload {

/// Pull-based job stream: the layer between the workload models and the DES
/// engine. The simulator asks for the next arrival instant, schedules it,
/// and materialises the job only when that instant fires — so a stream (an
/// SWF trace, an unbounded synthetic model) never has to exist as one eager
/// std::vector<Job>.
///
/// Contract:
///   * `reset(seed)` restarts the stream for one replication. Replication k
///     of an experiment passes `des::substream_seed(base, k)` (the same
///     derivation `run_replicated` uses), so serial and threaded replications
///     see bit-identical streams.
///   * `peek_arrival()` is the arrival time of the job `next_job()` will
///     return, without consuming it; nullopt once the stream is exhausted.
///     SystemSim and ClusterSim throw std::logic_error when that job is
///     missing or arrives at another time.
///   * Arrivals are non-decreasing. Job ids are unique within a stream.
///   * All randomness derives from the reset seed: two resets with the same
///     seed replay the identical stream.
class Source {
 public:
  virtual ~Source() = default;

  /// Canonical spec of this source — a string `make_source` accepts.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// False when the stream never exhausts on its own (an unbounded synthetic
  /// model): such a stream can be simulated (the completion target stops it)
  /// but never materialised into a vector.
  [[nodiscard]] virtual bool bounded() const noexcept { return true; }

  virtual void reset(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::optional<double> peek_arrival() = 0;
  [[nodiscard]] virtual std::optional<Job> next_job() = 0;
};

/// Implements peek via a one-job lookahead buffer over a `generate()` hook.
/// Generation order is strictly job-sequential (job i is fully sampled before
/// job i+1), so a buffered stream draws the exact RNG sequence the eager
/// vector builders drew — the property that keeps fixed-seed figure CSVs
/// byte-identical across the streaming rewire.
class BufferedSource : public Source {
 public:
  void reset(std::uint64_t seed) final {
    do_reset(seed);
    pending_ = generate();
  }
  [[nodiscard]] std::optional<double> peek_arrival() final {
    if (!pending_) return std::nullopt;
    return pending_->arrival;
  }
  [[nodiscard]] std::optional<Job> next_job() final {
    if (!pending_) return std::nullopt;
    std::optional<Job> out = std::move(pending_);
    pending_ = generate();
    return out;
  }

 protected:
  virtual void do_reset(std::uint64_t seed) = 0;
  /// Next job of the stream, nullopt when exhausted.
  [[nodiscard]] virtual std::optional<Job> generate() = 0;

 private:
  std::optional<Job> pending_;
};

/// Streams an existing job vector (tests, SystemSim's vector-run wrapper).
/// `reset` rewinds; the seed is ignored — the jobs are already frozen.
class VectorSource final : public BufferedSource {
 public:
  explicit VectorSource(const std::vector<Job>& jobs) : jobs_(&jobs) {
    reset(0);
  }
  [[nodiscard]] const std::string& name() const noexcept override { return name_; }

 protected:
  void do_reset(std::uint64_t) override { next_ = 0; }
  [[nodiscard]] std::optional<Job> generate() override {
    if (next_ >= jobs_->size()) return std::nullopt;
    return (*jobs_)[next_++];
  }

 private:
  const std::vector<Job>* jobs_;
  std::size_t next_{0};
  std::string name_{"vector"};
};

/// The paper's stochastic streams (uniform / exponential side distributions)
/// as a source. Emits exactly `count` jobs (0 = unbounded); draws the same
/// substream sequence as the eager `generate_stochastic`.
class StochasticSource final : public BufferedSource {
 public:
  StochasticSource(StochasticParams params, mesh::Geometry geom,
                   std::size_t count, std::string name);
  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] bool bounded() const noexcept override { return count_ != 0; }

 protected:
  void do_reset(std::uint64_t seed) override;
  [[nodiscard]] std::optional<Job> generate() override;

 private:
  StochasticParams params_;
  mesh::Geometry geom_;
  std::size_t count_;
  std::string name_;
  des::Xoshiro256SS rng_{1};
  double t_{0};
  std::uint64_t next_id_{0};
};

/// Trace replay as a source: either a fixed record vector (an SWF file,
/// parsed once — optionally shared immutably across every replication and
/// sweep cell via workload::load_swf_file_shared) or the synthetic Paragon
/// model (regenerated from each reset seed, as the eager path did). When
/// `load > 0`, the arrival factor is derived from the trace's mean
/// inter-arrival per `arrival_factor_for_load`; otherwise
/// `replay.arrival_factor` applies as given.
class TraceSource final : public BufferedSource {
 public:
  /// Shares an already-parsed immutable trace (must be non-null).
  TraceSource(std::shared_ptr<const std::vector<TraceJob>> trace,
              TraceReplayParams replay, double load, mesh::Geometry geom,
              std::string name);
  TraceSource(std::vector<TraceJob> trace, TraceReplayParams replay, double load,
              mesh::Geometry geom, std::string name);
  TraceSource(ParagonModelParams model, TraceReplayParams replay, double load,
              mesh::Geometry geom, std::string name);
  [[nodiscard]] const std::string& name() const noexcept override { return name_; }

  /// Stats of the current trace (valid after reset; fixed-trace sources are
  /// valid from construction).
  [[nodiscard]] const TraceStats& stats() const noexcept { return stats_; }

 protected:
  void do_reset(std::uint64_t seed) override;
  [[nodiscard]] std::optional<Job> generate() override;

 private:
  /// Fixed traces alias the shared parse; the Paragon model re-points this
  /// at a freshly generated vector per reset. Never null after construction
  /// (model sources hold an empty trace until the first reset).
  std::shared_ptr<const std::vector<TraceJob>> trace_;
  std::optional<ParagonModelParams> model_;
  TraceReplayParams replay_;       ///< template; arrival factor set per reset
  TraceReplayParams active_;       ///< the replication's effective params
  double load_;
  mesh::Geometry geom_;
  std::string name_;
  TraceStats stats_;
  des::Xoshiro256SS rng_{1};
  std::size_t next_{0};
  std::size_t limit_{0};
};

/// Saturation stream: `count` jobs all arriving at time zero — the paper's
/// utilization-figure setup, where "the waiting queue is filled very early,
/// allowing each strategy to reach its upper limits of utilization". Job
/// shapes and message plans follow the stochastic model; only the arrival
/// process degenerates to a fully backlogged queue.
struct SaturationParams {
  std::size_t count{5000};
  SideDistribution side_dist{SideDistribution::kUniform};
  double mean_messages{5.0};
  std::int32_t packet_len{8};
  network::TrafficPattern pattern{network::TrafficPattern::kAllToAll};
};

class SaturationSource final : public BufferedSource {
 public:
  SaturationSource(SaturationParams params, mesh::Geometry geom, std::string name);
  [[nodiscard]] const std::string& name() const noexcept override { return name_; }

 protected:
  void do_reset(std::uint64_t seed) override;
  [[nodiscard]] std::optional<Job> generate() override;

 private:
  SaturationParams params_;
  mesh::Geometry geom_;
  std::string name_;
  des::Xoshiro256SS rng_{1};
  std::uint64_t next_id_{0};
};

/// Bursty (two-state MMPP) stream — a synthetic model beyond the paper.
/// Arrivals are Poisson with a rate that alternates between a high and a low
/// phase (geometric phase lengths with mean `phase_jobs` jobs). Rates are
/// chosen so the long-run arrival rate equals `load` for any `burst_ratio`:
/// the time-average of alternating equal-job-count phases is the harmonic
/// mean of the two rates, so r_low = load·(b+1)/(2b), r_high = b·r_low.
struct BurstyParams {
  double load{0.01};       ///< long-run jobs per time unit
  double burst_ratio{8};   ///< high-phase rate / low-phase rate (>= 1)
  double phase_jobs{32};   ///< mean jobs per phase before switching
  std::size_t count{1000};
  SideDistribution side_dist{SideDistribution::kUniform};
  double mean_messages{5.0};
  std::int32_t packet_len{8};
  network::TrafficPattern pattern{network::TrafficPattern::kAllToAll};
};

class BurstySource final : public BufferedSource {
 public:
  BurstySource(BurstyParams params, mesh::Geometry geom, std::string name);
  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] bool bounded() const noexcept override { return params_.count != 0; }

 protected:
  void do_reset(std::uint64_t seed) override;
  [[nodiscard]] std::optional<Job> generate() override;

 private:
  BurstyParams params_;
  mesh::Geometry geom_;
  std::string name_;
  des::Xoshiro256SS rng_{1};
  double t_{0};
  bool high_{true};
  std::uint64_t next_id_{0};
};

}  // namespace procsim::workload
