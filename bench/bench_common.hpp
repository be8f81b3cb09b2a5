#pragma once

// Shared experiment templates for the per-figure bench binaries. Every main
// figure of the paper plots the six series {GABL, Paging(0), MBS} × {FCFS,
// SSD} on a 16×22 mesh with st = 3, P_len = 8, num_mes = 5 and all-to-all
// traffic; the binaries differ only in workload, metric and load axis.
//
// Common flags (parse_run_options): --fast (1 rep, 200 jobs), --jobs=N,
// --reps=N, --seed=N, --threads=N (farm the independent figure cells across
// N worker threads, 0 = all hardware threads; the CSV is byte-identical to
// --threads=1 for the same seed). An unknown flag or a malformed number
// prints one line and exits 2.

#include <iostream>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"

namespace procsim::bench {

/// Shared main() body of the per-figure binaries: parse the common flags,
/// sweep the figure, print the CSV (with 95 % CI columns) to stdout.
inline int figure_main(int argc, char** argv, core::FigureSpec spec) {
  const core::RunOptions opts = core::run_options_or_exit(argc, argv);
  core::run_figure(spec, opts, std::cout, /*with_ci=*/true);
  return 0;
}

inline core::ExperimentConfig base_config() {
  core::ExperimentConfig cfg;
  cfg.sys.geom = mesh::Geometry(16, 22);
  cfg.sys.net = network::NetworkParams{3, 8, false};
  cfg.sys.think_time = 50;  // compute phase between a processor's sends
  cfg.sys.target_completions = 1000;
  cfg.seed = 42;
  return cfg;
}

/// Stochastic workload template (paper §5, first workload).
inline core::ExperimentConfig stochastic_base(workload::SideDistribution dist) {
  core::ExperimentConfig cfg = base_config();
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = cfg.sys.target_completions;
  cfg.workload.stochastic.side_dist = dist;
  cfg.workload.stochastic.mean_messages = 5.0;
  return cfg;
}

/// Real-workload template: the synthetic SDSC Paragon stream (paper §5,
/// second workload; DESIGN.md §2.1 for the substitution).
inline core::ExperimentConfig trace_base() {
  core::ExperimentConfig cfg = base_config();
  cfg.workload.kind = core::WorkloadKind::kTrace;
  // Default replay effort keeps the whole 15-figure suite to minutes; raise
  // with --jobs=N (up to the full 10,658-job stream) for final numbers.
  cfg.sys.target_completions = 600;
  cfg.workload.replay.prefix = 1800;
  return cfg;
}

/// Saturation variant used by the utilization figures: the paper drives the
/// load "such that the waiting queue is filled very early, allowing each
/// strategy to reach its upper limits of utilization".
inline core::ExperimentConfig saturated(core::ExperimentConfig cfg) {
  cfg.workload.job_count = 3 * cfg.sys.target_completions;
  if (cfg.workload.replay.prefix)
    cfg.workload.replay.prefix = 3 * cfg.sys.target_completions;
  // Skip the cold-start fill so the time average reflects the steady state.
  cfg.sys.warmup_completions = cfg.sys.target_completions / 10;
  return cfg;
}

inline std::vector<double> loads_real_turnaround() {
  return {0.0005, 0.001, 0.002, 0.003, 0.004, 0.005};
}
inline std::vector<double> loads_real() {
  return {0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02};
}
inline std::vector<double> loads_uniform() {
  return {0.005, 0.01, 0.015, 0.02, 0.025, 0.03};
}
inline std::vector<double> loads_exponential() {
  return {0.005, 0.01, 0.02, 0.03, 0.04, 0.05};
}

}  // namespace procsim::bench
