// strategy_comparison: every allocation strategy in the library — the
// paper's three non-contiguous strategies, the two contiguous baselines and
// the Random scatter lower bound — under FCFS and SSD on the same stochastic
// workload. The mean-hops column makes the contiguity story visible: GABL
// keeps messages short, Random maximally disperses them, and the contiguous
// baselines pay instead with queueing (turnaround) through external
// fragmentation.
//
//   ./strategy_comparison [--jobs=N] [--seed=N] [--workload=SPEC] [--sched=LIST]
//
// --workload takes any workload::make_source spec (the same grammar as
// `procsim_sweep --workload=`): e.g. "bursty;b=8", "saturation;n=2000",
// "swf:trace.swf" — the whole table then compares the strategies under that
// stream instead of the default uniform stochastic one. --sched takes a
// comma list of scheduler registry specs (default FCFS,SSD; also SJF, LJF,
// lookahead:k, backfill[:conservative][;shape]), one table block per policy.
//
// The wait_p95 / sd_p99 / starved columns are the fairness view: mean
// turnaround hides exactly the per-job tail that lookahead/backfill policies
// trade away, so the overtaking disciplines are judged here by their P95
// wait, P99 bounded slowdown, and how many jobs waited more than 4x the
// median.

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_spec.hpp"
#include "core/figure_runner.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  std::string workload_spec;
  std::string sched_arg = "FCFS,SSD";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workload=", 11) == 0)
      workload_spec = argv[i] + 11;
    else if (std::strncmp(argv[i], "--sched=", 8) == 0)
      sched_arg = argv[i] + 8;
    else
      passthrough.push_back(argv[i]);
  }
  const core::RunOptions opts = core::run_options_or_exit(
      static_cast<int>(passthrough.size()), passthrough.data());
  // Every rejection below is one stderr line and exit 2, before any run.
  const auto reject = [&](const std::string& what) {
    std::fprintf(stderr, "%s: %s\n", argv[0], what.c_str());
    return 2;
  };
  std::vector<std::string> sched_names;
  {
    std::istringstream in(sched_arg);
    std::string token;
    while (std::getline(in, token, ','))
      if (!token.empty()) sched_names.push_back(token);
  }
  if (sched_names.empty()) return reject("--sched needs at least one policy");

  core::ExperimentConfig cfg;
  cfg.sys.geom = mesh::Geometry(16, 22);
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = opts.jobs ? opts.jobs : 1000;
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = cfg.sys.target_completions;
  cfg.workload.stochastic.load = 0.02;
  cfg.workload.load = 0.02;
  cfg.seed = opts.seed;
  if (!workload_spec.empty()) {
    // Through the shared fail-fast entry point (unknown kinds list the known
    // ones); this program's job cap survives a registry spec.
    const std::size_t cap = cfg.workload.job_count;
    core::ExperimentSpecStrings axes;
    axes.workload = workload_spec;
    try {
      core::apply_experiment_spec(axes, cfg);
    } catch (const std::exception& e) {
      return reject(e.what());
    }
    if (cfg.workload.job_count == 0) cfg.workload.job_count = cap;
  }

  // Every strategy the registry knows, by name — the same names
  // `procsim_sweep --alloc=...` accepts.
  const char* names[] = {"GABL", "Paging(0)", "MBS", "Random", "FirstFit", "BestFit"};

  const auto apply = [](const char* alloc, const std::string& sched,
                        core::ExperimentConfig& c) {
    core::ExperimentSpecStrings axes;
    axes.alloc = alloc;
    axes.sched = sched;
    core::apply_experiment_spec(axes, c);
  };
  // Check every (policy, strategy) pair on a scratch config, so a bad name
  // late in --sched fails before the first table row is printed.
  for (const std::string& sched_name : sched_names) {
    for (const char* name : names) {
      core::ExperimentConfig probe = cfg;
      try {
        apply(name, sched_name, probe);
      } catch (const std::exception& e) {
        return reject(e.what());
      }
    }
  }

  std::printf("%s workload, 16x22 mesh, all-to-all\n\n",
              workload_spec.empty() ? "stochastic uniform (load 0.02)"
                                    : workload_spec.c_str());
  std::printf("%-16s %12s %12s %8s %8s %10s %10s %10s %8s %8s\n", "strategy",
              "turnaround", "service", "util", "hops", "latency", "blocking",
              "wait_p95", "sd_p99", "starved");
  for (const std::string& sched_name : sched_names) {
    for (const char* name : names) {
      apply(name, sched_name, cfg);
      const core::RunMetrics m = core::run_once(cfg);
      std::printf("%-16s %12.1f %12.1f %8.3f %8.2f %10.2f %10.2f %10.1f %8.2f %8.0f\n",
                  cfg.series_label().c_str(), m.turnaround.mean(), m.service.mean(),
                  m.utilization, m.packet_hops.mean(), m.packet_latency.mean(),
                  m.packet_blocking.mean(), m.jobs.wait.p95, m.jobs.slowdown.p99,
                  m.jobs.starved);
    }
    std::printf("\n");
  }
  return 0;
}
