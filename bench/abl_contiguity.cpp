// Ablation: how much is contiguity worth? GABL (contiguity-seeking
// non-contiguous) vs Random scatter (no contiguity at all) vs the contiguous
// First-Fit/Best-Fit baselines (full contiguity, external fragmentation).
// Latency rewards contiguity; turnaround punishes the contiguous baselines'
// fragmentation-induced queueing — the paper's core trade-off in one table.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::run_options_or_exit(argc, argv);

  for (const char* metric : {"turnaround", "latency"}) {
    core::FigureSpec spec;
    spec.id = std::string("abl_contiguity_") + metric;
    spec.title = std::string(metric) +
                 " vs load: GABL vs Random scatter vs contiguous FF/BF, stochastic uniform";
    spec.metric = metric;
    spec.loads = bench::loads_uniform();
    spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);

    for (const char* name : {"GABL", "Random", "FirstFit", "BestFit"}) {
      core::Series s;
      s.allocator = core::AllocatorSpec{name};
      s.scheduler = sched::Policy::kFcfs;
      spec.series.push_back(s);
    }
    core::run_figure(spec, opts, std::cout);
    std::cout << "\n";
  }
  return 0;
}
