// Ablation: Paging's size_index. Larger pages buy contiguity but create
// internal fragmentation that grows with size_index (paper §3) — visible
// here as utilization loss and rising turnaround.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace procsim;
  const core::RunOptions opts = core::run_options_or_exit(argc, argv);

  core::FigureSpec spec;
  spec.id = "abl_paging_size";
  spec.title = "Paging(k) page size k=0..3, turnaround vs load, stochastic uniform";
  spec.metric = "turnaround";
  spec.loads = bench::loads_uniform();
  spec.base = bench::stochastic_base(workload::SideDistribution::kUniform);

  for (const std::int32_t k : {0, 1, 2, 3}) {
    core::Series s;
    s.allocator = core::AllocatorSpec{"Paging(" + std::to_string(k) + ")"};
    s.scheduler = sched::Policy::kFcfs;
    spec.series.push_back(s);
  }
  core::run_figure(spec, opts, std::cout);
  return 0;
}
