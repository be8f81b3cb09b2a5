// perfbench_selftest: the layer decorators are observation-only.
//
//  * For every allocator under FCFS and backfill:conservative;shape, a run
//    through all four decorators gives RunMetrics bit-identical to a bare
//    core::run_once, and so do both paths of perfbench::run_rep.
//  * The allocator decorator's mirrored occupancy (free_processors(),
//    state(), index()) equals the wrapped allocator's after every call.
//  * run_pass applies the stopping rule exactly as core::run_replicated, and
//    interleaving calibration units changes none of its digests.
//  * Tracer self times nest: a parent's self time excludes its children.
//
// Exits 0 when every check passes; prints each failure.

#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc/registry.hpp"
#include "core/experiment.hpp"
#include "core/system_sim.hpp"
#include "layers.hpp"
#include "sched/registry.hpp"
#include "stats/job_metrics.hpp"
#include "workloads.hpp"

namespace {

namespace pc = procsim::core;
using perfbench::Op;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cout << "FAIL: " << what << "\n";
}

void push_welford(std::vector<std::uint64_t>& out, const procsim::stats::Welford& w) {
  out.push_back(w.count());
  out.push_back(std::bit_cast<std::uint64_t>(w.mean()));
  out.push_back(std::bit_cast<std::uint64_t>(w.variance()));
  out.push_back(std::bit_cast<std::uint64_t>(w.min()));
  out.push_back(std::bit_cast<std::uint64_t>(w.max()));
}

void push_summary(std::vector<std::uint64_t>& out, const procsim::stats::QuantileSummary& q) {
  for (const double v : {q.p50, q.p95, q.p99, q.max, q.mean})
    out.push_back(std::bit_cast<std::uint64_t>(v));
  out.push_back(q.count);
}

/// Every RunMetrics field a single-mesh run fills, as bit patterns.
std::vector<std::uint64_t> bits(const pc::RunMetrics& m) {
  std::vector<std::uint64_t> out;
  for (const auto* w : {&m.turnaround, &m.service, &m.packet_latency, &m.packet_blocking,
                        &m.packet_hops})
    push_welford(out, *w);
  for (const double v : {m.utilization, m.mean_queue_length, m.makespan, m.jobs.starved})
    out.push_back(std::bit_cast<std::uint64_t>(v));
  out.push_back(m.completed);
  out.push_back(m.events);
  out.push_back(m.packets);
  push_summary(out, m.jobs.wait);
  push_summary(out, m.jobs.turnaround);
  push_summary(out, m.jobs.slowdown);
  return out;
}

/// Allocator decorator that compares its mirrored occupancy with the
/// wrapped allocator's after every call.
class CheckedAllocator final : public perfbench::TimedAllocator {
 public:
  using TimedAllocator::TimedAllocator;

  std::optional<procsim::alloc::Placement> allocate(
      const procsim::alloc::Request& req) override {
    auto p = TimedAllocator::allocate(req);
    verify();
    return p;
  }
  bool can_allocate(const procsim::alloc::Request& req) const override {
    const bool ok = TimedAllocator::can_allocate(req);
    verify();
    return ok;
  }
  bool can_allocate_with_free(
      const procsim::alloc::Request& req,
      const std::vector<procsim::mesh::SubMesh>& released) const override {
    const bool ok = TimedAllocator::can_allocate_with_free(req, released);
    verify();
    return ok;
  }
  void release(const procsim::alloc::Placement& placement) override {
    TimedAllocator::release(placement);
    verify();
  }
  void reset() override {
    TimedAllocator::reset();
    verify();
  }

  mutable std::uint64_t checks{0};
  mutable std::uint64_t mismatches{0};

 private:
  void verify() const {
    ++checks;
    const procsim::alloc::Allocator& in = inner();
    bool same = free_processors() == in.free_processors() &&
                state().free_count() == in.state().free_count() &&
                index().free_count() == in.index().free_count();
    const procsim::mesh::Geometry& g = geometry();
    for (std::int32_t n = 0; same && n < g.nodes(); ++n)
      same = state().is_busy(n) == in.state().is_busy(n) &&
             index().is_busy(g.coord(n)) == in.index().is_busy(g.coord(n));
    if (!same) ++mismatches;
  }
};

/// A run through all four decorators, the mirror checked after every call.
pc::RunMetrics decorated_run(const pc::ExperimentConfig& cfg, std::uint64_t& checks,
                             std::uint64_t& mismatches) {
  perfbench::Tracer tracer(0);
  const auto allocator = pc::make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
  const auto scheduler = pc::make_scheduler(cfg.scheduler);
  const auto source =
      pc::make_workload_source(cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len);
  source->reset(cfg.seed);
  procsim::stats::JobMetrics job_metrics;
  CheckedAllocator a(*allocator, tracer);
  perfbench::TimedScheduler s(*scheduler, tracer);
  perfbench::TimedSource src(*source, tracer);
  perfbench::TimedSink sink(job_metrics, tracer);
  pc::SystemConfig sys = cfg.sys;
  sys.seed = cfg.seed ^ 0x5EEDF00DULL;
  pc::SystemSim sim(sys, a, s);
  sim.set_metrics_sink(&sink);
  pc::RunMetrics m = sim.run(src);
  m.jobs.wait = job_metrics.wait();
  m.jobs.turnaround = job_metrics.turnaround();
  m.jobs.slowdown = job_metrics.bounded_slowdown();
  m.jobs.starved = static_cast<double>(job_metrics.starvation().count());
  checks = a.checks;
  mismatches = a.mismatches;
  return m;
}

std::vector<pc::ExperimentConfig> transparency_configs() {
  std::vector<pc::ExperimentConfig> out;
  const auto backfill = procsim::sched::parse_sched_spec("backfill:conservative;shape");
  for (const std::string& alloc : procsim::alloc::known_allocators()) {
    for (const procsim::sched::SchedSpec& sched :
         {procsim::sched::SchedSpec(procsim::sched::Policy::kFcfs), *backfill}) {
      // An open stream at a high load and a saturated backlog, so the
      // backfill probes see both light and deep queues.
      pc::ExperimentConfig open;
      open.sys.geom = procsim::mesh::Geometry(16, 16);
      open.sys.target_completions = 150;
      open.workload.job_count = 150;
      open.workload.stochastic.load = 0.03;
      open.allocator = pc::AllocatorSpec(alloc);
      open.scheduler = sched;
      open.seed = 11;
      out.push_back(open);

      pc::ExperimentConfig sat = open;
      sat.workload.source_spec = "saturation";
      sat.workload.job_count = 200;
      sat.sys.target_completions = 100;
      sat.sys.warmup_completions = 10;
      out.push_back(sat);
    }
  }
  return out;
}

void test_transparency() {
  for (const pc::ExperimentConfig& cfg : transparency_configs()) {
    const std::string label = cfg.series_label() + " / " +
                              (cfg.workload.source_spec.empty() ? "uniform" : "saturation");
    const auto bare = bits(pc::run_once(cfg));

    std::uint64_t checks = 0;
    std::uint64_t mismatches = 0;
    expect(bits(decorated_run(cfg, checks, mismatches)) == bare,
           label + ": decorated RunMetrics differ from run_once");
    expect(checks > 0 && mismatches == 0,
           label + ": mirrored occupancy diverged in " + std::to_string(mismatches) + " of " +
               std::to_string(checks) + " calls");

    const perfbench::RepResult plain =
        perfbench::run_rep(cfg, perfbench::SinkKind::kJobMetrics, {});
    expect(bits(plain.metrics) == bare, label + ": run_rep differs from run_once");

    perfbench::Tracer tracer(1024);
    procsim::obs::Recorder recorder;
    const perfbench::RepResult traced =
        perfbench::run_rep(cfg, perfbench::SinkKind::kJobMetrics, {&tracer, &recorder});
    expect(bits(traced.metrics) == bare, label + ": traced run_rep differs from run_once");
    expect(traced.digest == plain.digest, label + ": traced digest differs");
    expect(tracer.calls(Op::kAllocate) > 0 && tracer.calls(Op::kOnJob) > 0,
           label + ": decorators saw no calls");
  }
}

void test_stopping_rule() {
  procsim::stats::ReplicationPolicy policy;
  policy.min_replications = 2;
  policy.max_replications = 6;
  policy.max_relative_error = 0.02;
  perfbench::WorkloadDef w;
  w.policy = policy;
  w.policy.precision_metrics = pc::precision_observation_names();
  pc::ExperimentConfig cfg;
  cfg.sys.geom = procsim::mesh::Geometry(16, 22);
  cfg.sys.target_completions = 120;
  cfg.workload.job_count = 120;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = 5;
  w.cells.push_back(cfg);
  const perfbench::PassResult pass = perfbench::run_pass(w, {});
  const pc::AggregateResult agg = pc::run_replicated(cfg, policy);
  expect(pass.digests.size() == agg.replications,
         "run_pass ran " + std::to_string(pass.digests.size()) +
             " replications, run_replicated " + std::to_string(agg.replications));

  perfbench::Calibrator calibrator;
  const perfbench::PassResult calibrated = perfbench::run_pass(w, {}, &calibrator);
  expect(calibrated.digests == pass.digests, "calibration units changed a pass's digests");
  expect(calibrated.host.units >= perfbench::kMinUnitsPerPass && calibrated.host.wall_s > 0,
         "a calibrated pass ran " + std::to_string(calibrated.host.units) + " units");
  expect(perfbench::calibration_unit() == perfbench::calibration_unit(),
         "the calibration unit is not deterministic");
}

void test_tracer_nesting() {
  perfbench::Tracer t(8);
  volatile double sink = 0;
  const auto spin = [&sink] {
    for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
  };
  {
    const perfbench::Tracer::Scope outer(t, Op::kSelect);
    spin();
    {
      const perfbench::Tracer::Scope inner(t, Op::kProbe);
      spin();
    }
    spin();
  }
  const auto& spans = t.spans();
  expect(spans.size() == 2, "tracer kept " + std::to_string(spans.size()) + " spans, not 2");
  if (spans.size() != 2) return;
  expect(spans[1].parent == 0 && spans[0].parent == -1, "probe span is not the select's child");
  const double outer_s = static_cast<double>(spans[0].end_ns - spans[0].start_ns) * 1e-9;
  const double inner_s = static_cast<double>(spans[1].end_ns - spans[1].start_ns) * 1e-9;
  const double sched = t.self_s(perfbench::Layer::kSched);
  const double alloc = t.self_s(perfbench::Layer::kAlloc);
  expect(sched > 0 && alloc > 0, "self times must be positive");
  expect(std::abs(alloc - inner_s) < 1e-12, "child self time is its whole duration");
  expect(std::abs(sched + alloc - outer_s) < 1e-12, "self times must sum to the root span");
}

}  // namespace

int main() {
  test_tracer_nesting();
  test_stopping_rule();
  test_transparency();
  if (g_failures != 0) {
    std::cout << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_selftest: all checks passed\n";
  return 0;
}
