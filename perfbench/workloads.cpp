#include "workloads.hpp"

#include <bit>
#include <chrono>
#include <ctime>
#include <exception>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "bench_common.hpp"
#include "core/figure_runner.hpp"
#include "core/system_sim.hpp"
#include "des/rng.hpp"
#include "sched/registry.hpp"
#include "stats/job_metrics.hpp"
#include "workload/swf.hpp"

namespace perfbench {

namespace pc = procsim::core;

namespace {

// Workload sizes. One pass takes one to three seconds on a shared 4-core
// x86 host, so a run holds several passes, and every pass holds more than
// ten replications (rep_ms_tail is taken within a pass).
constexpr std::size_t kFig02Jobs = 100;      // fig02 --jobs (real / Paragon)
constexpr std::size_t kFig03Jobs = 400;      // fig03 --jobs (uniform)
constexpr std::size_t kChurnJobs = 200;      // procsim_sweep --jobs at 128x128
constexpr std::size_t kBackfillTarget = 60;  // completions of one saturated rep
constexpr std::uint64_t kBackfillReps = 80;
constexpr std::uint64_t kSwfReps = 12;
constexpr double kSwfLoad = 0.02;            // the nightly replay's offered load

/// The figure binaries' effort knobs: `--jobs=N`, stopping rule with
/// 2..3 replications per cell (RunOptions defaults).
void apply_jobs(pc::ExperimentConfig& cfg, std::size_t jobs) {
  pc::RunOptions opts;
  opts.jobs = jobs;
  pc::apply_effort(cfg, opts);
}

procsim::stats::ReplicationPolicy figure_policy() {
  const pc::RunOptions opts;
  procsim::stats::ReplicationPolicy p;
  p.min_replications = opts.min_reps;
  p.max_replications = opts.max_reps;
  return p;
}

procsim::stats::ReplicationPolicy fixed_policy(std::uint64_t reps) {
  procsim::stats::ReplicationPolicy p;
  p.min_replications = reps;
  p.max_replications = reps;
  return p;
}

/// One figure's grid, cell by cell in run_figure's order (row = load,
/// column = series).
void add_figure_cells(std::vector<pc::ExperimentConfig>& out, pc::ExperimentConfig base,
                      const std::vector<double>& loads, std::size_t jobs) {
  for (const double load : loads) {
    for (const pc::Series& s : pc::paper_series()) {
      pc::ExperimentConfig cfg = base;
      cfg.allocator = s.allocator;
      cfg.scheduler = s.scheduler;
      pc::set_offered_load(cfg, load);
      apply_jobs(cfg, jobs);
      out.push_back(std::move(cfg));
    }
  }
}

WorkloadDef paper_fig() {
  WorkloadDef w;
  w.policy = figure_policy();
  add_figure_cells(w.cells, procsim::bench::trace_base(),
                   procsim::bench::loads_real_turnaround(), kFig02Jobs);
  add_figure_cells(w.cells,
                   procsim::bench::stochastic_base(procsim::workload::SideDistribution::kUniform),
                   procsim::bench::loads_uniform(), kFig03Jobs);
  return w;
}

WorkloadDef churn() {
  WorkloadDef w;
  w.policy = figure_policy();
  pc::ExperimentConfig base =
      procsim::bench::stochastic_base(procsim::workload::SideDistribution::kUniform);
  base.sys.geom = procsim::mesh::Geometry(128, 128);
  // procsim_sweep's order: rows = loads, columns = sched-major series.
  for (const double load : procsim::bench::loads_uniform()) {
    for (const auto policy : {procsim::sched::Policy::kFcfs, procsim::sched::Policy::kSsd}) {
      for (const char* alloc : {"FirstFit", "GABL"}) {
        pc::ExperimentConfig cfg = base;
        cfg.allocator = pc::AllocatorSpec(alloc);
        cfg.scheduler = policy;
        pc::set_offered_load(cfg, load);
        apply_jobs(cfg, kChurnJobs);
        w.cells.push_back(std::move(cfg));
      }
    }
  }
  return w;
}

WorkloadDef backfill_saturated() {
  WorkloadDef w;
  w.policy = fixed_policy(kBackfillReps);
  pc::ExperimentConfig cfg = procsim::bench::base_config();
  cfg.sys.geom = procsim::mesh::Geometry(32, 32);
  // procsim_sweep --workload=saturation: a 3x backlog at t = 0, warmup
  // skipping the cold-start fill.
  cfg.workload.source_spec = "saturation";
  cfg.sys.target_completions = kBackfillTarget;
  cfg.workload.job_count = 3 * kBackfillTarget;
  cfg.sys.warmup_completions = kBackfillTarget / 10;
  cfg.allocator = pc::AllocatorSpec("FirstFit");
  const auto spec = procsim::sched::parse_sched_spec("backfill:conservative;shape");
  if (!spec) throw std::logic_error("backfill spec does not parse");
  cfg.scheduler = *spec;
  w.cells.push_back(std::move(cfg));
  return w;
}

WorkloadDef swf_replay(const std::string& swf_path) {
  WorkloadDef w;
  w.policy = fixed_policy(kSwfReps);
  w.sink = SinkKind::kRecordStore;
  w.uses_swf = true;
  // bench_swf_replay's configuration: the whole trace, calendar engine,
  // coalesced scheduling passes, FirstFit/FCFS on 256x256.
  pc::ExperimentConfig cfg;
  cfg.sys.geom = procsim::mesh::Geometry(256, 256);
  cfg.sys.target_completions = 0;
  cfg.sys.event_engine = procsim::des::EventEngine::kCalendar;
  cfg.sys.coalesce_passes = true;
  cfg.workload.kind = pc::WorkloadKind::kTrace;
  cfg.workload.swf_path = swf_path;
  cfg.workload.load = kSwfLoad;
  cfg.allocator = pc::AllocatorSpec("FirstFit");
  cfg.scheduler = procsim::sched::Policy::kFcfs;
  w.cells.push_back(std::move(cfg));
  return w;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
};

void add_stats(procsim::mesh::OccupancyIndex::QueryStats& sum,
               const procsim::mesh::OccupancyIndex::QueryStats& s) {
  sum.first_fit_queries += s.first_fit_queries;
  sum.best_fit_queries += s.best_fit_queries;
  sum.largest_free_queries += s.largest_free_queries;
  sum.frontier_passes += s.frontier_passes;
  sum.frontier_hits += s.frontier_hits;
  sum.descent_queries += s.descent_queries;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"paper_fig_16x22", "churn_128x128",
                                               "backfill_saturated", "swf_replay_256"};
  return kNames;
}

WorkloadDef make_workload(const std::string& name, std::uint64_t seed,
                          const std::string& swf_path) {
  WorkloadDef w;
  if (name == "paper_fig_16x22") {
    w = paper_fig();
  } else if (name == "churn_128x128") {
    w = churn();
  } else if (name == "backfill_saturated") {
    w = backfill_saturated();
  } else if (name == "swf_replay_256") {
    w = swf_replay(swf_path);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.name = name;
  // Every cell gets its own job streams. (The figure binaries give all cells
  // one seed; with that, a pass holds only as many distinct streams as a
  // cell has replications, and its cost swings with the seed.)
  for (std::size_t i = 0; i < w.cells.size(); ++i)
    w.cells[i].seed = procsim::des::substream_seed(seed, i);
  w.policy.precision_metrics = pc::precision_observation_names();
  return w;
}

std::uint64_t digest_of(const pc::RunMetrics& m, const pc::JobRecordStore* store) {
  Fnv f;
  for (const auto& [name, value] : pc::to_observations(m)) {
    f.text(name);
    f.real(value);
  }
  f.word(m.completed);
  f.word(m.events);
  f.word(m.packets);
  if (store != nullptr) {
    for (std::size_t i = 0; i < store->size(); ++i) {
      const pc::JobRecord r = store->record(i);
      f.word(r.id);
      f.real(r.arrival);
      f.real(r.start);
      f.real(r.finish);
      f.real(r.demand);
      f.word((static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.width)) << 32) |
             static_cast<std::uint32_t>(r.length));
      f.word(static_cast<std::uint64_t>(r.processors));
      f.word(static_cast<std::uint64_t>(r.allocated));
      f.word(static_cast<std::uint64_t>(r.alloc_blocks));
      f.word((static_cast<std::uint64_t>(static_cast<std::uint32_t>(r.alloc_width)) << 32) |
             static_cast<std::uint32_t>(r.alloc_length));
    }
  }
  return f.h;
}

RepResult run_rep(const pc::ExperimentConfig& cfg, SinkKind sink_kind, const Tracing& tracing) {
  RepResult out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto allocator = pc::make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
  const auto scheduler = pc::make_scheduler(cfg.scheduler);
  const auto ts = std::chrono::steady_clock::now();
  const auto source =
      pc::make_workload_source(cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len);
  source->reset(cfg.seed);
  out.source_setup_s = seconds_since(ts);

  procsim::stats::JobMetrics job_metrics;
  pc::JobRecordStore store;
  procsim::core::MetricsSink* sink = &job_metrics;
  if (sink_kind == SinkKind::kRecordStore) sink = &store;

  // The same SystemSim seeding as core::run_probed.
  pc::SystemConfig sys = cfg.sys;
  sys.seed = cfg.seed ^ 0x5EEDF00DULL;
  if (tracing.recorder != nullptr) sys.recorder = tracing.recorder;

  std::unique_ptr<TimedAllocator> t_alloc;
  std::unique_ptr<TimedScheduler> t_sched;
  std::unique_ptr<TimedSource> t_source;
  std::unique_ptr<TimedSink> t_sink;
  procsim::alloc::Allocator* a = allocator.get();
  procsim::sched::Scheduler* s = scheduler.get();
  procsim::workload::Source* src = source.get();
  if (tracing.tracer != nullptr) {
    t_alloc = std::make_unique<TimedAllocator>(*allocator, *tracing.tracer);
    t_sched = std::make_unique<TimedScheduler>(*scheduler, *tracing.tracer);
    t_source = std::make_unique<TimedSource>(*source, *tracing.tracer);
    t_sink = std::make_unique<TimedSink>(*sink, *tracing.tracer);
    a = t_alloc.get();
    s = t_sched.get();
    src = t_source.get();
    sink = t_sink.get();
  }
  pc::SystemSim sim(sys, *a, *s);
  sim.set_metrics_sink(sink);
  out.setup_s = seconds_since(t0);

  const double c0 = process_cpu_s();
  const auto t1 = std::chrono::steady_clock::now();
  out.metrics = sim.run(*src);
  out.run_s = seconds_since(t1);
  out.run_cpu_s = process_cpu_s() - c0;

  if (sink_kind == SinkKind::kJobMetrics) {
    // core::run_once's fairness fields.
    out.metrics.jobs.wait = job_metrics.wait();
    out.metrics.jobs.turnaround = job_metrics.turnaround();
    out.metrics.jobs.slowdown = job_metrics.bounded_slowdown();
    out.metrics.jobs.starved = static_cast<double>(job_metrics.starvation().count());
  }
  out.index_stats = allocator->index().query_stats();
  out.digest = digest_of(out.metrics, sink_kind == SinkKind::kRecordStore ? &store : nullptr);
  return out;
}

PassResult run_pass(const WorkloadDef& w, const Tracing& tracing, Calibrator* calibrator) {
  PassResult pass;
  // Every pass parses its trace afresh, so SWF parsing lands in setup time.
  if (w.uses_swf) procsim::workload::clear_swf_cache();
  const std::uint64_t cap =
      std::max(w.policy.min_replications, w.policy.max_replications);
  for (const pc::ExperimentConfig& cell : w.cells) {
    procsim::stats::ReplicationController controller(w.policy);
    std::vector<double>& setups = pass.rep_setup_s.emplace_back();
    for (std::uint64_t rep = 0; !controller.done() && rep < cap; ++rep) {
      pc::ExperimentConfig cfg = cell;
      cfg.seed = procsim::des::substream_seed(cell.seed, rep);
      if (tracing.tracer != nullptr)
        tracing.tracer->set_rep(static_cast<std::uint32_t>(pass.digests.size()));
      RepResult r;
      try {
        r = run_rep(cfg, w.sink, tracing);
      } catch (const std::exception&) {
        ++pass.failed;
        pass.digests.push_back(0);
        break;  // the cell cannot continue its stopping rule
      }
      pass.digests.push_back(r.digest);
      pass.rep_s.push_back(r.run_s);
      setups.push_back(r.setup_s);
      pass.source_setup_s += r.source_setup_s;
      pass.run_s += r.run_s;
      pass.run_cpu_s += r.run_cpu_s;
      pass.completions += r.metrics.completed;
      pass.events += r.metrics.events;
      pass.packets += r.metrics.packets;
      add_stats(pass.index_stats, r.index_stats);
      std::unordered_map<std::string, double> obs;
      for (const auto& [k, v] : pc::to_observations(r.metrics)) obs.emplace(k, v);
      controller.add_replication(obs);
      if (calibrator != nullptr) calibrator->follow(r.setup_s + r.run_s);
    }
  }
  if (calibrator != nullptr) pass.host = calibrator->take();
  return pass;
}

}  // namespace perfbench
