// End-to-end integration tests of the coupled scheduler/allocator/network
// simulation on small meshes with hand-checkable schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "alloc/gabl.hpp"
#include "alloc/paging.hpp"
#include "broken_source.hpp"
#include "core/job_record_store.hpp"
#include "core/system_sim.hpp"
#include "sched/ordered_scheduler.hpp"
#include "workload/stochastic.hpp"
#include "verify_scope.hpp"

namespace {

using procsim::alloc::GablAllocator;
using procsim::alloc::PagingAllocator;
using procsim::core::RunMetrics;
using procsim::core::SystemConfig;
using procsim::core::SystemSim;
using procsim::mesh::Geometry;
using procsim::sched::OrderedScheduler;
using procsim::sched::Policy;
using procsim::workload::Job;

Job make_job(std::uint64_t id, double arrival, std::int32_t w, std::int32_t l,
             std::vector<procsim::workload::MessagePlanEntry> plan, double demand = 0) {
  Job j;
  j.id = id;
  j.arrival = arrival;
  j.width = w;
  j.length = l;
  j.processors = w * l;
  j.message_plan = std::move(plan);
  j.demand = demand;
  return j;
}

TEST(SystemSim, SingleProcessorJobNominalService) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{make_job(0, 10.0, 1, 1, {})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 1u);
  // Nominal service: 1 + st + P_len = 1 + 3 + 8 = 12.
  EXPECT_DOUBLE_EQ(m.service.mean(), 12.0);
  EXPECT_DOUBLE_EQ(m.turnaround.mean(), 12.0);
}

TEST(SystemSim, TwoProcessorJobServiceEqualsPacketLatency) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // 2×1 job, one message between the two (adjacent) processors:
  // latency = 2 channels × (1+3) + ... = (1+1)(1+3)+8 = 16.
  const std::vector<Job> jobs{make_job(0, 0.0, 2, 1, {{0, 1}})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_DOUBLE_EQ(m.packet_latency.mean(), 16.0);
  EXPECT_DOUBLE_EQ(m.service.mean(), 16.0);
  EXPECT_DOUBLE_EQ(m.packet_blocking.mean(), 0.0);
  EXPECT_EQ(m.packets, 1u);
}

TEST(SystemSim, ThinkTimeDelaysSecondMessage) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 1;
  cfg.think_time = 100;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Two messages from the same source: service = 16 + 100 + 16 = 132.
  const std::vector<Job> jobs{make_job(0, 0.0, 2, 1, {{0, 1}, {0, 1}})};
  const RunMetrics m = sim.run(jobs);
  EXPECT_DOUBLE_EQ(m.service.mean(), 132.0);
  // Pacing means the second packet never queues: zero blocking.
  EXPECT_DOUBLE_EQ(m.packet_blocking.mean(), 0.0);
}

TEST(SystemSim, FcfsBlocksBehindBigJob) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;
  PagingAllocator alloc(cfg.geom, 0);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Job 0 takes the whole mesh; jobs 1 (whole mesh) and 2 (tiny) queue.
  // Under FCFS the tiny job cannot overtake the waiting whole-mesh job.
  const std::vector<Job> jobs{
      make_job(0, 0.0, 4, 4, {{0, 15}}, 100),
      make_job(1, 1.0, 4, 4, {{0, 15}}, 100),
      make_job(2, 2.0, 1, 2, {{0, 1}}, 1),
  };
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 3u);
  // Tiny job waits for both big jobs: its turnaround dominates its service.
  EXPECT_GT(m.turnaround.max(), 2 * m.service.max());
}

TEST(SystemSim, SsdLetsShortJobOvertake) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;

  const std::vector<Job> jobs{
      make_job(0, 0.0, 4, 4, {{0, 15}}, 100),
      make_job(1, 1.0, 4, 4, {{0, 15}}, 100),
      make_job(2, 2.0, 1, 2, {{0, 1}}, 1),
  };

  PagingAllocator alloc_fcfs(cfg.geom, 0);
  OrderedScheduler fcfs(Policy::kFcfs);
  const RunMetrics m_fcfs = SystemSim(cfg, alloc_fcfs, fcfs).run(jobs);

  PagingAllocator alloc_ssd(cfg.geom, 0);
  OrderedScheduler ssd(Policy::kSsd);
  const RunMetrics m_ssd = SystemSim(cfg, alloc_ssd, ssd).run(jobs);

  // SSD improves mean turnaround by letting the short job jump the queue.
  EXPECT_LT(m_ssd.turnaround.mean(), m_fcfs.turnaround.mean());
}

TEST(SystemSim, UtilizationWithinBounds) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 0.0, 2, 2, {{0, 3}}),
      make_job(1, 0.0, 2, 2, {{0, 3}}),
  };
  const RunMetrics m = sim.run(jobs);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GT(m.makespan, 0.0);
}

TEST(SystemSim, TargetCompletionsStopsEarly) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.push_back(make_job(static_cast<std::uint64_t>(i), i * 5.0, 2, 1, {{0, 1}}));
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 2u);
}

TEST(SystemSim, WarmupExcludedFromStatistics) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 3;
  cfg.warmup_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(make_job(static_cast<std::uint64_t>(i), i * 100.0, 2, 1, {{0, 1}}));
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 3u);             // measured completions
  EXPECT_EQ(m.turnaround.count(), 3u);    // warmup jobs not counted
}

TEST(SystemSim, DeterministicAcrossRuns) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 50;
  std::vector<Job> jobs;
  procsim::des::Xoshiro256SS rng(5);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  jobs = procsim::workload::generate_stochastic(params, cfg.geom, 50, rng);

  GablAllocator a1(cfg.geom);
  OrderedScheduler s1(Policy::kSsd);
  const RunMetrics m1 = SystemSim(cfg, a1, s1).run(jobs);

  GablAllocator a2(cfg.geom);
  OrderedScheduler s2(Policy::kSsd);
  const RunMetrics m2 = SystemSim(cfg, a2, s2).run(jobs);

  EXPECT_DOUBLE_EQ(m1.turnaround.mean(), m2.turnaround.mean());
  EXPECT_DOUBLE_EQ(m1.packet_latency.mean(), m2.packet_latency.mean());
  EXPECT_DOUBLE_EQ(m1.makespan, m2.makespan);
  EXPECT_EQ(m1.events, m2.events);
}

TEST(SystemSim, NetEngineSelectionPreservesTrajectory) {
  // SystemConfig::net.engine swaps the wormhole engine per run; the batched
  // fast path and verify's lock-step shadow must leave every model-visible
  // metric identical to the stepped oracle. Only the DES event count (and
  // wall time) may differ — fewer events per packet is the whole point of
  // batching — so RunMetrics::events is deliberately not compared.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 50;
  std::vector<Job> jobs;
  procsim::des::Xoshiro256SS rng(7);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  jobs = procsim::workload::generate_stochastic(params, cfg.geom, 50, rng);

  auto run_with = [&](procsim::network::NetEngine engine) {
    SystemConfig c = cfg;
    c.net.engine = engine;
    GablAllocator alloc(c.geom);
    OrderedScheduler sched(Policy::kSsd);
    return SystemSim(c, alloc, sched).run(jobs);
  };
  const RunMetrics stepped = run_with(procsim::network::NetEngine::kStepped);
  const RunMetrics batched = run_with(procsim::network::NetEngine::kBatched);
  const RunMetrics verify = run_with(procsim::network::NetEngine::kVerify);

  for (const RunMetrics* m : {&batched, &verify}) {
    EXPECT_DOUBLE_EQ(m->turnaround.mean(), stepped.turnaround.mean());
    EXPECT_DOUBLE_EQ(m->service.mean(), stepped.service.mean());
    EXPECT_DOUBLE_EQ(m->packet_latency.mean(), stepped.packet_latency.mean());
    EXPECT_DOUBLE_EQ(m->packet_blocking.mean(), stepped.packet_blocking.mean());
    EXPECT_DOUBLE_EQ(m->makespan, stepped.makespan);
    EXPECT_EQ(m->packets, stepped.packets);
    EXPECT_EQ(m->completed, stepped.completed);
  }
}

TEST(SystemSim, RunIsRepeatableOnSameInstance) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 2;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 0.0, 2, 2, {{0, 3}}),
      make_job(1, 5.0, 2, 2, {{1, 2}}),
  };
  const RunMetrics m1 = sim.run(jobs);
  const RunMetrics m2 = sim.run(jobs);  // internal reset between runs
  EXPECT_DOUBLE_EQ(m1.turnaround.mean(), m2.turnaround.mean());
}

TEST(SystemSim, CoalescedPassesMatchLegacyOnContinuousWorkload) {
  // Continuous-time arrivals/completions (almost) never tie, so one pass per
  // timestamp must walk the exact same trajectory as one pass per event.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 80;
  std::vector<Job> jobs;
  procsim::des::Xoshiro256SS rng(11);
  procsim::workload::StochasticParams params;
  params.load = 0.08;
  jobs = procsim::workload::generate_stochastic(params, cfg.geom, 80, rng);

  cfg.coalesce_passes = false;
  GablAllocator a1(cfg.geom);
  OrderedScheduler s1(Policy::kFcfs);
  const RunMetrics legacy = SystemSim(cfg, a1, s1).run(jobs);

  cfg.coalesce_passes = true;
  GablAllocator a2(cfg.geom);
  OrderedScheduler s2(Policy::kFcfs);
  const RunMetrics coalesced = SystemSim(cfg, a2, s2).run(jobs);

  EXPECT_DOUBLE_EQ(legacy.turnaround.mean(), coalesced.turnaround.mean());
  EXPECT_DOUBLE_EQ(legacy.service.mean(), coalesced.service.mean());
  EXPECT_DOUBLE_EQ(legacy.packet_latency.mean(), coalesced.packet_latency.mean());
  EXPECT_DOUBLE_EQ(legacy.makespan, coalesced.makespan);
  EXPECT_EQ(legacy.packets, coalesced.packets);
}

TEST(SystemSim, CoalescedSaturationBurstStillCompletesEverything) {
  // All arrivals at t=0: the tie-heavy regime where coalescing may place
  // jobs differently. The invariants that must survive: every job completes
  // and every processor comes back.
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 0;
  cfg.coalesce_passes = true;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::des::Xoshiro256SS rng(13);
  procsim::workload::StochasticParams params;
  params.load = 0.1;
  auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 60, rng);
  for (auto& j : jobs) j.arrival = 0.0;
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 60u);
  EXPECT_EQ(alloc.free_processors(), 64);
}

TEST(SystemSim, RejectsDuplicateJobIds) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  // Same id twice, arrivals spread out so both reach the arena.
  const std::vector<Job> jobs{
      make_job(7, 0.0, 4, 4, {{0, 1}, {1, 0}}),
      make_job(7, 1.0, 1, 1, {}),
  };
  EXPECT_THROW((void)sim.run(jobs), std::invalid_argument);
}

TEST(SystemSim, JobRecordStoreCollectsColumnarRecords) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 40;
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::core::JobRecordStore store;
  sim.set_metrics_sink(&store);
  procsim::des::Xoshiro256SS rng(17);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 40, rng);
  const RunMetrics m = sim.run(jobs);
  ASSERT_EQ(store.size(), m.completed);

  // The reassembled records must tell the same story as the aggregates.
  double turnaround_sum = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const procsim::core::JobRecord r = store.record(i);
    EXPECT_GE(r.start, r.arrival);
    EXPECT_GT(r.finish, r.start);
    EXPECT_GE(r.allocated, r.processors);
    turnaround_sum += r.turnaround();
  }
  EXPECT_NEAR(turnaround_sum / static_cast<double>(store.size()),
              m.turnaround.mean(), 1e-9);

  // CSV emission is deterministic and one row per record.
  std::ostringstream csv;
  store.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            store.size() + 1);  // header + rows
  store.clear();
  EXPECT_TRUE(store.empty());
}

TEST(SystemSim, RejectsUnsortedJobs) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  const std::vector<Job> jobs{
      make_job(0, 10.0, 1, 1, {}),
      make_job(1, 5.0, 1, 1, {}),
  };
  EXPECT_THROW((void)sim.run(jobs), std::invalid_argument);
}

TEST(SystemSim, RejectsGeometryMismatch) {
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  GablAllocator alloc(Geometry(8, 8));
  OrderedScheduler sched(Policy::kFcfs);
  EXPECT_THROW(SystemSim(cfg, alloc, sched), std::invalid_argument);
}

TEST(SystemSim, AllProcessorsReleasedAtEnd) {
  SystemConfig cfg;
  cfg.geom = Geometry(8, 8);
  cfg.target_completions = 0;  // run all jobs to completion
  GablAllocator alloc(cfg.geom);
  OrderedScheduler sched(Policy::kFcfs);
  SystemSim sim(cfg, alloc, sched);
  procsim::des::Xoshiro256SS rng(3);
  procsim::workload::StochasticParams params;
  params.load = 0.1;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 100, rng);
  const RunMetrics m = sim.run(jobs);
  EXPECT_EQ(m.completed, 100u);
  EXPECT_EQ(alloc.free_processors(), 64);  // everything returned
}

TEST(SystemSim, RejectsASourceThatBreaksItsPeekedArrival) {
  // The arrival event is scheduled at the peeked time; a source that then
  // retracts the job or hands over one with another arrival time breaks the
  // Source contract, and the run must stop instead of skipping or
  // misdating the job.
  SystemConfig cfg;
  cfg.geom = Geometry(4, 4);
  cfg.target_completions = 0;
  const auto run = [&cfg](std::optional<double> arrival) {
    GablAllocator alloc(cfg.geom);
    OrderedScheduler sched(Policy::kFcfs);
    SystemSim sim(cfg, alloc, sched);
    procsim::testing::BrokenSource source(arrival);
    return sim.run(source);
  };
  EXPECT_EQ(run(5.0).completed, 1u);
  EXPECT_THROW((void)run(std::nullopt), std::logic_error);
  EXPECT_THROW((void)run(7.0), std::logic_error);
  EXPECT_THROW((void)run(3.0), std::logic_error);
}

// ------------------------------------------------------------ verify mode

TEST(VerifySwitch, ParsesOnlyZeroAndOne) {
  using procsim::util::parse_verify;
  EXPECT_FALSE(parse_verify(nullptr));  // unset
  EXPECT_FALSE(parse_verify(""));
  EXPECT_FALSE(parse_verify("0"));
  EXPECT_TRUE(parse_verify("1"));
  for (const char* bad : {"yes", "true", "2", "01", " 1", "verify"})
    EXPECT_THROW((void)parse_verify(bad), std::invalid_argument) << bad;
}

TEST(VerifySwitch, DefaultSystemSimRunsEveryOracleAndKeepsItsBytes) {
  // A default SystemConfig under the switch runs the cross-checked calendar
  // queue, the stepped network shadow and the index oracle; any divergence
  // throws. The shadow's own per-hop events are the only visible trace.
  SystemConfig cfg;
  cfg.target_completions = 0;
  procsim::des::Xoshiro256SS rng(5);
  procsim::workload::StochasticParams params;
  params.load = 0.05;
  const auto jobs = procsim::workload::generate_stochastic(params, cfg.geom, 40, rng);
  const auto run = [&cfg, &jobs](bool verify) {
    const procsim::testing::VerifyScope scope(verify);
    GablAllocator alloc(cfg.geom);
    OrderedScheduler sched(Policy::kFcfs);
    SystemSim sim(cfg, alloc, sched);
    return sim.run(jobs);
  };
  const RunMetrics plain = run(false);
  const RunMetrics verified = run(true);
  EXPECT_EQ(plain.completed, 40u);
  EXPECT_EQ(plain.turnaround.mean(), verified.turnaround.mean());  // bitwise
  EXPECT_EQ(plain.packet_latency.mean(), verified.packet_latency.mean());
  EXPECT_EQ(plain.packet_blocking.mean(), verified.packet_blocking.mean());
  EXPECT_EQ(plain.utilization, verified.utilization);
  EXPECT_EQ(plain.makespan, verified.makespan);
  EXPECT_GT(verified.events, plain.events);
}

}  // namespace
