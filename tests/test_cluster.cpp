#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "broken_source.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/cluster_spec.hpp"
#include "cluster/dispatcher.hpp"
#include "core/experiment.hpp"
#include "core/experiment_spec.hpp"
#include "network/wormhole_network.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace procsim;
using cluster::MeshLoadView;
using cluster::parse_cluster_spec;

std::vector<MeshLoadView> depths(std::vector<std::int64_t> ds) {
  std::vector<MeshLoadView> out;
  for (const std::int64_t d : ds) out.push_back(MeshLoadView{d, 64, 0});
  return out;
}

std::vector<std::size_t> all_eligible(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(ClusterSpec, DefaultsAndCanonical) {
  const auto spec = parse_cluster_spec("4x(32x32)");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->size(), 4u);
  for (const auto& m : spec->meshes) {
    EXPECT_EQ(m.geom.width(), 32);
    EXPECT_EQ(m.geom.length(), 32);
    EXPECT_TRUE(m.alloc.empty());
  }
  EXPECT_EQ(spec->balance, "round_robin");
  EXPECT_FALSE(spec->migrate);
  EXPECT_EQ(spec->total_nodes(), 4 * 32 * 32);
  EXPECT_EQ(spec->canonical, "4x(32x32);balance=round_robin");
}

TEST(ClusterSpec, CanonicalRoundTrips) {
  // parse(canonical) must reproduce the identical spec — the same contract
  // as the alloc/sched registries' label round-trips.
  for (const char* s :
       {"4x(32x32);balance=shortest_queue;stale=10;migrate=steal;lat=50",
        "2x(32x32:GABL)+2x(16x16:FirstFit);balance=improved",
        "1x(16x22)", "4x(16x16);balance=stale_queue;stale=25",
        "3x(8x8);balance=random;migrate=steal;lat=12.5"}) {
    const auto spec = parse_cluster_spec(s);
    ASSERT_TRUE(spec.has_value()) << s;
    const auto again = parse_cluster_spec(spec->canonical);
    ASSERT_TRUE(again.has_value()) << spec->canonical;
    EXPECT_EQ(again->canonical, spec->canonical);
    EXPECT_TRUE(*again == *spec);
  }
  // stale= only means something to the snapshot policies; the canonical
  // spelling drops it elsewhere (and keeps it for stale_queue/improved).
  EXPECT_EQ(parse_cluster_spec("4x(32x32);balance=shortest_queue;stale=10")
                ->canonical,
            "4x(32x32);balance=shortest_queue");
  EXPECT_EQ(parse_cluster_spec("2x(16x16);balance=improved")->canonical,
            "2x(16x16);balance=improved;stale=10");
}

TEST(ClusterSpec, GroupsRunLengthEncodeAndNormalize) {
  const auto spec = parse_cluster_spec("1x(8x8)+1x(8x8)+2x(4x4)");
  ASSERT_TRUE(spec.has_value());
  ASSERT_EQ(spec->size(), 4u);
  EXPECT_EQ(spec->canonical, "2x(8x8)+2x(4x4);balance=round_robin");
  // Case-insensitive everywhere; allocator names canonicalize.
  const auto het = parse_cluster_spec("4X(16X16:gabl);BALANCE=IMPROVED;STALE=5");
  ASSERT_TRUE(het.has_value());
  EXPECT_EQ(het->meshes[0].alloc, "GABL");
  EXPECT_EQ(het->canonical, "4x(16x16:GABL);balance=improved;stale=5");
}

TEST(ClusterSpec, HeterogeneousAllocNamesPerMesh) {
  const auto spec = parse_cluster_spec("1x(8x8:MBS)+1x(8x8)");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->meshes[0].alloc, "MBS");
  EXPECT_TRUE(spec->meshes[1].alloc.empty());  // experiment default
}

TEST(ClusterSpec, MalformedSpecsFailWithReason) {
  const auto fails = [](const char* s, const char* needle) {
    std::string error;
    EXPECT_FALSE(parse_cluster_spec(s, &error).has_value()) << s;
    EXPECT_NE(error.find(needle), std::string::npos)
        << s << " -> '" << error << "'";
  };
  fails("", "empty");
  fails("0x(8x8)", "count");
  fails("4x(8x8", "group");
  fails("4x8x8)", "group");
  fails("4x(8x8);balance=bogus", "round_robin");       // lists known policies
  fails("4x(8x8:Buddy)", "GABL");                      // lists known allocators
  fails("4x(8x8);stale=0", "stale");
  fails("4x(8x8);lat=-1", "lat");
  fails("4x(8x8);migrate=maybe", "migrate");
  fails("4x(8x8);bogus=1", "unknown");
  fails("4x(9999x8)", "4096");
}

// ---------------------------------------------------------------------------
// Dispatcher policies
// ---------------------------------------------------------------------------

TEST(Dispatcher, RoundRobinCyclesSkippingIneligible) {
  const auto d = cluster::make_dispatcher("round_robin", 10, 1);
  const auto loads = depths({0, 0, 0, 0});
  const auto all = all_eligible(4);
  for (const std::size_t want : {0u, 1u, 2u, 3u, 0u, 1u})
    EXPECT_EQ(d->pick(0.0, loads, all), want);
  // With meshes 1 and 3 eligible the cycle continues, skipping the rest.
  const std::vector<std::size_t> some{1, 3};
  EXPECT_EQ(d->pick(0.0, loads, some), 3u);
  EXPECT_EQ(d->pick(0.0, loads, some), 1u);
  // The cursor keeps cyclic order: the pick after mesh 1 is mesh 2.
  EXPECT_EQ(d->pick(0.0, loads, all), 2u);
}

TEST(Dispatcher, ShortestQueuePicksArgminLowestIndexTie) {
  const auto d = cluster::make_dispatcher("shortest_queue", 10, 1);
  EXPECT_EQ(d->pick(0.0, depths({3, 1, 2}), all_eligible(3)), 1u);
  EXPECT_EQ(d->pick(0.0, depths({2, 1, 1}), all_eligible(3)), 1u);  // tie -> low
  EXPECT_EQ(d->pick(0.0, depths({0, 9, 9}), {1, 2}), 1u);  // ineligible ignored
}

TEST(Dispatcher, RandomIsSeedDeterministicAndStaysEligible) {
  const auto a = cluster::make_dispatcher("random", 10, 42);
  const auto b = cluster::make_dispatcher("random", 10, 42);
  const auto loads = depths({5, 0, 7, 1});
  const std::vector<std::size_t> eligible{0, 2, 3};
  for (int i = 0; i < 50; ++i) {
    const std::size_t pa = a->pick(0.0, loads, eligible);
    EXPECT_EQ(pa, b->pick(0.0, loads, eligible));
    EXPECT_TRUE(pa == 0 || pa == 2 || pa == 3);
  }
}

TEST(Dispatcher, StaleQueueDivergesFromFreshOnlyBetweenRefreshes) {
  const auto stale = cluster::make_dispatcher("stale_queue", 10, 1);
  const auto fresh = cluster::make_dispatcher("shortest_queue", 10, 1);
  const auto all = all_eligible(3);
  // t=0: snapshot taken; both policies agree on the fresh argmin.
  const auto at0 = depths({0, 5, 5});
  EXPECT_EQ(stale->pick(0.0, at0, all), 0u);
  EXPECT_EQ(fresh->pick(0.0, at0, all), 0u);
  // t=5 (< refresh): the world changed, the snapshot didn't — divergence.
  const auto at5 = depths({9, 5, 0});
  EXPECT_EQ(fresh->pick(5.0, at5, all), 2u);
  EXPECT_EQ(stale->pick(5.0, at5, all), 0u);  // still the stale argmin
  // t=10 (>= refresh): snapshot refreshes, agreement returns.
  EXPECT_EQ(stale->pick(10.0, at5, all), 2u);
  EXPECT_EQ(fresh->pick(10.0, at5, all), 2u);
}

TEST(Dispatcher, ImprovedSpreadsWithinOneRefreshWindow) {
  // The hybrid increments its own snapshot after each pick, so a burst of
  // arrivals inside one refresh window round-robins across the fleet instead
  // of herding onto the mesh that looked emptiest at snapshot time.
  const auto d = cluster::make_dispatcher("improved", 100, 1);
  const auto loads = depths({0, 0, 0, 0});
  const auto all = all_eligible(4);
  std::multiset<std::size_t> picks;
  for (int i = 0; i < 4; ++i) picks.insert(d->pick(1.0, loads, all));
  EXPECT_EQ(picks, (std::multiset<std::size_t>{0, 1, 2, 3}));
}

TEST(Dispatcher, UnknownPolicyThrowsListingKnown) {
  try {
    (void)cluster::make_dispatcher("bogus", 10, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shortest_queue"), std::string::npos);
  }
  // The registry listing and the factory accept the same set.
  for (const std::string& name : cluster::known_dispatchers())
    EXPECT_EQ(cluster::make_dispatcher(name, 10, 1)->name(), name);
}

// ---------------------------------------------------------------------------
// Unified experiment-spec entry point
// ---------------------------------------------------------------------------

TEST(ExperimentSpec, AppliesEveryAxis) {
  core::ExperimentSpecStrings axes;
  axes.cluster = "4x(16x16);balance=improved";
  axes.alloc = "mbs";
  axes.sched = "ssd";
  axes.workload = "bursty;b=8";
  axes.net = "analytic";
  const core::ExperimentConfig cfg = core::parse_experiment_spec(axes);
  ASSERT_TRUE(cfg.cluster.has_value());
  EXPECT_EQ(cfg.cluster->size(), 4u);
  EXPECT_EQ(cfg.sys.geom.width(), 16);  // shaped for the first mesh
  EXPECT_EQ(cfg.allocator.label(), "MBS");
  EXPECT_EQ(cfg.scheduler.canonical, "SSD");
  EXPECT_FALSE(cfg.workload.source_spec.empty());
  EXPECT_EQ(cfg.workload.job_count, 0u);  // registry stream defaults
  EXPECT_STREQ(network::net_engine_name(cfg.sys.net.engine), "analytic");
}

TEST(ExperimentSpec, BareFiguresKeepTemplatePath) {
  core::ExperimentSpecStrings axes;
  axes.workload = "uniform";
  core::ExperimentConfig cfg = core::parse_experiment_spec(axes);
  EXPECT_TRUE(cfg.workload.source_spec.empty());
  EXPECT_EQ(cfg.workload.kind, core::WorkloadKind::kStochastic);
  axes.workload = "real";
  cfg = core::parse_experiment_spec(axes);
  EXPECT_TRUE(cfg.workload.source_spec.empty());
  EXPECT_EQ(cfg.workload.kind, core::WorkloadKind::kTrace);
}

TEST(ExperimentSpec, MeshAndClusterConflict) {
  core::ExperimentSpecStrings axes;
  axes.mesh = "16x16";
  axes.cluster = "2x(16x16)";
  EXPECT_THROW((void)core::parse_experiment_spec(axes), std::invalid_argument);
}

TEST(ExperimentSpec, UnknownNamesListKnownKinds) {
  const auto error_contains = [](core::ExperimentSpecStrings axes,
                                 const char* needle) {
    try {
      (void)core::parse_experiment_spec(axes);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  core::ExperimentSpecStrings axes;
  axes.alloc = "NoSuch";
  error_contains(axes, "GABL");
  axes = {};
  axes.sched = "NoSuch";
  error_contains(axes, "FCFS");
  axes = {};
  axes.workload = "NoSuch";
  error_contains(axes, "saturation");
  axes = {};
  axes.cluster = "2x(8x8);balance=NoSuch";
  error_contains(axes, "round_robin");
  axes = {};
  axes.mesh = "16";
  error_contains(axes, "WxL");
}

TEST(ExperimentSpec, ClusterMetricsAreKnown) {
  const auto metrics = core::known_metrics();
  for (const char* m : {"util_spread", "util_min", "util_max", "util_stddev",
                        "migrations", "migration_latency", "stale_errors"})
    EXPECT_NE(std::find(metrics.begin(), metrics.end(), m), metrics.end()) << m;
}

// ---------------------------------------------------------------------------
// ClusterSim end-to-end (through the ExperimentConfig cluster axis)
// ---------------------------------------------------------------------------

struct IdSink final : core::MetricsSink {
  std::vector<std::uint64_t> ids;
  void on_job(const core::JobRecord& rec) override { ids.push_back(rec.id); }
};

core::ExperimentConfig cluster_cfg(const std::string& spec, double load,
                                   std::size_t jobs) {
  core::ExperimentConfig cfg;
  cfg.cluster = parse_cluster_spec(spec);
  EXPECT_TRUE(cfg.cluster.has_value()) << spec;
  cfg.sys.geom = cfg.cluster->meshes.front().geom;
  cfg.sys.think_time = 10;
  cfg.sys.target_completions = 0;  // drain the whole stream
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = jobs;
  cfg.workload.stochastic.load = load;
  cfg.seed = 7;
  return cfg;
}

TEST(ClusterSim, DrainCompletesEveryJobExactlyOnce) {
  const auto cfg = cluster_cfg("4x(8x8);balance=shortest_queue", 0.05, 200);
  IdSink sink;
  const core::RunMetrics m = core::run_probed(cfg, nullptr, &sink);
  EXPECT_EQ(m.completed, 200u);
  ASSERT_EQ(sink.ids.size(), 200u);
  EXPECT_EQ(std::set(sink.ids.begin(), sink.ids.end()).size(), 200u);
  EXPECT_EQ(m.cluster.meshes, 4u);
  EXPECT_LE(m.cluster.util_min, m.cluster.util_mean);
  EXPECT_LE(m.cluster.util_mean, m.cluster.util_max);
  EXPECT_GE(m.cluster.util_stddev, 0.0);
  EXPECT_DOUBLE_EQ(m.cluster.spread(), m.cluster.util_max - m.cluster.util_min);
  // shortest_queue always picks the fresh argmin: staleness errors impossible.
  EXPECT_EQ(m.cluster.stale_errors, 0u);
  EXPECT_EQ(m.cluster.migrations, 0u);  // migrate=off
}

TEST(ClusterSim, RejectsASourceThatBreaksItsPeekedArrival) {
  // Same Source contract as a single mesh: the job must exist and arrive at
  // the peeked time, or the run stops.
  const auto run = [](std::optional<double> arrival) {
    cluster::ClusterSimConfig cfg;
    cfg.spec = *parse_cluster_spec("2x(4x4)");
    cfg.target_completions = 0;
    cluster::ClusterSim sim(cfg);
    procsim::testing::BrokenSource source(arrival);
    return sim.run(source);
  };
  EXPECT_EQ(run(5.0).completed, 1u);
  EXPECT_THROW((void)run(std::nullopt), std::logic_error);
  EXPECT_THROW((void)run(7.0), std::logic_error);
  EXPECT_THROW((void)run(3.0), std::logic_error);
}

TEST(ClusterSim, MigrationPaysLatencyAndNeverDuplicatesOrLoses) {
  const auto cfg =
      cluster_cfg("2x(8x8);balance=round_robin;migrate=steal;lat=50", 0.12, 300);
  IdSink sink;
  const core::RunMetrics m = core::run_probed(cfg, nullptr, &sink);
  // Conservation: every job completes exactly once, with or without travel.
  EXPECT_EQ(m.completed, 300u);
  ASSERT_EQ(sink.ids.size(), 300u);
  EXPECT_EQ(std::set(sink.ids.begin(), sink.ids.end()).size(), 300u);
  // The fixed seed produces steals, and each one pays exactly `lat`.
  EXPECT_GE(m.cluster.migrations, 1u);
  EXPECT_DOUBLE_EQ(m.cluster.migration_latency,
                   50.0 * static_cast<double>(m.cluster.migrations));
}

TEST(ClusterSim, StaleQueueMakesStaleErrorsShortestQueueNone) {
  auto cfg = cluster_cfg("4x(8x8);balance=stale_queue;stale=200", 0.12, 300);
  const core::RunMetrics stale = core::run_probed(cfg, nullptr, nullptr);
  EXPECT_GT(stale.cluster.stale_errors, 0u);
  cfg = cluster_cfg("4x(8x8);balance=shortest_queue", 0.12, 300);
  const core::RunMetrics fresh = core::run_probed(cfg, nullptr, nullptr);
  EXPECT_EQ(fresh.cluster.stale_errors, 0u);
}

TEST(ClusterSim, SchedulerAxisReachesEveryMesh) {
  auto cfg = cluster_cfg("2x(8x8);balance=round_robin", 0.15, 250);
  cfg.scheduler = *sched::parse_sched_spec("FCFS");
  const core::RunMetrics fcfs = core::run_once(cfg);
  cfg.scheduler = *sched::parse_sched_spec("SJF");
  const core::RunMetrics sjf = core::run_once(cfg);
  // Under queueing, per-mesh SJF reorders and the aggregate must move.
  EXPECT_NE(fcfs.turnaround.mean(), sjf.turnaround.mean());
}

TEST(ClusterSim, FixedSeedRunsAreBitIdentical) {
  const auto cfg = cluster_cfg("4x(8x8);balance=improved", 0.08, 150);
  const core::RunMetrics a = core::run_once(cfg);
  const core::RunMetrics b = core::run_once(cfg);
  EXPECT_EQ(a.turnaround.mean(), b.turnaround.mean());
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.cluster.spread(), b.cluster.spread());
  EXPECT_EQ(a.cluster.stale_errors, b.cluster.stale_errors);
  EXPECT_EQ(a.events, b.events);
}

TEST(ClusterSim, ThreadedReplicationsMatchSerialBitForBit) {
  const auto cfg = cluster_cfg("2x(8x8);balance=random;migrate=steal;lat=25",
                               0.08, 120);
  stats::ReplicationPolicy policy;
  policy.min_replications = policy.max_replications = 3;
  const core::AggregateResult serial = core::run_replicated(cfg, policy, nullptr);
  util::ThreadPool pool(2);
  const core::AggregateResult threaded = core::run_replicated(cfg, policy, &pool);
  ASSERT_EQ(serial.replications, threaded.replications);
  ASSERT_EQ(serial.metrics.size(), threaded.metrics.size());
  for (const auto& [name, interval] : serial.metrics) {
    ASSERT_TRUE(threaded.metrics.contains(name)) << name;
    EXPECT_EQ(interval.mean, threaded.metrics.at(name).mean) << name;
    EXPECT_EQ(interval.half_width, threaded.metrics.at(name).half_width) << name;
  }
}

}  // namespace
