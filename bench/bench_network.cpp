// bench_network: wormhole-network throughput, stepped oracle vs batched
// fast path. Three views, emitted as machine-readable JSON (default
// BENCH_network.json) so the perf trajectory across PRs is measurable in CI:
//
//  * network hold-model churn — a steady in-flight set of packets (uniform
//    all-to-all traffic, injections spread one cycle apart) drained to
//    completion on 32x32 and 128x128 meshes, timed for both engines in
//    delivered packets per wall-clock second. The batched engine advances a
//    header across its whole free hop-run in one event, so its DES event
//    count collapses from O(hops) to O(blocking points) per packet — the
//    `events` column makes that visible;
//  * fig14-shaped end-to-end row — a full SystemSim run on the paper's
//    16x22 mesh (GABL + FCFS, stochastic all-to-all workload, think_time
//    50), stepped vs batched. The two runs must produce bit-identical
//    model metrics (turnaround, latency, blocking, packet count) — checked
//    here as a cheap standing guard in front of the perf numbers;
//  * delivery-sink dispatch — ns/delivery through the raw function-pointer
//    sink vs the std::function it replaced, so the devirtualization stays
//    measured rather than assumed.
//
//   bench_network [--fast] [--out=BENCH_network.json] [--check=K]
//
// --fast    fewer packets / jobs (CI smoke)
// --check=K exit nonzero unless the 128x128 batched/stepped speedup >= K
//           (bench_gate.py enforces the same floor from the JSON)

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/registry.hpp"
#include "core/system_sim.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "network/wormhole_network.hpp"
#include "sched/ordered_scheduler.hpp"
#include "workload/stochastic.hpp"

namespace {

using namespace procsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct HoldRow {
  std::string mesh;
  std::string engine;
  double packets_per_sec{0};
  std::uint64_t packets{0};
  std::uint64_t events{0};
};

struct EndToEndRow {
  std::string mesh;
  std::string engine;
  double packets_per_sec{0};
  std::uint64_t packets{0};
  std::uint64_t events{0};
  core::RunMetrics metrics;
};

/// Hold-model churn: `npackets` uniform-random all-to-all packets injected
/// one cycle apart (a steady in-flight set of roughly one base latency's
/// worth), drained to empty. Identical injection sequence for both engines.
HoldRow drain_uniform(network::NetEngine engine, mesh::Geometry geom,
                      int npackets) {
  des::Simulator sim;
  network::WormholeNetwork net(sim, geom,
                               network::NetworkParams{3, 8, false, engine});
  std::uint64_t delivered = 0;
  net.set_delivery_sink(
      [](void* ctx, const network::Delivery&) {
        ++*static_cast<std::uint64_t*>(ctx);
      },
      &delivered);
  des::Xoshiro256SS rng(0xB07 + static_cast<std::uint64_t>(geom.nodes()));
  const auto nodes = static_cast<std::uint64_t>(geom.nodes());
  std::vector<std::pair<mesh::NodeId, mesh::NodeId>> pairs;
  for (int i = 0; i < npackets; ++i) {
    const auto s = static_cast<mesh::NodeId>(rng() % nodes);
    auto t = static_cast<mesh::NodeId>(rng() % nodes);
    if (t == s) t = static_cast<mesh::NodeId>((t + 1) % geom.nodes());
    pairs.emplace_back(s, t);
  }
  auto inject = [&](std::uint64_t i) { net.inject(pairs[i].first, pairs[i].second, i); };
  for (int i = 0; i < npackets; ++i)
    sim.schedule_at(static_cast<double>(i), des::owned(inject),
                    static_cast<std::uint64_t>(i));
  const auto t0 = Clock::now();
  sim.run();
  const double secs = seconds_since(t0);

  HoldRow row;
  row.mesh = std::to_string(geom.width()) + "x" + std::to_string(geom.length());
  row.engine = network::net_engine_name(engine);
  row.packets = delivered;
  row.packets_per_sec = static_cast<double>(delivered) / secs;
  row.events = sim.events_executed();
  return row;
}

/// fig14-shaped end-to-end churn: the paper's 16x22 mesh, GABL + FCFS,
/// stochastic all-to-all workload with blocking-send pacing.
EndToEndRow run_end_to_end(network::NetEngine engine,
                           const std::vector<workload::Job>& jobs,
                           mesh::Geometry geom) {
  core::SystemConfig cfg;
  cfg.geom = geom;
  cfg.net = network::NetworkParams{3, 8, false, engine};
  cfg.think_time = 50;
  cfg.target_completions = 0;  // run the whole stream
  cfg.coalesce_passes = false;
  const auto allocator = alloc::make_allocator("GABL", geom, {.seed = 99});
  sched::OrderedScheduler scheduler(sched::Policy::kFcfs);
  core::SystemSim sim(cfg, *allocator, scheduler);

  const auto t0 = Clock::now();
  const core::RunMetrics m = sim.run(jobs);
  const double secs = seconds_since(t0);

  EndToEndRow row;
  row.mesh = std::to_string(geom.width()) + "x" + std::to_string(geom.length());
  row.engine = network::net_engine_name(engine);
  row.packets = m.packets;
  row.packets_per_sec = static_cast<double>(m.packets) / secs;
  row.events = m.events;
  row.metrics = m;
  return row;
}

/// The engines must agree on every model-visible number; only the DES event
/// count (and wall time) may differ. A mismatch here is a correctness bug,
/// not a perf regression — fail loudly before emitting perf rows.
bool metrics_identical(const core::RunMetrics& a, const core::RunMetrics& b) {
  return a.completed == b.completed && a.packets == b.packets &&
         a.makespan == b.makespan &&
         a.turnaround.mean() == b.turnaround.mean() &&
         a.service.mean() == b.service.mean() &&
         a.packet_latency.mean() == b.packet_latency.mean() &&
         a.packet_blocking.mean() == b.packet_blocking.mean() &&
         a.packet_hops.mean() == b.packet_hops.mean() &&
         a.utilization == b.utilization;
}

/// ns per delivery through the raw (fn, ctx) sink vs the std::function it
/// replaced. The payload (a checksum accumulate) is identical; the delta is
/// pure dispatch cost.
struct SinkTimes {
  double fn_pointer_ns{0};
  double std_function_ns{0};
};

std::uint64_t g_sink_sum = 0;

void raw_sink(void* ctx, const network::Delivery& d) {
  *static_cast<std::uint64_t*>(ctx) += d.tag + static_cast<std::uint64_t>(d.hops);
}

SinkTimes time_sink_dispatch(int calls) {
  network::Delivery d{};
  d.tag = 3;
  d.hops = 4;

  SinkTimes out;
  {
    void (*volatile fn)(void*, const network::Delivery&) = raw_sink;
    g_sink_sum = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(&g_sink_sum, d);
    out.fn_pointer_ns = seconds_since(t0) * 1e9 / calls;
  }
  {
    std::uint64_t* sum = &g_sink_sum;
    std::function<void(const network::Delivery&)> fn =
        [sum](const network::Delivery& dd) {
          *sum += dd.tag + static_cast<std::uint64_t>(dd.hops);
        };
    g_sink_sum = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(d);
    out.std_function_ns = seconds_since(t0) * 1e9 / calls;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string out_path = "BENCH_network.json";
  double check = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--check=", 8) == 0) {
      char* end = nullptr;
      check = std::strtod(argv[i] + 8, &end);
      if (end == argv[i] + 8 || *end != '\0') {
        std::cerr << "bench_network: malformed number in " << argv[i] << "\n";
        return 2;
      }
    } else {
      std::cerr << "bench_network: unknown option " << argv[i]
                << " (usage: bench_network [--fast] [--out=PATH] [--check=K])\n";
      return 2;
    }
  }

  // --- network hold-model churn -----------------------------------------
  std::vector<HoldRow> hold;
  double stepped_128 = 0, batched_128 = 0;
  for (const auto& [w, l, npackets] :
       {std::tuple{32, 32, fast ? 4000 : 40'000},
        std::tuple{128, 128, fast ? 4000 : 30'000}}) {
    const mesh::Geometry geom(w, l);
    for (const auto engine :
         {network::NetEngine::kStepped, network::NetEngine::kBatched}) {
      const HoldRow row = drain_uniform(engine, geom, npackets);
      if (w == 128) {
        (engine == network::NetEngine::kStepped ? stepped_128 : batched_128) =
            row.packets_per_sec;
      }
      hold.push_back(row);
    }
  }
  const double speedup_128 = stepped_128 > 0 ? batched_128 / stepped_128 : 0;

  // --- fig14-shaped end-to-end churn ------------------------------------
  const mesh::Geometry geom(16, 22);
  const std::size_t njobs = fast ? 150 : 800;
  workload::StochasticParams params;
  params.load = 0.01;
  des::Xoshiro256SS wl_rng(0xF14);
  const std::vector<workload::Job> jobs =
      workload::generate_stochastic(params, geom, njobs, wl_rng);

  std::vector<EndToEndRow> e2e;
  e2e.push_back(run_end_to_end(network::NetEngine::kStepped, jobs, geom));
  e2e.push_back(run_end_to_end(network::NetEngine::kBatched, jobs, geom));
  if (!metrics_identical(e2e[0].metrics, e2e[1].metrics)) {
    std::cerr << "FAIL: stepped and batched end-to-end runs disagree on "
                 "model metrics — engine equivalence is broken\n";
    return 1;
  }

  // --- delivery-sink dispatch -------------------------------------------
  const SinkTimes sink = time_sink_dispatch(fast ? 2'000'000 : 20'000'000);

  // --- report ------------------------------------------------------------
  std::cout << "network hold-model churn (delivered packets/s):\n";
  for (const HoldRow& r : hold)
    std::cout << "  " << r.mesh << " " << r.engine << ": " << r.packets_per_sec
              << " (" << r.packets << " packets, " << r.events << " events)\n";
  std::cout << "  128x128 batched/stepped speedup: " << speedup_128 << "x\n";
  std::cout << "fig14-shaped end-to-end churn (packets/s):\n";
  for (const EndToEndRow& r : e2e)
    std::cout << "  " << r.mesh << " GABL " << r.engine << ": "
              << r.packets_per_sec << " (" << r.packets << " packets, "
              << r.events << " events)\n";
  std::cout << "delivery-sink dispatch (ns/call): fn_pointer "
            << sink.fn_pointer_ns << ", std_function " << sink.std_function_ns
            << "\n";

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"bench_network\",\n  \"mode\": \""
       << (fast ? "fast" : "full") << "\",\n  \"hold\": [\n";
  for (std::size_t i = 0; i < hold.size(); ++i) {
    const HoldRow& r = hold[i];
    json << "    {\"mesh\": \"" << r.mesh << "\", \"engine\": \"" << r.engine
         << "\", \"packets_per_sec\": " << r.packets_per_sec
         << ", \"packets\": " << r.packets << ", \"events\": " << r.events
         << "}" << (i + 1 < hold.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndRow& r = e2e[i];
    json << "    {\"mesh\": \"" << r.mesh << "\", \"engine\": \"" << r.engine
         << "\", \"packets_per_sec\": " << r.packets_per_sec
         << ", \"packets\": " << r.packets << ", \"events\": " << r.events
         << "}" << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedup\": {\"mesh\": \"128x128\", \"traffic\": "
          "\"all_to_all\", \"stepped_packets_per_sec\": "
       << stepped_128 << ", \"batched_packets_per_sec\": " << batched_128
       << ", \"speedup\": " << speedup_128
       << "},\n  \"sink_dispatch\": {\"fn_pointer_ns\": " << sink.fn_pointer_ns
       << ", \"std_function_ns\": " << sink.std_function_ns << "}\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (check > 0 && speedup_128 < check) {
    std::cerr << "FAIL: 128x128 batched/stepped speedup is " << speedup_128
              << "x, required >= " << check << "\n";
    return 1;
  }
  return 0;
}
