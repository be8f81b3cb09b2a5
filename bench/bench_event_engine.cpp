// bench_event_engine: pending-event-set throughput for the DES kernel.
// Two views, both emitted as machine-readable JSON (default BENCH_event.json)
// so the perf trajectory across PRs is measurable in CI:
//
//  * queue hold-model churn — a steady pending set of N events, each
//    operation pops the minimum and pushes a replacement an exponential
//    offset later (the classic calendar-queue "hold" workload), timed for
//    the binary-heap oracle and the calendar queue at N = 10k and N = 1M,
//    plus a report-only N = 64 pair ("queues_report_only", which the gate
//    does not read): the paper's 16x22 figure cells hold a pending set of
//    about 40 events, far below the gated sizes;
//  * end-to-end churn — a full SystemSim run on a 128x128 mesh (first_fit +
//    FCFS, stochastic workload), comparing the legacy configuration (heap
//    engine, one scheduling pass per event) against the current one
//    (calendar engine, coalesced per-timestamp passes), in simulator
//    events per wall-clock second.
//
//  * observability overhead — the same 128x128 churn with a counters-only
//    obs::Recorder attached vs detached, interleaved best-of-N; emitted as
//    an "observability" object with `overhead_frac`, which bench_gate.py
//    holds to the zero-overhead-off budget (<= 2%).
//
//   bench_event_engine [--fast] [--out=BENCH_event.json] [--check=K]
//
// --fast    fewer hold ops / jobs (CI smoke)
// --check=K exit nonzero unless the 128x128 calendar events_per_sec >= K

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "alloc/registry.hpp"
#include "core/system_sim.hpp"
#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "obs/recorder.hpp"
#include "sched/ordered_scheduler.hpp"
#include "workload/stochastic.hpp"

namespace {

using namespace procsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct QueueRow {
  std::size_t pending{0};
  std::string impl;
  double ops_per_sec{0};
};

struct EndToEndRow {
  std::string mesh;
  std::string allocator;
  std::string engine;
  double events_per_sec{0};
  std::uint64_t events{0};
};

/// Hold-model churn: fill to `pending`, then pop-min + push-replacement for
/// `ops` operations. The replacement lands Exp(pending) after the popped
/// event, which keeps the set spread stationary — the regime a long replay
/// holds the queue in.
double hold_ops_per_sec(des::EventEngine engine, std::size_t pending, int ops) {
  des::EventQueue q(engine);
  des::Xoshiro256SS rng(0x41D + pending);
  const des::Handler noop{[](void*, std::uint64_t) {}, nullptr};
  double t = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    t += des::sample_exponential(rng, 1.0);
    q.push(t, noop);
  }
  const auto t0 = Clock::now();
  for (int i = 0; i < ops; ++i) {
    const des::Event ev = q.pop();
    q.push(ev.time + des::sample_exponential(rng, static_cast<double>(pending)), noop);
  }
  const double secs = seconds_since(t0);
  return ops / secs;
}

EndToEndRow run_end_to_end(bool legacy, const std::vector<workload::Job>& jobs,
                           mesh::Geometry geom, obs::Recorder* rec = nullptr) {
  core::SystemConfig cfg;
  cfg.geom = geom;
  cfg.target_completions = 0;  // run the whole stream
  cfg.event_engine = legacy ? des::EventEngine::kHeap : des::EventEngine::kCalendar;
  cfg.coalesce_passes = !legacy;
  cfg.recorder = rec;
  const auto allocator = alloc::make_allocator("FirstFit", geom, {.seed = 99});
  sched::OrderedScheduler scheduler(sched::Policy::kFcfs);
  core::SystemSim sim(cfg, *allocator, scheduler);

  const auto t0 = Clock::now();
  const core::RunMetrics m = sim.run(jobs);
  const double secs = seconds_since(t0);

  EndToEndRow row;
  row.mesh = std::to_string(geom.width()) + "x" + std::to_string(geom.length());
  row.allocator = "FirstFit";
  row.engine = legacy ? "legacy" : "calendar";
  row.events_per_sec = static_cast<double>(m.events) / secs;
  row.events = m.events;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string out_path = "BENCH_event.json";
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
        std::cerr << "bench_event_engine: malformed number in " << argv[i] << "\n";
        return 2;
      }
    } else {
      std::cerr << "bench_event_engine: unknown option " << argv[i]
                << " (usage: bench_event_engine [--fast] [--out=PATH] [--check=K])\n";
      return 2;
    }
  }

  // --- queue hold-model churn -------------------------------------------
  std::vector<QueueRow> queues;
  std::vector<QueueRow> queues_report_only;
  const int hold_ops_small = fast ? 200'000 : 2'000'000;
  const int hold_ops_large = fast ? 100'000 : 1'000'000;
  for (const std::size_t pending :
       {std::size_t{64}, std::size_t{10'000}, std::size_t{1'000'000}}) {
    const int ops = pending <= 10'000 ? hold_ops_small : hold_ops_large;
    for (const auto& [engine, label] :
         {std::pair{des::EventEngine::kHeap, "heap"},
          std::pair{des::EventEngine::kCalendar, "calendar"}}) {
      QueueRow row;
      row.pending = pending;
      row.impl = label;
      row.ops_per_sec = hold_ops_per_sec(engine, pending, ops);
      (pending == 64 ? queues_report_only : queues).push_back(row);
    }
  }

  // --- end-to-end churn at 128x128 --------------------------------------
  const mesh::Geometry geom(128, 128);
  const std::size_t njobs = fast ? 400 : 3000;
  workload::StochasticParams params;
  params.load = 0.2;  // enough concurrency to keep a deep pending set
  des::Xoshiro256SS wl_rng(0xE2E);
  const std::vector<workload::Job> jobs =
      workload::generate_stochastic(params, geom, njobs, wl_rng);

  std::vector<EndToEndRow> e2e;
  e2e.push_back(run_end_to_end(/*legacy=*/true, jobs, geom));
  e2e.push_back(run_end_to_end(/*legacy=*/false, jobs, geom));

  // --- observability overhead at 128x128 --------------------------------
  // The zero-overhead-off budget, measured: alternate detached and
  // attached-counters-only runs of the identical churn (interleaved so a
  // frequency drift hits both arms equally), keep each arm's best. A
  // counters-only Recorder is what `--counters` costs at every hot site;
  // tracing/telemetry are opt-in allocations and deliberately excluded.
  const int overhead_rounds = fast ? 5 : 3;
  double best_detached = 0, best_attached = 0;
  obs::Recorder counters_rec;
  for (int r = 0; r < overhead_rounds; ++r) {
    best_detached = std::max(best_detached,
                             run_end_to_end(false, jobs, geom).events_per_sec);
    counters_rec.reset_run();
    const EndToEndRow on = run_end_to_end(false, jobs, geom, &counters_rec);
    best_attached = std::max(best_attached, on.events_per_sec);
  }
  const double overhead_frac = std::max(0.0, 1.0 - best_attached / best_detached);

  // --- report ------------------------------------------------------------
  std::cout << "queue hold-model churn (pop+push ops/s):\n";
  for (const auto* rows : {&queues_report_only, &queues})
    for (const QueueRow& r : *rows)
      std::cout << "  pending=" << r.pending << " " << r.impl << ": "
                << r.ops_per_sec << (rows == &queues ? "" : " (report-only)") << "\n";
  std::cout << "end-to-end DES churn (simulator events/s):\n";
  for (const EndToEndRow& r : e2e)
    std::cout << "  " << r.mesh << " " << r.allocator << " " << r.engine << ": "
              << r.events_per_sec << " (" << r.events << " events)\n";
  std::cout << "observability overhead (counters-only recorder, best of "
            << overhead_rounds << "):\n  detached " << best_detached
            << " ev/s, attached " << best_attached << " ev/s, overhead "
            << overhead_frac * 100.0 << "%\n";

  std::ofstream json(out_path);
  const auto write_queue_rows = [&json](const std::vector<QueueRow>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const QueueRow& r = rows[i];
      json << "    {\"pending\": " << r.pending << ", \"impl\": \"" << r.impl
           << "\", \"ops_per_sec\": " << r.ops_per_sec << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
  };
  json << "{\n  \"bench\": \"bench_event_engine\",\n  \"mode\": \""
       << (fast ? "fast" : "full") << "\",\n  \"queues\": [\n";
  write_queue_rows(queues);
  json << "  ],\n  \"queues_report_only\": [\n";
  write_queue_rows(queues_report_only);
  json << "  ],\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndRow& r = e2e[i];
    json << "    {\"mesh\": \"" << r.mesh << "\", \"allocator\": \""
         << r.allocator << "\", \"engine\": \"" << r.engine
         << "\", \"events_per_sec\": " << r.events_per_sec
         << ", \"events\": " << r.events << "}"
         << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"observability\": {\"mesh\": \"128x128\", "
       << "\"detached_events_per_sec\": " << best_detached
       << ", \"attached_events_per_sec\": " << best_attached
       << ", \"overhead_frac\": " << overhead_frac << "}\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (check > 0) {
    // Fail closed: the gate must find its row.
    const EndToEndRow* gated = nullptr;
    for (const EndToEndRow& r : e2e)
      if (r.mesh == "128x128" && r.engine == "calendar") gated = &r;
    if (gated == nullptr) {
      std::cerr << "FAIL: --check needs the 128x128 calendar row, which this "
                   "run did not produce\n";
      return 1;
    }
    if (gated->events_per_sec < check) {
      std::cerr << "FAIL: 128x128 calendar end-to-end churn is "
                << gated->events_per_sec << " events/s, required >= " << check
                << "\n";
      return 1;
    }
  }
  return 0;
}
