// bench_workload: job-generation throughput of every workload source kind on
// a 64x64 mesh, timed through the streaming interface (reset + drain). Emits
// machine-readable JSON (default BENCH_workload.json) so the workload layer
// joins the perf trajectory alongside BENCH_alloc.json.
//
//   bench_workload [--fast] [--out=BENCH_workload.json] [--swf=tests/data/mini.swf]
//
// --fast shrinks the drained job counts (CI smoke). The SWF row replays the
// given file (looping `reset` + drain until the job budget is spent); it is
// skipped with a notice when the file cannot be opened, so the bench also
// runs from build trees without the fixture checked out.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mesh/coord.hpp"
#include "workload/source_registry.hpp"

namespace {

using namespace procsim;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string source;
  std::uint64_t jobs{0};
  double jobs_per_sec{0};
};

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string out_path = "BENCH_workload.json";
  std::string swf_path = "tests/data/mini.swf";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--swf=", 6) == 0) {
      swf_path = argv[i] + 6;
    } else {
      std::cerr << "bench_workload: unknown option " << argv[i]
                << " (usage: bench_workload [--fast] [--out=PATH] [--swf=PATH])\n";
      return 2;
    }
  }

  const mesh::Geometry geom(64, 64);
  const std::uint64_t budget = fast ? 20'000 : 200'000;

  // One spec per source kind; `jobs` pins the per-reset stream length where
  // the kind supports it, so a drain has a defined end.
  std::vector<std::string> specs = {
      "uniform;jobs=" + std::to_string(budget),
      "exponential;jobs=" + std::to_string(budget),
      "real;jobs=" + std::to_string(fast ? 5'000 : 10'658),
      "saturation;n=" + std::to_string(budget),
      "bursty;jobs=" + std::to_string(budget),
      "swf:" + swf_path,
  };

  std::vector<Row> rows;
  std::int64_t sink = 0;  // consumes every job: nothing optimizes away
  for (const std::string& spec : specs) {
    std::unique_ptr<workload::Source> src;
    try {
      src = workload::make_source(spec, geom);
    } catch (const std::exception& e) {
      std::cerr << "skipping " << spec << ": " << e.what() << "\n";
      continue;
    }
    Row row;
    row.source = src->name();
    const auto t0 = Clock::now();
    std::uint64_t seed = 1;
    while (row.jobs < budget) {
      src->reset(seed++);  // short streams (the SWF fixture) loop until spent
      std::uint64_t drained = 0;
      while (auto job = src->next_job()) {
        sink += job->processors + job->total_messages();
        ++row.jobs;
        ++drained;
        if (row.jobs >= budget) break;
      }
      if (drained == 0) break;  // empty stream: avoid spinning forever
    }
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    row.jobs_per_sec = dt > 0 ? static_cast<double>(row.jobs) / dt : 0;
    rows.push_back(row);
  }

  std::cout << "workload source throughput (64x64, streaming reset+drain):\n";
  for (const Row& r : rows)
    std::cout << "  " << r.source << ": " << r.jobs_per_sec << " jobs/s ("
              << r.jobs << " jobs)\n";
  std::cout << "(sink=" << sink << ")\n";

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"bench_workload\",\n  \"mode\": \""
       << (fast ? "fast" : "full") << "\",\n  \"mesh\": \"64x64\",\n  \"sources\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"source\": \"" << r.source << "\", \"jobs\": " << r.jobs
         << ", \"jobs_per_sec\": " << r.jobs_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
