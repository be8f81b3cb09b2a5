// bench_alloc_scaling: allocator-query and allocator-churn throughput across
// mesh sizes, comparing the legacy per-event FreeSubmeshScan snapshot rebuild
// against the incremental bit-parallel OccupancyIndex. Emits machine-readable
// JSON (default BENCH_alloc.json) so the perf trajectory across PRs is
// measurable in CI.
//
//   bench_alloc_scaling [--fast] [--out=BENCH_alloc.json] [--check=5]
//
// --fast    shrink mesh set and iteration counts (CI smoke)
// --check=K exit nonzero unless the first_fit speedup at 64x64 is >= K
//
// Methodology: each mesh is churned to ~50 % occupancy with a deterministic
// request stream, then a fixed query set is timed through both paths. The
// legacy timing includes the FreeSubmeshScan construction, because that
// rebuild was the real per-event cost of the snapshot design.
//
// Meshes above 128x128 (256x256 and 512x512, both modes) time the index path
// and the allocator churn only: the legacy snapshot scan is quadratic-plus in
// the mesh side (its largest_free alone is O(capw·capl·W·L) per query) and
// would push a single row past the whole benchmark's budget. Those rows emit
// legacy_ops_per_sec = 0 and speedup = 0, which the bench gate already treats
// as "no legacy figure" — index_ops_per_sec and events_per_sec are still
// gated, so the large-mesh fast path can never silently regress.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/registry.hpp"
#include "core/figure_runner.hpp"
#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "mesh/free_submesh_scan.hpp"
#include "mesh/mesh_state.hpp"
#include "mesh/occupancy_index.hpp"

namespace {

using namespace procsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct QueryRow {
  std::string mesh;
  std::string query;
  double legacy_ops{0};
  double index_ops{0};
  [[nodiscard]] double speedup() const {
    return index_ops > 0 && legacy_ops > 0 ? index_ops / legacy_ops : 0;
  }
};

struct ChurnRow {
  std::string mesh;
  std::string allocator;
  double events_per_sec{0};
};

/// Churns `state`/`index` (kept in lock-step) to roughly half occupancy.
void fill_to_half(mesh::MeshState& state, mesh::OccupancyIndex& index,
                  des::Xoshiro256SS& rng) {
  const mesh::Geometry& g = state.geometry();
  const std::int32_t max_side = std::max(1, g.width() / 4);
  while (index.free_count() > g.nodes() / 2) {
    const auto a = static_cast<std::int32_t>(des::sample_uniform_int(rng, 1, max_side));
    const auto b = static_cast<std::int32_t>(des::sample_uniform_int(rng, 1, max_side));
    const auto s = index.first_fit(a, b);
    if (!s) break;
    state.allocate(*s);
    index.allocate(*s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string out_path = "BENCH_alloc.json";
  double check = 0;
  const auto usage_error = [](const std::string& msg) {
    std::cerr << "error: " << msg
              << "\nusage: bench_alloc_scaling [--fast] [--out=BENCH_alloc.json] [--check=K]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--check=", 8) == 0) {
      try {
        check = core::parse_real(argv[i], 8);
        if (check < 0) throw std::invalid_argument("--check must be >= 0");
      } catch (const std::invalid_argument& e) {
        return usage_error(e.what());
      }
    } else {
      return usage_error(std::string("unknown option ") + argv[i]);
    }
  }

  const std::vector<std::int32_t> sizes =
      fast ? std::vector<std::int32_t>{16, 32, 64, 256, 512}
           : std::vector<std::int32_t>{16, 32, 64, 96, 128, 256, 512};
  const int q_first_base = fast ? 300 : 2000;
  const int q_best_base = fast ? 100 : 500;
  const int q_largest_base = fast ? 30 : 100;
  const int churn_base = fast ? 500 : 3000;

  std::vector<QueryRow> queries;
  std::vector<ChurnRow> churn;
  std::int64_t sink = 0;  // consumes every query result: nothing optimizes away

  for (const std::int32_t m : sizes) {
    const mesh::Geometry g(m, m);
    const std::string mesh_label = std::to_string(m) + "x" + std::to_string(m);
    // Large meshes: index-only timing (see header comment) and 1/4 the
    // query/event counts — the absolute numbers stay statistically stable
    // because every operation is that much bigger.
    const bool large = m > 128;
    const int q_first = large ? q_first_base / 4 : q_first_base;
    const int q_best = large ? q_best_base / 4 : q_best_base;
    const int q_largest = large ? q_largest_base / 4 : q_largest_base;
    const int churn_events = large ? churn_base / 4 : churn_base;
    mesh::MeshState state(g);
    mesh::OccupancyIndex index(g);
    des::Xoshiro256SS rng(0xBE7C4 + static_cast<std::uint64_t>(m));
    fill_to_half(state, index, rng);

    // One fixed query set per kind, shared by both paths.
    const auto draw_queries = [&](int count, std::int32_t cap) {
      std::vector<std::pair<std::int32_t, std::int32_t>> qs;
      qs.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i)
        qs.emplace_back(
            static_cast<std::int32_t>(des::sample_uniform_int(rng, 1, cap)),
            static_cast<std::int32_t>(des::sample_uniform_int(rng, 1, cap)));
      return qs;
    };
    const auto timed = [&](const auto& body) {
      const auto t0 = Clock::now();
      body();
      return seconds_since(t0);
    };
    const auto use = [&sink](const std::optional<mesh::SubMesh>& s) {
      if (s) sink += s->x1 + s->y1;
    };

    {
      const auto qs = draw_queries(q_first, std::max(1, m / 2));
      QueryRow row{mesh_label, "first_fit", 0, 0};
      if (!large) {
        const double tl = timed([&] {
          for (const auto& [a, b] : qs)
            use(mesh::FreeSubmeshScan(state).first_fit(a, b));
        });
        row.legacy_ops = qs.size() / tl;
      }
      const double ti = timed([&] {
        for (const auto& [a, b] : qs) use(index.first_fit(a, b));
      });
      row.index_ops = qs.size() / ti;
      queries.push_back(row);
    }
    {
      const auto qs = draw_queries(q_best, std::max(1, m / 2));
      QueryRow row{mesh_label, "best_fit", 0, 0};
      if (!large) {
        const double tl = timed([&] {
          for (const auto& [a, b] : qs)
            use(mesh::FreeSubmeshScan(state).best_fit(a, b));
        });
        row.legacy_ops = qs.size() / tl;
      }
      const double ti = timed([&] {
        for (const auto& [a, b] : qs) use(index.best_fit(a, b));
      });
      row.index_ops = qs.size() / ti;
      queries.push_back(row);
    }
    {
      // Side caps stay modest: the legacy largest_free is O(capw·capl·W·L)
      // per query and would dominate the whole benchmark otherwise.
      const auto qs = draw_queries(q_largest, std::min(m, 16));
      QueryRow row{mesh_label, "largest_free", 0, 0};
      if (!large) {
        const double tl = timed([&] {
          for (const auto& [a, b] : qs)
            use(mesh::FreeSubmeshScan(state).largest_free(a, b));
        });
        row.legacy_ops = qs.size() / tl;
      }
      const double ti = timed([&] {
        for (const auto& [a, b] : qs) use(index.largest_free(a, b));
      });
      row.index_ops = qs.size() / ti;
      queries.push_back(row);
    }

    // End-to-end allocator churn (alloc + release events) per strategy.
    for (const std::string& name : alloc::known_allocators()) {
      const auto allocator = alloc::make_allocator(name, g, {.seed = 99});
      des::Xoshiro256SS churn_rng(0xC0FFEE + static_cast<std::uint64_t>(m));
      std::vector<alloc::Placement> live;
      const std::int32_t max_side = std::max(1, m / 4);
      const double t = timed([&] {
        for (int e = 0; e < churn_events; ++e) {
          const bool do_alloc = live.empty() || des::sample_bernoulli(churn_rng, 0.6);
          if (do_alloc) {
            const auto a = static_cast<std::int32_t>(
                des::sample_uniform_int(churn_rng, 1, max_side));
            const auto b = static_cast<std::int32_t>(
                des::sample_uniform_int(churn_rng, 1, max_side));
            const alloc::Request req{a, b, a * b};
            if (auto p = allocator->allocate(req)) {
              live.push_back(std::move(*p));
              continue;
            }
          }
          if (!live.empty()) {
            const auto i = static_cast<std::size_t>(des::sample_uniform_int(
                churn_rng, 0, static_cast<std::int64_t>(live.size()) - 1));
            allocator->release(live[i]);
            live[i] = std::move(live.back());
            live.pop_back();
          }
        }
      });
      churn.push_back(ChurnRow{mesh_label, name, churn_events / t});
    }
  }

  // Human-readable summary.
  std::cout << "query speedups (index vs legacy snapshot scan):\n";
  for (const QueryRow& r : queries)
    std::cout << "  " << r.mesh << " " << r.query << ": " << r.legacy_ops
              << " -> " << r.index_ops << " ops/s (" << r.speedup() << "x)\n";
  std::cout << "allocator churn (alloc+release events/s):\n";
  for (const ChurnRow& r : churn)
    std::cout << "  " << r.mesh << " " << r.allocator << ": " << r.events_per_sec
              << "\n";
  std::cout << "(sink=" << sink << ")\n";

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"bench_alloc_scaling\",\n  \"mode\": \""
       << (fast ? "fast" : "full") << "\",\n  \"queries\": [\n";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryRow& r = queries[i];
    json << "    {\"mesh\": \"" << r.mesh << "\", \"query\": \"" << r.query
         << "\", \"legacy_ops_per_sec\": " << r.legacy_ops
         << ", \"index_ops_per_sec\": " << r.index_ops
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < queries.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"allocators\": [\n";
  for (std::size_t i = 0; i < churn.size(); ++i) {
    const ChurnRow& r = churn[i];
    json << "    {\"mesh\": \"" << r.mesh << "\", \"allocator\": \"" << r.allocator
         << "\", \"events_per_sec\": " << r.events_per_sec << "}"
         << (i + 1 < churn.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";

  if (check > 0) {
    // Fail closed: a gate that can't find its row must not pass vacuously.
    const QueryRow* gated = nullptr;
    for (const QueryRow& r : queries)
      if (r.mesh == "64x64" && r.query == "first_fit") gated = &r;
    if (gated == nullptr) {
      std::cerr << "FAIL: --check needs the 64x64 first_fit row, which this "
                   "run did not produce\n";
      return 1;
    }
    if (gated->speedup() < check) {
      std::cerr << "FAIL: first_fit speedup at 64x64 is " << gated->speedup()
                << "x, required >= " << check << "x\n";
      return 1;
    }
  }
  return 0;
}
