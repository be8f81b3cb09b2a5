// mesh_animation: watch a 16×22 mesh fill and fragment under an allocation
// strategy. Jobs arrive stochastically, hold their processors for an
// exponential time, and depart; the mesh occupancy is printed as ASCII
// frames (one letter per job). Fragmentation is directly visible: GABL keeps
// rectangular islands, MBS scatters buddies, Paging compacts toward the
// first row.
//
//   ./mesh_animation [gabl|paging|mbs|random] [frames]

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"
#include "des/distributions.hpp"
#include "des/simulator.hpp"
#include "workload/shape.hpp"

namespace {

using namespace procsim;

struct LiveJob {
  alloc::Placement placement;
  char letter;
};

void print_frame(const alloc::Allocator& allocator,
                 const std::map<std::uint64_t, LiveJob>& live, double now,
                 std::size_t queue_len) {
  const mesh::Geometry& g = allocator.geometry();
  std::vector<char> grid(static_cast<std::size_t>(g.nodes()), '.');
  for (const auto& [id, job] : live)
    for (const mesh::SubMesh& b : job.placement.blocks)
      for (std::int32_t y = b.y1; y <= b.y2; ++y)
        for (std::int32_t x = b.x1; x <= b.x2; ++x)
          grid[static_cast<std::size_t>(g.id(mesh::Coord{x, y}))] = job.letter;

  std::printf("t=%-9.0f busy=%d/%d jobs=%zu queued=%zu\n", now,
              g.nodes() - allocator.free_processors(), g.nodes(), live.size(),
              queue_len);
  for (std::int32_t y = g.length() - 1; y >= 0; --y) {
    for (std::int32_t x = 0; x < g.width(); ++x)
      std::printf("%c", grid[static_cast<std::size_t>(g.id(mesh::Coord{x, y}))]);
    std::printf("\n");
  }
  std::printf("\n");
}

/// The strategy a command-line name selects; throws on any other name.
core::AllocatorSpec animated_allocator(const std::string& name) {
  if (name == "gabl") return core::AllocatorSpec{"GABL"};
  if (name == "paging") return core::AllocatorSpec{"Paging(0)"};
  if (name == "mbs") return core::AllocatorSpec{"MBS"};
  if (name == "random") return core::AllocatorSpec{"Random"};
  throw std::invalid_argument("unknown strategy '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  core::AllocatorSpec spec;  // defaults to GABL
  int frames = 6;
  try {
    if (argc > 3) throw std::invalid_argument("too many arguments");
    if (argc > 1) spec = animated_allocator(argv[1]);
    if (argc > 2) {
      const std::uint64_t n = core::parse_count(argv[2], 0);
      if (n == 0 || n > 1000) throw std::invalid_argument("frames must be in 1..1000");
      frames = static_cast<int>(n);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "mesh_animation: %s (usage: mesh_animation [gabl|paging|mbs|random] "
                 "[frames])\n",
                 e.what());
    return 2;
  }

  const mesh::Geometry geom(16, 22);
  const auto allocator = core::make_allocator(spec, geom, 7);
  des::Simulator sim;
  des::Xoshiro256SS rng(7);

  std::printf("strategy: %s — '.' free, letters = jobs\n\n", allocator->name().c_str());

  std::map<std::uint64_t, LiveJob> live;
  std::vector<std::pair<alloc::Request, std::uint64_t>> queue;  // FCFS
  std::uint64_t next_id = 0;
  char next_letter = 'A';

  std::function<void()> try_start;  // self-referential: departures re-enter
  try_start = [&] {
    while (!queue.empty()) {
      const auto [req, id] = queue.front();
      auto placement = allocator->allocate(req);
      if (!placement) break;
      queue.erase(queue.begin());
      live.emplace(id, LiveJob{std::move(*placement), next_letter});
      next_letter = next_letter == 'Z' ? 'A' : static_cast<char>(next_letter + 1);
      const double hold = des::sample_exponential(rng, 600.0);
      const std::uint64_t jid = id;
      sim.schedule_in(hold, [&, jid] {
        allocator->release(live.at(jid).placement);
        live.erase(jid);
        try_start();  // departures unblock the FCFS head
      });
    }
  };

  // Poisson arrivals of near-square jobs sized like the Paragon trace.
  std::function<void()> arrive = [&] {
    const auto p = static_cast<std::int32_t>(des::sample_uniform_int(rng, 2, 96));
    const auto [w, l] = workload::shape_for_processors(p, geom);
    queue.emplace_back(alloc::Request{w, l, p}, next_id++);
    try_start();
    sim.schedule_in(des::sample_exponential(rng, 120.0), arrive);
  };
  sim.schedule_in(0, arrive);

  const double frame_dt = 1500;
  for (int f = 1; f <= frames; ++f) {
    const double at = f * frame_dt;
    sim.schedule_at(at, [&, at] { print_frame(*allocator, live, at, queue.size()); });
  }
  sim.run_until(frames * frame_dt + 1);
  return 0;
}
