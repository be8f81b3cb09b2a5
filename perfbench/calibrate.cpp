#include "calibrate.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <ctime>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kSide = 40;                  // occupancy grid is kSide x kSide
constexpr int kMaxJobSide = 12;
constexpr std::uint32_t kArrivals = 600;   // jobs per unit
constexpr std::size_t kHeapCap = 4096;
constexpr std::size_t kTableSize = 4096;   // > kArrivals: no rehash within a unit
constexpr std::size_t kQueueCap = 2048;    // > kArrivals

struct Event {
  double time;
  std::uint32_t job;
  bool completion;
};

struct Job {
  std::uint32_t id;  // 0 = empty slot, kTombstone = erased
  std::uint8_t x, y, w, l;
  double service;
};

constexpr std::uint32_t kTombstone = 0xFFFFFFFFu;

/// Every buffer the unit touches, allocated once.
struct State {
  std::array<Event, kHeapCap> heap;
  std::size_t heap_n;
  std::array<std::uint8_t, kSide * kSide> grid;
  std::array<Job, kTableSize> table;
  std::array<std::uint32_t, kQueueCap> fifo;
  std::size_t head, tail;
  std::uint64_t rng;
};

State& state() {
  static State* s = new State();
  return *s;
}

std::uint64_t next_u64(State& s) {
  s.rng ^= s.rng >> 12;
  s.rng ^= s.rng << 25;
  s.rng ^= s.rng >> 27;
  return s.rng * 0x2545F4914F6CDD1DULL;
}

double exponential(State& s, double mean) {
  const double u = static_cast<double>((next_u64(s) >> 11) + 1) * 0x1.0p-53;
  return -mean * std::log(u);
}

bool earlier(const Event& a, const Event& b) {
  return a.time < b.time || (a.time == b.time && a.job < b.job);
}

void push(State& s, Event e) {
  std::size_t i = s.heap_n++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, s.heap[parent])) break;
    s.heap[i] = s.heap[parent];
    i = parent;
  }
  s.heap[i] = e;
}

Event pop(State& s) {
  const Event top = s.heap[0];
  const Event last = s.heap[--s.heap_n];
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= s.heap_n) break;
    if (child + 1 < s.heap_n && earlier(s.heap[child + 1], s.heap[child])) ++child;
    if (!earlier(s.heap[child], last)) break;
    s.heap[i] = s.heap[child];
    i = child;
  }
  s.heap[i] = last;
  return top;
}

Job* find(State& s, std::uint32_t id) {
  for (std::size_t i = id & (kTableSize - 1);; i = (i + 1) & (kTableSize - 1)) {
    if (s.table[i].id == id) return &s.table[i];
    if (s.table[i].id == 0) return nullptr;
  }
}

void insert(State& s, const Job& job) {
  std::size_t i = job.id & (kTableSize - 1);
  while (s.table[i].id != 0 && s.table[i].id != kTombstone) i = (i + 1) & (kTableSize - 1);
  s.table[i] = job;
}

/// First free w x l submesh in row-major order of its base.
bool first_fit(const State& s, int w, int l, int& bx, int& by) {
  for (int y = 0; y + l <= kSide; ++y) {
    for (int x = 0; x + w <= kSide; ++x) {
      bool free = true;
      for (int j = 0; j < l && free; ++j)
        for (int i = 0; i < w; ++i)
          if (s.grid[(y + j) * kSide + x + i]) {
            free = false;
            break;
          }
      if (free) {
        bx = x;
        by = y;
        return true;
      }
    }
  }
  return false;
}

void mark(State& s, const Job& job, std::uint8_t v) {
  for (int j = 0; j < job.l; ++j)
    for (int i = 0; i < job.w; ++i) s.grid[(job.y + j) * kSide + job.x + i] = v;
}

/// FCFS: starts waiting jobs from the head of the queue while they fit.
void schedule(State& s, double now, std::uint64_t& sum) {
  while (s.head != s.tail) {
    Job* job = find(s, s.fifo[s.head]);
    int x = 0;
    int y = 0;
    if (!first_fit(s, job->w, job->l, x, y)) return;
    job->x = static_cast<std::uint8_t>(x);
    job->y = static_cast<std::uint8_t>(y);
    mark(s, *job, 1);
    push(s, {now + job->service, job->id, true});
    sum += static_cast<std::uint64_t>(y * kSide + x);
    ++s.head;
  }
}

}  // namespace

std::uint64_t calibration_unit() {
  State& s = state();
  s.heap_n = 0;
  s.grid.fill(0);
  s.table.fill(Job{});
  s.head = s.tail = 0;
  s.rng = 0x9E3779B97F4A7C15ULL;

  std::uint64_t sum = 0;
  push(s, {0.0, 1, false});
  while (s.heap_n > 0) {
    const Event e = pop(s);
    if (e.completion) {
      Job* job = find(s, e.job);
      mark(s, *job, 0);
      job->id = kTombstone;
    } else {
      const int w = 1 + static_cast<int>(next_u64(s) % kMaxJobSide);
      const int l = 1 + static_cast<int>(next_u64(s) % kMaxJobSide);
      insert(s, {e.job, 0, 0, static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(l),
                 exponential(s, 10.0)});
      s.fifo[s.tail++] = e.job;
      if (e.job < kArrivals) push(s, {e.time + exponential(s, 0.8), e.job + 1, false});
    }
    schedule(s, e.time, sum);
  }
  return sum;
}

void Calibrator::run_unit() {
  timespec c0{};
  timespec c1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t sum = calibration_unit();
  const auto t1 = std::chrono::steady_clock::now();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
  pass_.wall_s += std::chrono::duration<double>(t1 - t0).count();
  pass_.cpu_s += static_cast<double>(c1.tv_sec - c0.tv_sec) +
                 static_cast<double>(c1.tv_nsec - c0.tv_nsec) * 1e-9;
  ++pass_.units;
  if (sum != checksum_) throw std::logic_error("calibration unit is not deterministic");
}

void Calibrator::follow(double measured_s) {
  owed_s_ += kCalibrationShare * measured_s;
  while (pass_.wall_s < owed_s_) run_unit();
}

HostSpeed Calibrator::take() {
  while (pass_.units < kMinUnitsPerPass) run_unit();
  const HostSpeed out = pass_;
  pass_ = {};
  owed_s_ = 0;
  return out;
}

}  // namespace perfbench
