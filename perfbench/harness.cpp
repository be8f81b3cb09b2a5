// perfbench harness: runs one benchmark workload for a measured time and
// prints its metrics. Driven by run.py, which builds this program, makes the
// workload's input files and adds host facts; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --digests FILE [--swf PATH --pinned-swf PATH] [--spans PATH]
//   perfbench --pin --workload NAME --swf PATH   (prints pinned digest lines)
//
// Every run first replays one pass at the pinned seed and compares each
// replication's digest with the pinned list, then runs passes until
// --seconds have passed; pass k uses the pass seed substream_seed(--seed, k).
// With --trace 1 every traced pass (layer decorators attached) repeats an
// untraced pass and must reproduce its digests exactly. The last stdout
// line is one JSON object: correct, attempted, failed, metrics.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "des/rng.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Op;
using perfbench::PassResult;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;      // per measured kind (untraced / traced)
constexpr double kHardLimitS = 140;        // start no pass after this
constexpr std::size_t kSpanCap = 1 << 18;  // spans written out per traced run

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n";
  std::exit(2);
}

struct Options {
  std::string workload;
  std::uint64_t seed{perfbench::kPinnedSeed};
  double seconds{10};
  bool trace{false};
  bool pin{false};
  std::string digests;
  std::string swf;
  std::string pinned_swf;
  std::string spans;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage_error("bad " + flag + " '" + v + "'");
  return x;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      o.pin = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--digests") {
      o.digests = v;
    } else if (flag == "--swf") {
      o.swf = v;
    } else if (flag == "--pinned-swf") {
      o.pinned_swf = v;
    } else if (flag == "--spans") {
      o.spans = v;
    } else {
      usage_error("unknown option '" + flag + "'");
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    usage_error("unknown --workload '" + o.workload + "'");
  if (o.seconds < 1) usage_error("--seconds must be at least 1");
  if (!o.pin && o.digests.empty()) usage_error("--digests FILE is required");
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Pinned digests of `workload`, in replication order, from digests.txt
/// (lines: workload replication-index hex-digest; '#' starts a comment).
std::vector<std::uint64_t> load_pinned(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read digests file '" + path + "'");
  std::vector<std::uint64_t> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::size_t index = 0;
    std::string digest;
    if (!(fields >> name >> index >> digest)) usage_error("malformed digests line: " + line);
    if (name != workload) continue;
    if (index != out.size()) usage_error("digests for " + workload + " out of order");
    out.push_back(std::strtoull(digest.c_str(), nullptr, 16));
  }
  return out;
}

/// Positions where two digest lists differ, counting a missing entry.
std::uint64_t mismatches(const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i)
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++bad;
  return bad;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Pass, typename F>
double median_over(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

/// The highest whole percentile that leaves at least ten samples above it
/// (nearest rank), with the percentile used. Needs more than ten samples.
struct Tail {
  double value{0};
  int percentile{0};
  std::size_t samples{0};
};

template <typename T>
Tail tail_of(std::vector<T> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= 10) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.percentile = static_cast<int>((100 * (n - 10)) / n);
  const std::size_t rank = std::max<std::size_t>(
      1, (static_cast<std::size_t>(t.percentile) * n + 99) / 100);
  t.value = static_cast<double>(v[rank - 1]);
  return t;
}

template <typename T>
double p50_of(std::vector<T> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[(v.size() - 1) / 2]);
}

/// The time-weighted median: half of the total lies in samples at most
/// this large. Unlike the plain median it stays put when the samples form
/// two equal-sized modes (FirstFit and GABL replications on churn_128x128).
double weighted_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  double total = 0;
  for (const double x : v) total += x;
  double sum = 0;
  for (const double x : v) {
    sum += x;
    if (sum >= 0.5 * total) return x;
  }
  return 0;
}

/// Reference seconds per host second in pass p: host times of the pass
/// times this are what a host running one calibration unit in exactly
/// kReferenceUnitS would have measured (see calibrate.hpp).
double wall_scale(const PassResult& p) {
  return perfbench::kReferenceUnitS / p.host.unit_wall_s();
}
double cpu_scale(const PassResult& p) {
  return perfbench::kReferenceUnitS / p.host.unit_cpu_s();
}

/// Set-up time of one pass in reference seconds, robust to a slow pass:
/// each replication's set-up time (keyed by cell and replication index) is
/// the median over the passes that ran it, summed over the first pass's
/// replications.
double setup_of(const std::vector<PassResult>& passes) {
  double total = 0;
  const auto& cells = passes.front().rep_setup_s;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t r = 0; r < cells[c].size(); ++r) {
      std::vector<double> v;
      for (const PassResult& p : passes)
        if (c < p.rep_setup_s.size() && r < p.rep_setup_s[c].size())
          v.push_back(p.rep_setup_s[c][r] * wall_scale(p));
      total += median(v);
    }
  }
  return total;
}

/// Peak resident set of this process image. (getrusage's ru_maxrss would
/// also count the parent's peak, which survives exec.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Replications attempted and failed, and what failed.
struct Verdict {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;

  void add(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad != 0) problems.push_back(std::to_string(bad) + " of " + std::to_string(n) + " " + what);
  }
};

/// Metrics in print order, plus notes printed beside them.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// One traced pass and its decorator totals.
struct TracedPass {
  PassResult pass;
  std::array<double, perfbench::kLayers> self_s{};
  double residual_s{0};
  std::unique_ptr<perfbench::Tracer> tracer;
  procsim::obs::Counters counters;
};

/// Replays the pinned-seed pass and checks every replication's digest.
void check_pinned(const Options& o, Verdict& verdict) {
  const std::vector<std::uint64_t> pinned = load_pinned(o.digests, o.workload);
  const perfbench::WorkloadDef w = perfbench::make_workload(
      o.workload, perfbench::kPinnedSeed, o.pinned_swf.empty() ? o.swf : o.pinned_swf);
  const PassResult pass = perfbench::run_pass(w, {});
  verdict.add(std::max(pass.digests.size(), pinned.size()), mismatches(pass.digests, pinned),
              "replications differ from the pinned digests");
}

/// Runs `w` through the layer decorators, with a counters-only recorder,
/// and checks the span accounting: no layer self time is negative and
/// together they never exceed the traced wall time (the spans lie inside
/// the timed SystemSim::run calls).
TracedPass run_traced(const perfbench::WorkloadDef& w, bool keep_spans, Verdict& verdict) {
  TracedPass t;
  t.tracer = std::make_unique<perfbench::Tracer>(keep_spans ? kSpanCap : 0);
  procsim::obs::Recorder recorder;
  t.pass = perfbench::run_pass(w, {t.tracer.get(), &recorder});
  t.counters = recorder.counters();
  double self_sum = 0;
  for (std::size_t l = 0; l < perfbench::kLayers; ++l) {
    t.self_s[l] = t.tracer->self_s(static_cast<Layer>(l));
    self_sum += t.self_s[l];
    if (t.self_s[l] < 0)
      verdict.problems.push_back(std::string("negative self time for layer ") +
                                 perfbench::layer_name(static_cast<Layer>(l)));
  }
  t.residual_s = t.pass.run_s - self_sum;
  if (t.residual_s < 0) verdict.problems.push_back("layer self times exceed the traced wall time");
  return t;
}

Report end_to_end(const std::vector<PassResult>& plain) {
  // Replication statistics are taken within each pass, where the
  // replications are distinct work, and the median over passes is reported.
  std::vector<double> rep_p50;
  std::vector<double> rep_tail;
  Tail tail;
  for (const PassResult& p : plain) {
    std::vector<double> rep_ms;
    for (const double s : p.rep_s) rep_ms.push_back(s * wall_scale(p) * 1e3);
    rep_p50.push_back(weighted_median(rep_ms));
    tail = tail_of(rep_ms);
    rep_tail.push_back(tail.value);
  }
  Report r;
  r.add("wall_s",
        median_over(plain, [](const PassResult& p) { return p.run_s * wall_scale(p); }), "s");
  r.add("cpu_s",
        median_over(plain, [](const PassResult& p) { return p.run_cpu_s * cpu_scale(p); }), "s");
  r.add("jobs_per_s", median_over(plain, [](const PassResult& p) {
          return static_cast<double>(p.completions) / (p.run_s * wall_scale(p));
        }),
        "1/s");
  r.add("setup_s", setup_of(plain), "s");
  r.add("rep_ms_p50", median(rep_p50), "ms");
  r.add("rep_ms_tail", median(rep_tail), "ms");
  r.add("peak_rss_mb", peak_rss_mib(), "MiB");
  r.notes.push_back("rep_ms_tail is p" + std::to_string(tail.percentile) + " of the " +
                    std::to_string(tail.samples) + " replications of a pass");
  char host[160];
  std::snprintf(host, sizeof host,
                "times are in reference seconds; unscaled host medians: wall_s %.4f s, "
                "cpu_s %.4f s, calibration unit %.4f ms (reference %.4g ms)",
                median_over(plain, [](const PassResult& p) { return p.run_s; }),
                median_over(plain, [](const PassResult& p) { return p.run_cpu_s; }),
                median_over(plain, [](const PassResult& p) { return 1e3 * p.host.unit_wall_s(); }),
                perfbench::kReferenceUnitS * 1e3);
  r.notes.push_back(host);
  r.notes.push_back("passes " + std::to_string(plain.size()) + ", replications per pass " +
                    std::to_string(plain.front().digests.size()) + ", completions per pass " +
                    std::to_string(plain.front().completions));
  return r;
}

Report per_layer(const std::vector<PassResult>& plain, const std::vector<TracedPass>& traced) {
  // Counts come from the first traced pass (its untraced twin for the
  // library's RunMetrics tallies), times are medians over traced passes,
  // and per-call latencies pool every call of every traced pass.
  const TracedPass& t0 = traced.front();
  const PassResult& p0 = plain.front();
  const auto self_med = [&traced](Layer l) {
    return median_over(traced, [l](const TracedPass& t) {
      return t.self_s[static_cast<std::size_t>(l)];
    });
  };
  const auto share_med = [&traced](Layer l) {
    return median_over(traced, [l](const TracedPass& t) {
      return t.self_s[static_cast<std::size_t>(l)] / t.pass.run_s;
    });
  };
  const auto pooled_us = [&traced](Op op) {
    std::vector<float> v;
    for (const TracedPass& t : traced) {
      const auto& d = t.tracer->durations_ns(op);
      v.insert(v.end(), d.begin(), d.end());
    }
    for (float& x : v) x *= 1e-3f;
    return v;
  };
  const auto calls = [&t0](Op op) { return static_cast<double>(t0.tracer->calls(op)); };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const std::vector<float> allocate_us = pooled_us(Op::kAllocate);
  const std::vector<float> select_us = pooled_us(Op::kSelect);
  const Tail allocate_tail = tail_of(allocate_us);
  const Tail select_tail = tail_of(select_us);
  const auto& index = t0.pass.index_stats;
  std::vector<double> overhead;  // traced pass k over its untraced twin
  for (std::size_t k = 0; k < traced.size(); ++k)
    overhead.push_back(traced[k].pass.run_s / plain[k].run_s - 1);

  Report r;
  r.add("alloc.self_s", self_med(Layer::kAlloc), "s");
  r.add("alloc.share", share_med(Layer::kAlloc), "ratio");
  r.add("alloc.allocate_calls", calls(Op::kAllocate), "count");
  r.add("alloc.allocate_fail_ratio",
        ratio(count(t0.tracer->alloc_failures), calls(Op::kAllocate)), "ratio");
  r.add("alloc.allocate_us_p50", p50_of(allocate_us), "us");
  r.add("alloc.allocate_us_tail", allocate_tail.value, "us");
  r.add("alloc.probe_calls", calls(Op::kProbe), "count");
  r.add("alloc.probe_us_p50", p50_of(pooled_us(Op::kProbe)), "us");
  r.add("alloc.release_us_p50", p50_of(pooled_us(Op::kRelease)), "us");
  r.add("mesh.frontier_passes", count(index.frontier_passes), "count");
  r.add("mesh.descent_queries", count(index.descent_queries), "count");
  r.add("mesh.first_fit_queries", count(index.first_fit_queries), "count");
  r.add("mesh.best_fit_queries", count(index.best_fit_queries), "count");
  r.add("sched.self_s", self_med(Layer::kSched), "s");
  r.add("sched.share", share_med(Layer::kSched), "ratio");
  r.add("sched.select_calls", calls(Op::kSelect), "count");
  r.add("sched.select_us_p50", p50_of(select_us), "us");
  r.add("sched.select_us_tail", select_tail.value, "us");
  r.add("sched.probes_per_select", ratio(calls(Op::kProbe), calls(Op::kSelect)), "ratio");
  r.add("sched.start_ratio", ratio(calls(Op::kTake), count(t0.tracer->nominations)), "ratio");
  r.add("des.events", count(p0.events), "count");
  r.add("des.ns_per_event", median_over(plain, [](const PassResult& p) {
          return p.run_s * wall_scale(p) / static_cast<double>(p.events) * 1e9;
        }),
        "ns");
  r.add("des.calendar_rebuckets", count(t0.counters.calendar_rebuckets), "count");
  r.add("core.residual_s", median_over(traced, [](const TracedPass& t) { return t.residual_s; }),
        "s");
  r.add("core.residual_share", median_over(traced, [](const TracedPass& t) {
          return t.residual_s / t.pass.run_s;
        }),
        "ratio");
  r.add("network.packets", count(p0.packets), "count");
  r.add("network.channel_blocks", count(t0.counters.channel_blocks), "count");
  r.add("network.runs_batched", count(t0.counters.net_runs_batched), "count");
  r.add("network.truncations", count(t0.counters.net_truncations), "count");
  r.add("workload.setup_s",
        median_over(traced, [](const TracedPass& t) { return t.pass.source_setup_s; }), "s");
  r.add("workload.self_s", self_med(Layer::kWorkload), "s");
  r.add("workload.next_job_calls", calls(Op::kNextJob), "count");
  r.add("sink.self_s", self_med(Layer::kSink), "s");
  r.add("sink.on_job_calls", calls(Op::kOnJob), "count");
  r.add("trace.mirror_s", self_med(Layer::kTrace), "s");
  r.add("stats.replications", count(p0.digests.size()), "count");
  r.add("trace.overhead", median(overhead), "ratio");
  r.add("host.wall_s", median_over(plain, [](const PassResult& p) { return p.run_s; }), "s");
  r.add("host.unit_us", median_over(plain, [](const PassResult& p) {
          return p.host.unit_wall_s() * 1e6;
        }),
        "us");
  r.notes.push_back("alloc.allocate_us_tail is p" + std::to_string(allocate_tail.percentile) +
                    " of " + std::to_string(allocate_tail.samples) + " calls");
  r.notes.push_back("sched.select_us_tail is p" + std::to_string(select_tail.percentile) +
                    " of " + std::to_string(select_tail.samples) + " calls");
  r.notes.push_back("passes " + std::to_string(plain.size()) + " untraced + " +
                    std::to_string(traced.size()) + " traced");
  return r;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The human-readable table, then the result JSON as the last line.
void print(const Report& r, const Verdict& v) {
  const double fail_frac =
      v.attempted ? static_cast<double>(v.failed) / static_cast<double>(v.attempted) : 1.0;
  for (const auto& [name, vu] : r.metrics)
    std::printf("%-28s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  std::printf("%-28s %16.6g %s\n", "fail_frac", fail_frac, "ratio");
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& p : v.problems) std::printf("# FAIL: %s\n", p.c_str());

  std::ostringstream json;
  json << "{\"correct\": " << (v.failed == 0 && v.problems.empty() ? "true" : "false")
       << ", \"attempted\": " << v.attempted << ", \"failed\": " << v.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    json << (i ? ", " : "") << '"' << name << "\": {\"value\": " << json_number(vu.first)
         << ", \"unit\": \"" << vu.second << "\"}";
  }
  json << "}}";
  std::fflush(stdout);
  std::cout << json.str() << std::endl;
}

int pin_main(const Options& o) {
  const perfbench::WorkloadDef w =
      perfbench::make_workload(o.workload, perfbench::kPinnedSeed, o.swf);
  const PassResult pass = perfbench::run_pass(w, {});
  if (pass.failed != 0) {
    std::cerr << "perfbench: " << pass.failed << " replications threw while pinning\n";
    return 1;
  }
  for (std::size_t i = 0; i < pass.digests.size(); ++i)
    std::cout << o.workload << ' ' << i << ' ' << hex(pass.digests[i]) << '\n';
  return 0;
}

int bench_main(const Options& o) {
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Verdict verdict;
  check_pinned(o, verdict);

  // Pass k runs at the pass seed substream_seed(--seed, k), so the medians
  // average over independent job streams. Traced pass k repeats untraced
  // pass k with the decorators attached and must reproduce its digests.
  const auto workload_for = [&o](std::size_t k) {
    return perfbench::make_workload(o.workload, procsim::des::substream_seed(o.seed, k), o.swf);
  };
  std::vector<PassResult> plain;
  std::vector<TracedPass> traced;
  perfbench::Calibrator calibrator;
  for (;;) {
    const bool enough = plain.size() >= kMinPasses && (!o.trace || traced.size() >= kMinPasses);
    if (enough && elapsed() >= o.seconds) break;
    if (elapsed() >= kHardLimitS && !plain.empty() && (!o.trace || !traced.empty())) break;
    if (o.trace && traced.size() < plain.size()) {
      const std::size_t k = traced.size();
      traced.push_back(run_traced(workload_for(k), k == 0, verdict));
      verdict.add(traced.back().pass.digests.size(),
                  mismatches(traced.back().pass.digests, plain[k].digests),
                  "replications differ between a traced pass and its untraced twin");
    } else {
      plain.push_back(perfbench::run_pass(workload_for(plain.size()), {}, &calibrator));
      verdict.add(plain.back().digests.size(), plain.back().failed, "replications threw");
    }
  }

  if (!o.trace) {
    print(end_to_end(plain), verdict);
  } else {
    if (!o.spans.empty()) {
      std::ofstream spans(o.spans);
      if (!spans) usage_error("cannot write spans file '" + o.spans + "'");
      traced.front().tracer->write_spans(spans);
    }
    print(per_layer(plain, traced), verdict);
  }
  return verdict.failed == 0 && verdict.problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A benchmark of an unoptimized or assert-enabled build measures the
  // wrong program.
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to run an NDEBUG-less build\n";
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to run a '" << PERFBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const Options o = parse_options(argc, argv);
  try {
    return o.pin ? pin_main(o) : bench_main(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
