#pragma once

// Layer decorators for the traced benchmark run.
//
// Each decorator wraps one of the library's public layer interfaces —
// alloc::Allocator, sched::Scheduler, workload::Source, core::MetricsSink —
// forwards every call to the wrapped object unchanged, and times the calls
// that do a layer's work. Nothing under src/ is edited: SystemSim is handed
// the decorators instead of the real objects. The decorators are
// observation-only; a run through them produces bit-identical RunMetrics
// (perfbench_selftest pins this for every allocator).
//
// Timing is span-based. A span is one call into a layer: name (the Op),
// start, end, parent span and replication id. Spans nest through a stack, so
// the allocator probes a scheduler's select() triggers are children of that
// select span, and a layer's self time is its spans' durations minus the
// time their children cover. Spans are kept in memory (up to a cap) and
// written out when the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/metrics_sink.hpp"
#include "sched/scheduler.hpp"
#include "workload/source.hpp"

namespace perfbench {

/// The layer calls the decorators time.
enum class Op : std::uint8_t {
  kAllocate,     ///< Allocator::allocate
  kProbe,        ///< Allocator::can_allocate / can_allocate_with_free
  kRelease,      ///< Allocator::release
  kAllocReset,   ///< Allocator::reset
  kSelect,       ///< Scheduler::select (its probes are child spans)
  kEnqueue,      ///< Scheduler::enqueue
  kTake,         ///< Scheduler::take (one per started job)
  kOnStart,      ///< Scheduler::on_start
  kOnComplete,   ///< Scheduler::on_complete
  kSchedClear,   ///< Scheduler::clear
  kPeekArrival,  ///< Source::peek_arrival
  kNextJob,      ///< Source::next_job
  kOnJob,        ///< MetricsSink::on_job
  kMirror,       ///< the allocator decorator's own occupancy mirroring
  kCount
};

/// Layers the self time is attributed to. kTrace is the decorators' own
/// bookkeeping (the mirrored occupancy), kept apart so it is not charged to
/// the allocator.
enum class Layer : std::uint8_t { kAlloc, kSched, kWorkload, kSink, kTrace, kCount };

inline constexpr std::size_t kOps = static_cast<std::size_t>(Op::kCount);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] Layer layer_of(Op op) noexcept;
[[nodiscard]] const char* op_name(Op op) noexcept;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// One recorded span. Times are nanoseconds since the tracer was built;
/// parent -1 means the span was called directly from SystemSim::run.
struct SpanRecord {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};
  std::uint32_t rep{0};
  Op op{Op::kAllocate};
};

/// Collects spans, per-layer self time, per-op call counts and per-call
/// durations of the ops whose latency distribution is reported.
class Tracer {
 public:
  /// Keeps at most `span_cap` span records (0 = keep none); totals and
  /// durations are collected regardless.
  explicit Tracer(std::size_t span_cap);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span around one layer call.
  class Scope {
   public:
    Scope(Tracer& t, Op op) : t_(t) { t_.open(op); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  /// Replication id stamped on the spans that follow.
  void set_rep(std::uint32_t rep) noexcept { rep_ = rep; }

  [[nodiscard]] double self_s(Layer layer) const noexcept {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls(Op op) const noexcept {
    return calls_[static_cast<std::size_t>(op)];
  }
  /// Per-call durations in ns, for kAllocate, kProbe, kRelease and kSelect.
  [[nodiscard]] const std::vector<float>& durations_ns(Op op) const noexcept {
    return durations_[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Writes the kept spans as CSV (rep,op,layer,parent,start_ns,end_ns).
  void write_spans(std::ostream& out) const;

  // Outcome tallies the decorators keep beside the spans.
  std::uint64_t alloc_failures{0};  ///< allocate() returned nullopt
  std::uint64_t nominations{0};     ///< select() returned a position

 private:
  struct Frame {
    Op op;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t span;
  };

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  void open(Op op);
  void close();

  std::chrono::steady_clock::time_point epoch_;
  std::size_t span_cap_;
  std::uint32_t rep_{0};
  std::vector<Frame> stack_;
  std::vector<SpanRecord> spans_;
  std::array<std::int64_t, kLayers> self_ns_{};
  std::array<std::uint64_t, kOps> calls_{};
  std::array<std::vector<float>, kOps> durations_;
};

/// Allocator decorator. SystemSim reads the non-virtual free_processors()
/// and index() of the object it is handed, so this decorator mirrors the
/// wrapped allocator's occupancy in its own base-class MeshState and
/// OccupancyIndex: every placement the inner allocator returns is occupied
/// here, every released one vacated. The mirroring is timed as Op::kMirror,
/// outside the allocator's spans. Not final: perfbench_selftest extends it
/// to compare the mirror with the wrapped allocator after every call.
class TimedAllocator : public procsim::alloc::Allocator {
 public:
  TimedAllocator(procsim::alloc::Allocator& inner, Tracer& tracer);

  [[nodiscard]] std::optional<procsim::alloc::Placement> allocate(
      const procsim::alloc::Request& req) override;
  [[nodiscard]] bool can_allocate(const procsim::alloc::Request& req) const override;
  [[nodiscard]] bool can_allocate_with_free(
      const procsim::alloc::Request& req,
      const std::vector<procsim::mesh::SubMesh>& released) const override;
  void release(const procsim::alloc::Placement& placement) override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool is_noncontiguous() const override {
    return inner_.is_noncontiguous();
  }
  void reset() override;

  [[nodiscard]] const procsim::alloc::Allocator& inner() const noexcept { return inner_; }

 private:
  procsim::alloc::Allocator& inner_;
  Tracer& tracer_;
};

/// Scheduler decorator. The pure accessors (size, job_at) are forwarded
/// untimed: a clock read would cost more than the call.
class TimedScheduler final : public procsim::sched::Scheduler {
 public:
  TimedScheduler(procsim::sched::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void enqueue(const procsim::sched::QueuedJob& job) override;
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] procsim::sched::QueuedJob job_at(std::size_t pos) const override {
    return inner_.job_at(pos);
  }
  [[nodiscard]] std::optional<std::size_t> select(
      const procsim::sched::AllocProbe& probe,
      const procsim::sched::SchedSnapshot& snap) override;
  procsim::sched::QueuedJob take(std::size_t pos) override;
  void on_start(const procsim::sched::QueuedJob& job, double now, std::int64_t allocated,
                const std::vector<procsim::mesh::SubMesh>& blocks) override;
  void on_complete(std::uint64_t job_id, double now) override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void export_counters(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const override {
    inner_.export_counters(out);
  }
  void clear() override;

 private:
  procsim::sched::Scheduler& inner_;
  Tracer& tracer_;
};

/// Job-source decorator. reset() is forwarded untimed: the benchmark seeds
/// the source before the run starts and counts that as set-up time.
class TimedSource final : public procsim::workload::Source {
 public:
  TimedSource(procsim::workload::Source& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const std::string& name() const noexcept override { return inner_.name(); }
  [[nodiscard]] bool bounded() const noexcept override { return inner_.bounded(); }
  void reset(std::uint64_t seed) override { inner_.reset(seed); }
  [[nodiscard]] std::optional<double> peek_arrival() override;
  [[nodiscard]] std::optional<procsim::workload::Job> next_job() override;

 private:
  procsim::workload::Source& inner_;
  Tracer& tracer_;
};

/// Metrics-sink decorator.
class TimedSink final : public procsim::core::MetricsSink {
 public:
  TimedSink(procsim::core::MetricsSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void on_job(const procsim::core::JobRecord& record) override;

 private:
  procsim::core::MetricsSink& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
