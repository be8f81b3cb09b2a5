#include "layers.hpp"

#include <ostream>

namespace perfbench {

namespace {

constexpr std::size_t kDurationCap = std::size_t{1} << 22;  // per op, ~16 MiB

[[nodiscard]] bool keeps_durations(Op op) noexcept {
  return op == Op::kAllocate || op == Op::kProbe || op == Op::kRelease ||
         op == Op::kSelect;
}

}  // namespace

Layer layer_of(Op op) noexcept {
  switch (op) {
    case Op::kAllocate:
    case Op::kProbe:
    case Op::kRelease:
    case Op::kAllocReset:
      return Layer::kAlloc;
    case Op::kSelect:
    case Op::kEnqueue:
    case Op::kTake:
    case Op::kOnStart:
    case Op::kOnComplete:
    case Op::kSchedClear:
      return Layer::kSched;
    case Op::kPeekArrival:
    case Op::kNextJob:
      return Layer::kWorkload;
    case Op::kOnJob:
      return Layer::kSink;
    case Op::kMirror:
    case Op::kCount:
      break;
  }
  return Layer::kTrace;
}

const char* op_name(Op op) noexcept {
  static constexpr std::array<const char*, kOps> kNames{
      "allocate", "probe",       "release",  "alloc_reset", "select",
      "enqueue",  "take",        "on_start", "on_complete", "sched_clear",
      "peek_arrival", "next_job", "on_job",  "mirror"};
  return kNames[static_cast<std::size_t>(op)];
}

const char* layer_name(Layer layer) noexcept {
  static constexpr std::array<const char*, kLayers> kNames{"alloc", "sched", "workload",
                                                           "sink", "trace"};
  return kNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer(std::size_t span_cap)
    : epoch_(std::chrono::steady_clock::now()), span_cap_(span_cap) {
  stack_.reserve(16);
}

void Tracer::open(Op op) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().span;
  std::int32_t span = -1;
  const std::int64_t t = now_ns();
  if (spans_.size() < span_cap_) {
    span = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRecord{t, t, parent, rep_, op});
  }
  stack_.push_back(Frame{op, t, 0, span});
}

void Tracer::close() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - f.start_ns;
  const auto op = static_cast<std::size_t>(f.op);
  self_ns_[static_cast<std::size_t>(layer_of(f.op))] += dur - f.child_ns;
  ++calls_[op];
  if (keeps_durations(f.op) && durations_[op].size() < kDurationCap)
    durations_[op].push_back(static_cast<float>(dur));
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.span >= 0) spans_[static_cast<std::size_t>(f.span)].end_ns = t;
}

void Tracer::write_spans(std::ostream& out) const {
  out << "rep,op,layer,parent,start_ns,end_ns\n";
  for (const SpanRecord& s : spans_)
    out << s.rep << ',' << op_name(s.op) << ',' << layer_name(layer_of(s.op)) << ','
        << s.parent << ',' << s.start_ns << ',' << s.end_ns << '\n';
}

// ---- TimedAllocator --------------------------------------------------------

TimedAllocator::TimedAllocator(procsim::alloc::Allocator& inner, Tracer& tracer)
    : Allocator(inner.geometry()), inner_(inner), tracer_(tracer) {}

std::optional<procsim::alloc::Placement> TimedAllocator::allocate(
    const procsim::alloc::Request& req) {
  std::optional<procsim::alloc::Placement> placement;
  {
    const Tracer::Scope span(tracer_, Op::kAllocate);
    placement = inner_.allocate(req);
  }
  if (!placement) {
    ++tracer_.alloc_failures;
    return placement;
  }
  const Tracer::Scope span(tracer_, Op::kMirror);
  for (const procsim::mesh::SubMesh& b : placement->blocks) occupy(b);
  return placement;
}

bool TimedAllocator::can_allocate(const procsim::alloc::Request& req) const {
  const Tracer::Scope span(tracer_, Op::kProbe);
  return inner_.can_allocate(req);
}

bool TimedAllocator::can_allocate_with_free(
    const procsim::alloc::Request& req,
    const std::vector<procsim::mesh::SubMesh>& released) const {
  const Tracer::Scope span(tracer_, Op::kProbe);
  return inner_.can_allocate_with_free(req, released);
}

void TimedAllocator::release(const procsim::alloc::Placement& placement) {
  {
    const Tracer::Scope span(tracer_, Op::kRelease);
    inner_.release(placement);
  }
  const Tracer::Scope span(tracer_, Op::kMirror);
  for (const procsim::mesh::SubMesh& b : placement.blocks) vacate(b);
}

void TimedAllocator::reset() {
  {
    const Tracer::Scope span(tracer_, Op::kAllocReset);
    inner_.reset();
  }
  const Tracer::Scope span(tracer_, Op::kMirror);
  Allocator::reset();
}

// ---- TimedScheduler --------------------------------------------------------

void TimedScheduler::enqueue(const procsim::sched::QueuedJob& job) {
  const Tracer::Scope span(tracer_, Op::kEnqueue);
  inner_.enqueue(job);
}

std::optional<std::size_t> TimedScheduler::select(
    const procsim::sched::AllocProbe& probe, const procsim::sched::SchedSnapshot& snap) {
  std::optional<std::size_t> pos;
  {
    const Tracer::Scope span(tracer_, Op::kSelect);
    pos = inner_.select(probe, snap);
  }
  if (pos) ++tracer_.nominations;
  return pos;
}

procsim::sched::QueuedJob TimedScheduler::take(std::size_t pos) {
  const Tracer::Scope span(tracer_, Op::kTake);
  return inner_.take(pos);
}

void TimedScheduler::on_start(const procsim::sched::QueuedJob& job, double now,
                              std::int64_t allocated,
                              const std::vector<procsim::mesh::SubMesh>& blocks) {
  const Tracer::Scope span(tracer_, Op::kOnStart);
  inner_.on_start(job, now, allocated, blocks);
}

void TimedScheduler::on_complete(std::uint64_t job_id, double now) {
  const Tracer::Scope span(tracer_, Op::kOnComplete);
  inner_.on_complete(job_id, now);
}

void TimedScheduler::clear() {
  const Tracer::Scope span(tracer_, Op::kSchedClear);
  inner_.clear();
}

// ---- TimedSource / TimedSink -----------------------------------------------

std::optional<double> TimedSource::peek_arrival() {
  const Tracer::Scope span(tracer_, Op::kPeekArrival);
  return inner_.peek_arrival();
}

std::optional<procsim::workload::Job> TimedSource::next_job() {
  const Tracer::Scope span(tracer_, Op::kNextJob);
  return inner_.next_job();
}

void TimedSink::on_job(const procsim::core::JobRecord& record) {
  const Tracer::Scope span(tracer_, Op::kOnJob);
  inner_.on_job(record);
}

}  // namespace perfbench
