#pragma once

#include <cstdint>
#include <type_traits>

namespace procsim::des {

/// Simulation time. One unit corresponds to one network cycle (the time a
/// flit needs to cross one link), matching the paper's "time units".
using SimTime = double;

/// What an event does when it fires: a plain function called with the
/// context pointer and the 64-bit argument it was scheduled with.
using EventFn = void (*)(void* ctx, std::uint64_t arg);

/// The (function, context) half of an event. Model code passes a
/// captureless lambda (or static member) plus `this`; the per-event payload
/// travels in the event's 64-bit argument, never in a closure.
struct Handler {
  EventFn fire{nullptr};
  void* ctx{nullptr};
};

/// A scheduled event: a 40-byte trivially copyable record, so scheduling
/// never allocates and the queue moves events with plain copies. Ordering is
/// (time, sequence): two events at the same timestamp fire in the order they
/// were scheduled, which keeps runs deterministic under a fixed seed.
struct Event {
  SimTime time{0};
  std::uint64_t seq{0};
  EventFn fire{nullptr};
  void* ctx{nullptr};
  std::uint64_t arg{0};

  void invoke() const { fire(ctx, arg); }
};

static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 40);

namespace detail {
template <class F>
void call_owned(void* ctx, std::uint64_t arg) {
  F& f = *static_cast<F*>(ctx);
  if constexpr (std::is_invocable_v<F&, std::uint64_t>)
    f(arg);
  else
    f();
}
}  // namespace detail

/// Adapter for a callable the caller owns and keeps alive until every event
/// scheduled with it has fired (tests, examples): `ctx = &f`. The callable
/// receives the event's argument if it takes one. Binding an rvalue does not
/// compile, so a temporary closure cannot dangle.
template <class F>
[[nodiscard]] Handler owned(F& f) noexcept {
  return {&detail::call_owned<F>, const_cast<void*>(static_cast<const void*>(&f))};
}

/// Min-heap comparator for Event (later time == lower priority).
struct EventLater {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace procsim::des
