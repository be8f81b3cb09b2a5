#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace procsim::des {

/// Payloads of in-flight events that do not fit an event's 64-bit argument
/// (a delivery record, a migrating job). The event carries the entry's index;
/// its handler takes the payload back out when it fires. Freed entries are
/// reused, so a steady-state run stops allocating once the peak number of
/// payloads in flight is reached.
template <class T>
class PayloadTable {
 public:
  /// Stores `value` and returns the index to schedule with.
  [[nodiscard]] std::uint64_t put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return slots_.size() - 1;
    }
    const std::uint64_t id = free_.back();
    free_.pop_back();
    slots_[id] = std::move(value);
    return id;
  }

  /// Removes and returns the payload stored under `id`.
  [[nodiscard]] T take(std::uint64_t id) {
    T out = std::move(slots_[id]);
    free_.push_back(id);
    return out;
  }

  /// Forgets every payload (between runs); keeps capacity.
  void clear() noexcept {
    slots_.clear();
    free_.clear();
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint64_t> free_;
};

}  // namespace procsim::des
