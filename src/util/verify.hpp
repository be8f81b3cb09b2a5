#pragma once

namespace procsim::util {

/// The process-wide verification switch, PROCSIM_VERIFY=0|1 (off when
/// unset). When on, every fast path runs beside its oracle and throws
/// std::logic_error on the first divergence: kCalendar event queues run as
/// kCrossCheck, kBatched networks as kVerify, every OccupancyIndex fit query
/// is re-answered by FreeSubmeshScan, every resumed BackfillScheduler walk
/// is re-walked from scratch, and core::run_once attaches a throwaway trace +
/// telemetry recorder. Output bytes do not change.
///
/// Read once, on first use; a value other than empty, "0" or "1" prints one
/// line to stderr and exits the process with status 2.
[[nodiscard]] bool verify_enabled() noexcept;

/// Overrides the switch for the rest of the process (tests). Engines read it
/// at construction, the index at every query.
void set_verify(bool on) noexcept;

/// Parses a PROCSIM_VERIFY value: null, "" and "0" are off, "1" is on;
/// anything else throws std::invalid_argument.
[[nodiscard]] bool parse_verify(const char* value);

}  // namespace procsim::util
