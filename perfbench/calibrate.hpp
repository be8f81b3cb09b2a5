#pragma once

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by up to 2x over
// minutes: neighbours on the same physical cores slow every instruction of
// the process, so CPU time moves with wall time. To report the program's
// cost rather than the host's mood, the harness times a fixed unit of
// benchmark-owned work between replications and scales the measured times
// by how fast that unit ran in the same pass.
//
// The unit is a miniature of the simulator's hot loop — a binary-heap event
// queue, first-fit submesh search on an occupancy grid, an open-addressing
// job table and a FIFO wait queue — so it is slowed by the same kinds of
// interference (branchy integer code, cache-resident data). All of its state
// lives in buffers allocated once, so nothing under src/ (allocator,
// containers, build flags of the library) can change its speed.

#include <cstdint>

namespace perfbench {

/// Host time of the calibration units run during one pass.
struct HostSpeed {
  double wall_s{0};
  double cpu_s{0};
  std::uint64_t units{0};

  /// Host seconds per unit (0 when no unit ran).
  [[nodiscard]] double unit_wall_s() const { return per_unit(wall_s); }
  [[nodiscard]] double unit_cpu_s() const { return per_unit(cpu_s); }
  [[nodiscard]] double per_unit(double s) const {
    return units ? s / static_cast<double>(units) : 0;
  }
};

/// The nominal time of one unit: reported times are scaled to a host on
/// which one unit takes exactly this long ("reference seconds").
inline constexpr double kReferenceUnitS = 1e-3;

/// Share of the measured time spent calibrating, and the fewest units a pass
/// runs.
inline constexpr double kCalibrationShare = 0.25;
inline constexpr std::uint64_t kMinUnitsPerPass = 32;

/// Runs one calibration unit and returns its checksum, which is the same on
/// every call (the unit replays a fixed seed).
std::uint64_t calibration_unit();

/// Interleaves calibration units with measured work.
class Calibrator {
 public:
  /// Called after `measured_s` of measured work: runs units until the
  /// calibration time of this pass reaches kCalibrationShare of the
  /// measured time so far.
  void follow(double measured_s);

  /// Tops the pass up to kMinUnitsPerPass units, returns its totals and
  /// starts a new pass.
  HostSpeed take();

 private:
  /// Throws std::logic_error if the unit's checksum changed.
  void run_unit();

  double owed_s_{0};
  HostSpeed pass_;
  std::uint64_t checksum_{calibration_unit()};
};

}  // namespace perfbench
