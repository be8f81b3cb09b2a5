#include "workload/shape.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace procsim::workload {

std::pair<std::int32_t, std::int32_t> shape_for_processors(std::int32_t p,
                                                           const mesh::Geometry& geom) {
  if (p <= 0) throw std::invalid_argument("shape_for_processors: p must be positive");
  if (p > geom.nodes())
    throw std::invalid_argument("shape_for_processors: p exceeds mesh size");

  std::int64_t best_area = std::numeric_limits<std::int64_t>::max();
  std::int32_t best_perim = std::numeric_limits<std::int32_t>::max();
  std::pair<std::int32_t, std::int32_t> best{geom.width(), geom.length()};
  // Widths past p cannot win: a > p gives b = 1 and area a > p, which a = p
  // (area p) beats, so the scan stops at min(W, p).
  const std::int32_t a_max = std::min(geom.width(), p);
  for (std::int32_t a = 1; a <= a_max; ++a) {
    const std::int32_t b_min = static_cast<std::int32_t>((p + a - 1) / a);
    if (b_min > geom.length()) continue;
    const std::int64_t area = static_cast<std::int64_t>(a) * b_min;
    const std::int32_t perim = a + b_min;
    if (area < best_area || (area == best_area && perim < best_perim)) {
      best_area = area;
      best_perim = perim;
      best = {a, b_min};
    }
  }
  return best;
}

}  // namespace procsim::workload
