#include "src/anon/randomize.h"

#include <algorithm>
#include <cmath>

namespace histkanon {
namespace anon {

geo::STBox TranslateWithin(common::Rng* rng, const geo::STBox& box,
                           const geo::STPoint& exact) {
  if (box.IsEmpty() || !box.Contains(exact)) return box;
  const double width = box.area.Width();
  const double height = box.area.Height();
  const int64_t window = box.time.Length();

  geo::STBox out = box;
  // New min so that exact stays inside: min in [exact - extent, exact].
  out.area.min_x = rng->Uniform(exact.p.x - width, exact.p.x);
  out.area.max_x = out.area.min_x + width;
  out.area.min_y = rng->Uniform(exact.p.y - height, exact.p.y);
  out.area.max_y = out.area.min_y + height;
  out.time.lo =
      window == 0 ? exact.t : rng->UniformInt(exact.t - window, exact.t);
  out.time.hi = out.time.lo + window;
  return out;
}

geo::STBox ExpandWithin(common::Rng* rng, const geo::STBox& box,
                        const ToleranceConstraints& tolerance,
                        const RandomizerOptions& options) {
  if (box.IsEmpty()) return box;
  geo::STBox out = box;

  // Spatial growth: draw both side margins, then clip total width/height
  // to tolerance (splitting the allowed slack proportionally).
  auto grow_axis = [rng, &options](double lo, double hi, double max_extent,
                                   double* new_lo, double* new_hi) {
    const double extent = hi - lo;
    double margin_lo =
        rng->Uniform(0.0, options.max_expand_fraction) * extent;
    double margin_hi =
        rng->Uniform(0.0, options.max_expand_fraction) * extent;
    if (extent < max_extent) {
      const double slack = max_extent - extent;
      const double total = margin_lo + margin_hi;
      if (total > slack && total > 0.0) {
        margin_lo *= slack / total;
        margin_hi *= slack / total;
      }
    } else {
      margin_lo = margin_hi = 0.0;  // Already at/over tolerance.
    }
    *new_lo = lo - margin_lo;
    *new_hi = hi + margin_hi;
    // Scaled margins sum to the slack only up to rounding, so the grown
    // extent can land a few ulps over max_extent; pull the grown sides
    // back in until it fits exactly.  A box that fits, or that was
    // already over tolerance and did not grow, is left untouched.
    while (*new_hi - *new_lo > max_extent && *new_hi > hi) {
      *new_hi = std::nextafter(*new_hi, hi);
    }
    while (*new_hi - *new_lo > max_extent && *new_lo < lo) {
      *new_lo = std::nextafter(*new_lo, lo);
    }
  };
  grow_axis(box.area.min_x, box.area.max_x, tolerance.max_area_width,
            &out.area.min_x, &out.area.max_x);
  grow_axis(box.area.min_y, box.area.max_y, tolerance.max_area_height,
            &out.area.min_y, &out.area.max_y);

  // Temporal growth, same scheme in integer seconds.
  const int64_t window = box.time.Length();
  if (window < tolerance.max_time_window) {
    int64_t margin_lo = rng->UniformInt(
        0, static_cast<int64_t>(options.max_expand_fraction *
                                static_cast<double>(std::max<int64_t>(
                                    1, window))));
    int64_t margin_hi = rng->UniformInt(
        0, static_cast<int64_t>(options.max_expand_fraction *
                                static_cast<double>(std::max<int64_t>(
                                    1, window))));
    const int64_t slack = tolerance.max_time_window - window;
    const int64_t total = margin_lo + margin_hi;
    if (total > slack && total > 0) {
      margin_lo = margin_lo * slack / total;
      margin_hi = margin_hi * slack / total;
    }
    out.time.lo = box.time.lo - margin_lo;
    out.time.hi = box.time.hi + margin_hi;
  }
  return out;
}

}  // namespace anon
}  // namespace histkanon
