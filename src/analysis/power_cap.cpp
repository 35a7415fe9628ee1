#include "hcep/analysis/power_cap.hpp"

#include <algorithm>
#include <limits>

#include "hcep/util/error.hpp"
#include "hcep/util/math.hpp"
#include "operating_points.hpp"

namespace hcep::analysis {

namespace {

using Point = detail::OperatingPoint;

/// Sustainable throughput of one operating point under an average-power
/// cap: duty-cycle the point so P = idle + rho (busy - idle) <= cap.
double capped_throughput(const Point& pt, Watts cap) {
  if (cap <= pt.idle) return 0.0;
  const double rho =
      std::min(1.0, (cap - pt.idle) / (pt.busy - pt.idle));
  return pt.throughput * rho;
}

}  // namespace

PowerCapStudyResult run_power_cap_study(const workload::Workload& workload,
                                        const PowerCapOptions& options) {
  require(options.mix.a9 + options.mix.k10 > 0,
          "run_power_cap_study: empty mix");
  const auto points = detail::enumerate_points(options.mix, workload);
  require(!points.empty(), "run_power_cap_study: no operating points");

  const Point* race = &points.front();
  for (const auto& pt : points)
    if (pt.throughput > race->throughput) race = &pt;

  PowerCapStudyResult out;
  out.idle_power = race->idle;
  out.busy_power = race->busy;

  std::vector<Watts> caps = options.caps;
  if (caps.empty()) {
    for (double f : linspace(0.05, 1.0, 10)) {
      caps.push_back(race->idle + (race->busy - race->idle) * f);
    }
  }

  for (const Watts cap : caps) {
    PowerCapPoint p;
    p.cap = cap;
    p.race_throughput = capped_throughput(*race, cap);

    const Point* best = nullptr;
    double best_throughput = -1.0;
    for (const auto& pt : points) {
      const double x = capped_throughput(pt, cap);
      if (x > best_throughput) {
        best_throughput = x;
        best = &pt;
      }
    }
    p.paced_throughput = best_throughput;
    p.paced_label = best->label;
    p.pacing_gain =
        p.race_throughput > 0.0
            ? p.paced_throughput / p.race_throughput
            : (p.paced_throughput > 0.0
                   ? std::numeric_limits<double>::infinity()
                   : 1.0);
    out.points.push_back(std::move(p));
  }
  return out;
}

}  // namespace hcep::analysis
