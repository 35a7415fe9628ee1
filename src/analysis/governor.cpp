#include "hcep/analysis/governor.hpp"

#include <limits>

#include "hcep/util/error.hpp"
#include "operating_points.hpp"

namespace hcep::analysis {

namespace {

using detail::OperatingPoint;

/// Average power of an operating point serving absolute demand
/// `demand_rate` (units/s): the point runs busy for the fraction of time
/// demand requires, idling otherwise.
Watts power_at_demand(const OperatingPoint& pt, double demand_rate) {
  const double occupancy = demand_rate / pt.throughput;  // <= 1 required
  return pt.idle + (pt.busy - pt.idle) * occupancy;
}

}  // namespace

GovernorStudyResult run_governor_study(const workload::Workload& workload,
                                       const GovernorStudyOptions& options) {
  require(options.mix.a9 + options.mix.k10 > 0,
          "run_governor_study: empty mix");
  std::vector<double> grid = options.utilizations;
  if (grid.empty()) grid = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  const auto points = detail::enumerate_points(options.mix, workload);
  require(!points.empty(), "run_governor_study: no operating points");

  // Reference: the fastest point (c_max, f_max) — race-to-idle baseline.
  const OperatingPoint* reference = &points.front();
  for (const auto& pt : points) {
    if (pt.throughput > reference->throughput) reference = &pt;
  }

  GovernorStudyResult out{
      .points = {},
      .pace_curve = power::PowerCurve::linear(reference->idle,
                                              reference->busy),  // replaced
      .race_curve =
          power::PowerCurve::linear(reference->idle, reference->busy),
      .race_report = {},
      .pace_report = {},
  };

  PiecewiseLinear pace_samples;
  pace_samples.add(0.0, reference->idle.value());

  for (double u : grid) {
    require(u > 0.0 && u <= 1.0,
            "run_governor_study: utilization outside (0, 1]");
    const double demand = u * reference->throughput;

    GovernorPoint gp;
    gp.utilization = u;
    gp.race_power = out.race_curve.at(u);

    // Pace: cheapest point whose capacity covers the demand.
    Watts best{std::numeric_limits<double>::infinity()};
    const OperatingPoint* chosen = nullptr;
    for (const auto& pt : points) {
      if (pt.throughput + 1e-9 < demand) continue;  // cannot keep up
      const Watts p = power_at_demand(pt, demand);
      if (p < best) {
        best = p;
        chosen = &pt;
      }
    }
    require(chosen != nullptr,
            "run_governor_study: no operating point covers the demand");
    gp.pace_power = best;
    gp.pace_label = chosen->label;
    gp.saving_percent =
        (gp.race_power - gp.pace_power) / gp.race_power * 100.0;

    pace_samples.add(u, gp.pace_power.value());
    out.points.push_back(std::move(gp));
  }

  // A custom grid may stop short of u = 1; close the curve at the
  // race-to-idle peak so the metric suite's [0, 1] domain is covered.
  if (pace_samples.back_x() < 1.0)
    pace_samples.add(1.0, reference->busy.value());
  out.pace_curve = power::PowerCurve::sampled(std::move(pace_samples));
  out.race_report = metrics::analyze(out.race_curve);
  out.pace_report = metrics::analyze(out.pace_curve);
  return out;
}

}  // namespace hcep::analysis
