#include "hcep/model/time_energy.hpp"

#include <algorithm>

#include "hcep/util/error.hpp"

namespace hcep::model {

TimeEnergyModel::TimeEnergyModel(ClusterSpec cluster,
                                 const workload::Workload& workload)
    : cluster_(std::move(cluster)), workload_(&workload) {
  cluster_.validate();
  group_rates_.reserve(cluster_.groups.size());
  for (const auto& g : cluster_.groups) {
    if (!workload_->has_node(g.spec.name)) {
      throw PreconditionError("TimeEnergyModel: workload '" +
                              workload_->name +
                              "' lacks demand for node type '" +
                              g.spec.name + "'");
    }
    const double per_node = workload::unit_throughput(
        workload_->demand_for(g.spec.name), g.spec, g.cores(), g.freq());
    const double rate = per_node * static_cast<double>(g.count);
    group_rates_.push_back(rate);
    total_rate_ += rate;
  }
  require(total_rate_ > 0.0, "TimeEnergyModel: cluster has zero throughput");
}

double TimeEnergyModel::peak_throughput() const { return total_rate_; }

TimeResult TimeEnergyModel::execution_time(double units) const {
  require(units > 0.0, "execution_time: non-positive work");
  TimeResult out;
  out.groups.reserve(cluster_.groups.size());

  for (std::size_t i = 0; i < cluster_.groups.size(); ++i) {
    const NodeGroup& g = cluster_.groups[i];
    GroupTime gt;
    gt.node_name = g.spec.name;
    if (g.count == 0) {
      out.groups.push_back(gt);
      continue;
    }
    // Rate-matched split (all types finish together up to the I/O floor).
    const double group_units = units * group_rates_[i] / total_rate_;
    gt.units_per_node = group_units / static_cast<double>(g.count);

    const workload::NodeDemand& d = workload_->demand_for(g.spec.name);
    const workload::UnitTime per_unit =
        workload::unit_time(d, g.spec, g.cores(), g.freq());
    gt.per_node.core = per_unit.core * gt.units_per_node;
    gt.per_node.mem = per_unit.mem * gt.units_per_node;
    gt.per_node.cpu = per_unit.cpu * gt.units_per_node;
    // Table 2: T_I/O = max(T_IOT, 1/lambda_I/O) / n_i — the request
    // inter-arrival floor applies to the type's aggregate I/O stream.
    const Seconds io_transfer = per_unit.io * gt.units_per_node;
    const Seconds io_floor =
        workload_->io_request_interval / static_cast<double>(g.count);
    gt.per_node.io = std::max(io_transfer, io_floor);
    gt.per_node.total = std::max(gt.per_node.cpu, gt.per_node.io);

    out.t_p = std::max(out.t_p, gt.per_node.total);
    out.groups.push_back(gt);
  }
  return out;
}

Seconds TimeEnergyModel::job_time() const {
  return execution_time(workload_->units_per_job).t_p;
}

EnergyResult TimeEnergyModel::job_energy(double units) const {
  const TimeResult time = execution_time(units);
  EnergyResult out;
  for (std::size_t i = 0; i < cluster_.groups.size(); ++i) {
    const NodeGroup& g = cluster_.groups[i];
    const GroupTime& gt = time.groups[i];
    GroupEnergy ge;
    ge.node_name = g.spec.name;
    if (g.count == 0) {
      out.groups.push_back(ge);
      continue;
    }
    const double n = static_cast<double>(g.count);
    const double cores = static_cast<double>(g.cores());
    const double dvfs = g.spec.power.dvfs_scale(g.freq(), g.spec.dvfs.max());
    const double kappa = workload_->power_scale_for(g.spec.name);

    const Seconds stall =
        std::max(Seconds{0.0}, gt.per_node.mem - gt.per_node.core);

    // Table 2 energy rows, scaled by the calibration factor.
    ge.cpu_active = g.spec.power.core_active * (cores * dvfs * kappa) *
                    gt.per_node.core * n;
    ge.cpu_stall =
        g.spec.power.core_stalled * (cores * dvfs * kappa) * stall * n;
    ge.mem = g.spec.power.mem_active * kappa * gt.per_node.mem * n;
    ge.net = g.spec.power.net_active * kappa * gt.per_node.io * n;
    // Idle floor accrues over the whole job on every node: nodes that
    // finish their share early idle until T_P.
    ge.idle = g.spec.power.idle * time.t_p * n;

    out.e_p += ge.total();
    out.groups.push_back(ge);
  }
  return out;
}

Watts TimeEnergyModel::idle_power() const {
  Watts p{0.0};
  for (const auto& g : cluster_.groups)
    p += g.spec.power.idle * static_cast<double>(g.count);
  return p;
}

Watts TimeEnergyModel::busy_power() const {
  Watts p{0.0};
  for (const auto& g : cluster_.groups) {
    if (g.count == 0) continue;
    const Watts per_node = workload::busy_power(
        workload_->demand_for(g.spec.name), g.spec, g.cores(), g.freq(),
        workload_->power_scale_for(g.spec.name));
    p += per_node * static_cast<double>(g.count);
  }
  return p;
}

power::PowerCurve TimeEnergyModel::power_curve(CurveFamily family,
                                               double curvature) const {
  switch (family) {
    case CurveFamily::kLinear:
      return power::PowerCurve::linear(idle_power(), busy_power());
    case CurveFamily::kQuadratic:
      return power::PowerCurve::quadratic(idle_power(), busy_power(),
                                          curvature);
  }
  throw PreconditionError("power_curve: unknown family");
}

Watts TimeEnergyModel::average_power(double utilization) const {
  return power_curve().at(utilization);
}

Joules TimeEnergyModel::window_energy(double utilization,
                                      Seconds window) const {
  require(utilization >= 0.0 && utilization <= 1.0,
          "window_energy: utilization outside [0, 1]");
  require(window.value() > 0.0, "window_energy: empty window");
  return average_power(utilization) * window;
}

double TimeEnergyModel::ppr(double utilization) const {
  require(utilization > 0.0 && utilization <= 1.0,
          "ppr: utilization outside (0, 1]");
  const double throughput = peak_throughput() * utilization;
  return throughput / average_power(utilization).value();
}

}  // namespace hcep::model
