#include "hcep/config/operating_points.hpp"

#include <algorithm>

#include "hcep/util/error.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::config {

OperatingPointTable::OperatingPointTable(const ConfigSpace& space,
                                         const workload::Workload& workload)
    : units_per_job_(workload.units_per_job),
      io_request_interval_(workload.io_request_interval) {
  types_.reserve(space.types().size());
  for (std::size_t i = 0; i < space.types().size(); ++i) {
    const TypeOptions& t = space.types()[i];
    require(workload.has_node(t.spec.name),
            "OperatingPointTable: workload '" + workload.name +
                "' lacks demand for node type '" + t.spec.name + "'");
    const workload::NodeDemand& d = workload.demand_for(t.spec.name);
    const double kappa = workload.power_scale_for(t.spec.name);
    const Hertz f_max = t.spec.dvfs.max();

    TypeTable table;
    table.idle_power = t.spec.power.idle;
    const std::size_t points = space.points_for(i);
    table.points.reserve(points);
    for (std::size_t p = 0; p < points; ++p) {
      const OperatingPoint op = space.point_at(i, p);
      const workload::UnitTime ut =
          workload::unit_time(d, t.spec, op.cores, op.frequency);

      OperatingPointEntry e;
      e.t_core = ut.core;
      e.t_mem = ut.mem;
      e.t_cpu = ut.cpu;
      e.t_io = ut.io;
      e.throughput =
          workload::unit_throughput(d, t.spec, op.cores, op.frequency);
      e.busy_power =
          workload::busy_power(d, t.spec, op.cores, op.frequency, kappa);
      // Fold (cores * dvfs * kappa) into the Table 2 rates exactly as the
      // TimeEnergyModel energy rows group them, so the fused path repeats
      // the naive path's floating-point operations verbatim.
      const double cores = static_cast<double>(op.cores);
      const double dvfs = t.spec.power.dvfs_scale(op.frequency, f_max);
      e.p_core_active = t.spec.power.core_active * (cores * dvfs * kappa);
      e.p_core_stall = t.spec.power.core_stalled * (cores * dvfs * kappa);
      e.p_mem = t.spec.power.mem_active * kappa;
      e.p_net = t.spec.power.net_active * kappa;
      table.points.push_back(e);
    }
    types_.push_back(std::move(table));
  }
}

PointMetrics OperatingPointTable::evaluate(const DecodedGroup* groups,
                                           std::size_t n,
                                           double units) const {
  // Stack scratch (kMaxTypes caps n): one table lookup per group, and the
  // time-pass intermediates carry over into the energy pass instead of
  // being recomputed. Same floating-point operations in the same order as
  // TimeEnergyModel, so both passes agree to machine precision. The
  // scratch is raw doubles: an array of Quantity is zero-filled on
  // construction, 256 bytes of stores per call for these two.
  const OperatingPointEntry* ent[kMaxTypes];
  double cnt[kMaxTypes];
  double idle[kMaxTypes];  // W per node
  double per_node_units[kMaxTypes];
  double t_io[kMaxTypes];  // s

  // Rate-matched split: work shares are proportional to group throughput.
  double total_rate = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    ent[k] = &entry(groups[k].type, groups[k].point);
    cnt[k] = static_cast<double>(groups[k].count);
    idle[k] = idle_power(groups[k].type).value();
    total_rate += ent[k]->throughput * cnt[k];
  }
  // Division is the hot loop's costliest operation: one reciprocal of the
  // cluster rate replaces the per-group share divisions. The per-node
  // share units*(thr*cnt)/total/cnt reduces to units*thr/total — within
  // an ulp of the naive grouping, far inside the 1e-9 oracle tolerance.
  const double inv_total_rate = 1.0 / total_rate;

  // The typed arithmetic below lowers to the exact double operations of
  // the pre-units implementation (Quantity is a transparent double and
  // W * s -> J is a single multiply), so fused/naive equivalence holds
  // bit-for-bit.
  PointMetrics out;
  // Pass 1: per-group completion times -> T_P (Table 2 time rows).
  for (std::size_t k = 0; k < n; ++k) {
    const OperatingPointEntry& e = *ent[k];
    per_node_units[k] = units * e.throughput * inv_total_rate;
    const Seconds t_cpu = e.t_cpu * per_node_units[k];
    const Seconds io_transfer = e.t_io * per_node_units[k];
    const Seconds io_floor = io_request_interval_ / cnt[k];
    const Seconds io = std::max(io_transfer, io_floor);
    t_io[k] = io.value();
    out.time = std::max(out.time, std::max(t_cpu, io));
  }

  // Pass 2: Table 2 energy rows plus the cluster power floors, summed in
  // the same order as TimeEnergyModel::job_energy.
  for (std::size_t k = 0; k < n; ++k) {
    const OperatingPointEntry& e = *ent[k];
    const Seconds t_core = e.t_core * per_node_units[k];
    const Seconds t_mem = e.t_mem * per_node_units[k];
    const Seconds stall = std::max(Seconds{}, t_mem - t_core);

    const Joules e_cpu_active = e.p_core_active * t_core * cnt[k];
    const Joules e_cpu_stall = e.p_core_stall * stall * cnt[k];
    const Joules e_mem = e.p_mem * t_mem * cnt[k];
    const Joules e_net = e.p_net * Seconds{t_io[k]} * cnt[k];
    const Joules e_idle = Watts{idle[k]} * out.time * cnt[k];
    out.energy += e_cpu_active + e_cpu_stall + e_mem + e_net + e_idle;

    out.idle_power += Watts{idle[k] * cnt[k]};
    out.busy_power += e.busy_power * cnt[k];
  }
  return out;
}

}  // namespace hcep::config
