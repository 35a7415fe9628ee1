#include "hcep/workload/node_ops.hpp"

#include <algorithm>

#include "hcep/util/error.hpp"

namespace hcep::workload {

UnitTime unit_time(const NodeDemand& demand, const hw::NodeSpec& node,
                   unsigned active_cores, Hertz f) {
  if (active_cores < 1 || active_cores > node.cores) {
    throw PreconditionError(
        "unit_time: active core count out of range for " + node.name);
  }
  require(f.value() > 0.0, "unit_time: non-positive frequency");

  UnitTime t;
  t.core = Cycles{demand.cycles_core} / f / static_cast<double>(active_cores);
  t.mem = Cycles{demand.cycles_mem} / f /
          node.cost.mem_parallelism(active_cores);
  t.cpu = std::max(t.core, t.mem);
  t.io = demand.io_bytes / node.nic_bandwidth;
  t.total = std::max(t.cpu, t.io);
  return t;
}

double unit_throughput(const NodeDemand& demand, const hw::NodeSpec& node,
                       unsigned active_cores, Hertz f) {
  const Seconds t = unit_time(demand, node, active_cores, f).total;
  require(t.value() > 0.0, "unit_throughput: zero unit time");
  return 1.0 / t.value();
}

Watts busy_power(const NodeDemand& demand, const hw::NodeSpec& node,
                 unsigned active_cores, Hertz f, double power_scale) {
  const UnitTime t = unit_time(demand, node, active_cores, f);
  require(t.total.value() > 0.0, "busy_power: zero unit time");

  const double dvfs = node.power.dvfs_scale(f, node.dvfs.max());
  const double cores = static_cast<double>(active_cores);
  const Seconds stall = std::max(Seconds{0.0}, t.mem - t.core);

  // Per-unit dynamic energy by component (Table 2 energy rows).
  const Joules e_core_act = node.power.core_active * (cores * dvfs) * t.core;
  const Joules e_core_stall =
      node.power.core_stalled * (cores * dvfs) * stall;
  const Joules e_mem = node.power.mem_active * t.mem;
  const Joules e_net = node.power.net_active * t.io;

  const Watts dynamic =
      (e_core_act + e_core_stall + e_mem + e_net) / t.total;
  return node.power.idle + dynamic * power_scale;
}

Joules unit_energy(const NodeDemand& demand, const hw::NodeSpec& node,
                   unsigned active_cores, Hertz f, double power_scale) {
  const UnitTime t = unit_time(demand, node, active_cores, f);
  return busy_power(demand, node, active_cores, f, power_scale) * t.total;
}

}  // namespace hcep::workload
