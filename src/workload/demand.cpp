#include "hcep/workload/demand.hpp"

#include "hcep/util/error.hpp"

namespace hcep::workload {

NodeDemand NodeDemand::scaled(double k) const {
  return NodeDemand{.cycles_core = cycles_core * k,
                    .cycles_mem = cycles_mem * k,
                    .io_bytes = io_bytes * k};
}

const NodeDemand& Workload::demand_for(const std::string& node) const {
  const auto it = demand.find(node);
  if (it == demand.end()) {
    throw PreconditionError("Workload '" + name +
                            "': no demand for node type '" + node + "'");
  }
  return it->second;
}

double Workload::power_scale_for(const std::string& node) const {
  const auto it = power_cal.find(node);
  return it == power_cal.end() ? 1.0 : it->second.power_scale;
}

bool Workload::has_node(const std::string& node) const {
  return demand.contains(node);
}

}  // namespace hcep::workload
