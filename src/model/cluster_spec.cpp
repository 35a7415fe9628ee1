#include "hcep/model/cluster_spec.hpp"

#include "hcep/hw/catalog.hpp"
#include "hcep/util/error.hpp"

namespace hcep::model {

unsigned NodeGroup::cores() const {
  return active_cores == 0 ? spec.cores : active_cores;
}

Hertz NodeGroup::freq() const {
  return frequency.value() == 0.0 ? spec.dvfs.max() : frequency;
}

unsigned ClusterSpec::total_nodes() const {
  unsigned n = 0;
  for (const auto& g : groups) n += g.count;
  return n;
}

std::string ClusterSpec::label() const {
  std::string out;
  for (const auto& g : groups) {
    if (!out.empty()) out += ":";
    out += std::to_string(g.count) + g.spec.name;
  }
  return out.empty() ? "(empty)" : out;
}

Watts ClusterSpec::nameplate_power() const {
  Watts p = overhead_power;
  for (const auto& g : groups)
    p += g.spec.nameplate_peak * static_cast<double>(g.count);
  return p;
}

void ClusterSpec::validate() const {
  require(!groups.empty(), "ClusterSpec: no node groups");
  bool any = false;
  for (const auto& g : groups) {
    g.spec.validate();
    if (g.count > 0) any = true;
    if (g.cores() < 1 || g.cores() > g.spec.cores) {
      throw PreconditionError("ClusterSpec: active cores out of range for " +
                              g.spec.name);
    }
    const Hertz f = g.freq();
    if (!(f >= g.spec.dvfs.min() && f <= g.spec.dvfs.max())) {
      throw PreconditionError(
          "ClusterSpec: frequency outside the DVFS ladder of " + g.spec.name);
    }
  }
  require(any, "ClusterSpec: cluster has zero nodes");
}

ClusterSpec make_two_type_cluster(const hw::NodeSpec& wimpy,
                                  unsigned n_wimpy,
                                  const hw::NodeSpec& brawny,
                                  unsigned n_brawny) {
  require(n_wimpy + n_brawny > 0, "make_two_type_cluster: empty cluster");
  ClusterSpec cluster;
  if (n_wimpy > 0)
    cluster.groups.push_back(NodeGroup{wimpy, n_wimpy, 0, Hertz{}});
  if (n_brawny > 0)
    cluster.groups.push_back(NodeGroup{brawny, n_brawny, 0, Hertz{}});
  cluster.overhead_power = hw::switch_power_for(n_wimpy);
  cluster.validate();
  return cluster;
}

ClusterSpec make_a9_k10_cluster(unsigned n_a9, unsigned n_k10) {
  return make_two_type_cluster(hw::cortex_a9(), n_a9, hw::opteron_k10(),
                               n_k10);
}

}  // namespace hcep::model
