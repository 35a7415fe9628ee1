// The operating points of one A9/K10 mix, shared by the governor and
// power-cap studies.
#pragma once

#include <string>
#include <vector>

#include "hcep/analysis/pareto_study.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/util/table.hpp"

namespace hcep::analysis::detail {

/// One (cores, frequency) setting of every node group of a mix.
struct OperatingPoint {
  double throughput = 0.0;  ///< units/s at this (c, f)
  Watts idle{};
  Watts busy{};
  std::string label;  ///< e.g. "A9@4c/1.4GHz+K10@2c/2.1GHz"
};

/// Every (A9 cores, A9 frequency, K10 cores, K10 frequency) setting of
/// `mix` in that nesting order, frequency innermost; a type the mix
/// leaves out contributes one setting.
inline std::vector<OperatingPoint> enumerate_points(
    const MixCounts& mix, const workload::Workload& workload) {
  const hw::NodeSpec a9 = hw::cortex_a9();
  const hw::NodeSpec k10 = hw::opteron_k10();

  std::vector<OperatingPoint> out;
  const unsigned a9_cores = mix.a9 > 0 ? a9.cores : 1;
  const std::size_t a9_freqs = mix.a9 > 0 ? a9.dvfs.size() : 1;
  const unsigned k10_cores = mix.k10 > 0 ? k10.cores : 1;
  const std::size_t k10_freqs = mix.k10 > 0 ? k10.dvfs.size() : 1;

  for (unsigned ca = 1; ca <= a9_cores; ++ca) {
    for (std::size_t fa = 0; fa < a9_freqs; ++fa) {
      for (unsigned ck = 1; ck <= k10_cores; ++ck) {
        for (std::size_t fk = 0; fk < k10_freqs; ++fk) {
          model::ClusterSpec cfg;
          std::string label;
          if (mix.a9 > 0) {
            cfg.groups.push_back(
                model::NodeGroup{a9, mix.a9, ca, a9.dvfs.step(fa)});
            label += "A9@" + std::to_string(ca) + "c/" +
                     fmt(a9.dvfs.step(fa).value() / 1e9, 1) + "GHz";
          }
          if (mix.k10 > 0) {
            cfg.groups.push_back(
                model::NodeGroup{k10, mix.k10, ck, k10.dvfs.step(fk)});
            if (!label.empty()) label += "+";
            label += "K10@" + std::to_string(ck) + "c/" +
                     fmt(k10.dvfs.step(fk).value() / 1e9, 1) + "GHz";
          }
          const model::TimeEnergyModel m(cfg, workload);
          out.push_back(OperatingPoint{.throughput = m.peak_throughput(),
                                       .idle = m.idle_power(),
                                       .busy = m.busy_power(),
                                       .label = std::move(label)});
        }
      }
    }
  }
  return out;
}

}  // namespace hcep::analysis::detail
