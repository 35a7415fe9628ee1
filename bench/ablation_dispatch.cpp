// Ablation — dispatch policy on a heterogeneous floor.
//
// The paper defers dynamic workload adaptation to complementary work;
// here five dispatcher policies route atomic jobs over the individual
// nodes of an 8 A9 + 2 K10 cluster, quantifying the latency/energy spread
// that heterogeneity-aware dispatch buys.
#include <iostream>

#include <vector>

#include "bench_common.hpp"
#include "hcep/cluster/dispatch.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"

namespace {

using namespace hcep;

/// `requests` Poisson arrivals at `u` of the cluster's capacity under the
/// class mix, dispatched by `policy`.
traffic::TrafficResult dispatch(
    const model::ClusterSpec& cluster,
    const std::vector<traffic::TrafficClass>& classes,
    cluster::DispatchPolicy policy, double u, std::uint64_t requests) {
  traffic::TrafficOptions opts;
  opts.policy = policy;
  opts.requests = requests;
  opts.seed = 71;
  const auto arrivals = traffic::make_poisson(
      u * traffic::cluster_capacity_per_s(cluster, classes));
  return traffic::simulate_traffic(cluster, classes, *arrivals, opts);
}

}  // namespace

int main() {
  bench::banner("Ablation: dispatch policies on 8 A9 + 2 K10",
                "Section I's 'dynamic adaptation' complement");

  const auto cluster = model::make_a9_k10_cluster(8, 2);
  for (const auto* program : {"EP", "x264"}) {
    const auto& w = bench::study().workload(program);
    for (double u : {0.5, 0.8}) {
      std::cout << "\n[" << program << " @ " << fmt(u * 100, 0)
                << "% utilization]\n";
      TextTable table({"policy", "p95 [ms]", "mean [ms]", "J/job",
                       "A9 jobs", "K10 jobs"});
      for (const auto policy : cluster::all_dispatch_policies()) {
        const auto r = dispatch(cluster, {{w, 1.0, {}}}, policy, u, 3000);
        std::uint64_t a9_jobs = 0, k10_jobs = 0;
        for (const auto& n : r.nodes) {
          if (n.node_name == "A9") a9_jobs = n.jobs_served;
          if (n.node_name == "K10") k10_jobs = n.jobs_served;
        }
        table.add_row({cluster::to_string(policy),
                       fmt(r.sojourn.p95.value() * 1e3, 1),
                       fmt(r.sojourn.mean.value() * 1e3, 1),
                       fmt(r.energy_per_request.value(), 2),
                       std::to_string(a9_jobs), std::to_string(k10_jobs)});
      }
      std::cout << table;
    }
  }
  // Mixed stream: a 3:1 EP / x264 diet, where per-job node choice must
  // account for the job's program, not just the node.
  std::cout << "\n[mixed stream: 75% EP + 25% x264 @ 60% utilization]\n";
  {
    const std::vector<traffic::TrafficClass> classes{
        {bench::study().workload("EP"), 3.0, {}},
        {bench::study().workload("x264"), 1.0, {}}};
    TextTable table({"policy", "overall p95 [s]", "EP p95 [s]",
                     "x264 p95 [s]", "J/job"});
    for (const auto policy : cluster::all_dispatch_policies()) {
      const auto r = dispatch(cluster, classes, policy, 0.6, 4000);
      table.add_row({cluster::to_string(policy),
                     fmt(r.sojourn.p95.value(), 3),
                     fmt(r.classes[0].sojourn.p95.value(), 3),
                     fmt(r.classes[1].sojourn.p95.value(), 3),
                     fmt(r.energy_per_request.value(), 2)});
    }
    std::cout << table;
  }

  std::cout << "\nreading: heterogeneity-blind policies (round-robin,\n"
               "random) pay heavily on x264 where node speeds differ ~37x;\n"
               "completion-aware dispatch recovers most of it — also under\n"
               "a mixed diet, where the x264 minority dominates blind tails\n";
  return 0;
}
