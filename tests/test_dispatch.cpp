// Heterogeneity-aware dispatch policies (extension), run through
// traffic::simulate_traffic with Poisson arrivals at a fraction of the
// cluster's capacity.
#include <gtest/gtest.h>

#include <cctype>
#include <map>

#include "hcep/cluster/dispatch.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::cluster;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

/// `requests` Poisson arrivals at `u` of the cluster's capacity under
/// the class mix, dispatched by `policy`.
traffic::TrafficResult run(const model::ClusterSpec& cluster,
                           const std::vector<traffic::TrafficClass>& classes,
                           DispatchPolicy policy, double u = 0.5,
                           std::uint64_t requests = 1500) {
  traffic::TrafficOptions o;
  o.policy = policy;
  o.requests = requests;
  o.seed = 71;
  const auto arrivals = traffic::make_poisson(
      u * traffic::cluster_capacity_per_s(cluster, classes));
  return traffic::simulate_traffic(cluster, classes, *arrivals, o);
}

traffic::TrafficResult run(const model::ClusterSpec& cluster,
                           const std::string& program, DispatchPolicy policy,
                           double u = 0.5, std::uint64_t requests = 1500) {
  return run(cluster, {traffic::TrafficClass{wl(program), 1.0, {}}}, policy,
             u, requests);
}

TEST(Dispatch, PolicyNamesAndList) {
  const auto policies = all_dispatch_policies();
  EXPECT_EQ(policies.size(), 5u);
  for (const auto p : policies) EXPECT_FALSE(to_string(p).empty());
  EXPECT_EQ(to_string(DispatchPolicy::kRoundRobin), "round-robin");
}

class EveryPolicy : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(EveryPolicy, CompletesAllJobsAndAccountsEnergy) {
  const auto cluster = model::make_a9_k10_cluster(6, 2);
  const auto r = run(cluster, "EP", GetParam());
  EXPECT_EQ(r.completed, 1500u);
  EXPECT_GT(r.makespan.value(), 0.0);
  EXPECT_GT(r.energy.value(), 0.0);
  EXPECT_GT(r.sojourn.p95, r.sojourn.mean);

  std::uint64_t served = 0;
  for (const auto& n : r.nodes) {
    served += n.jobs_served;
    EXPECT_GE(n.busy_fraction, 0.0);
    EXPECT_LE(n.busy_fraction, 1.0 + 1e-9);
  }
  EXPECT_EQ(served, r.completed);
}

TEST_P(EveryPolicy, DeterministicForFixedSeed) {
  const auto cluster = model::make_a9_k10_cluster(4, 1);
  const auto a = run(cluster, "EP", GetParam(), 0.5, 500);
  const auto b = run(cluster, "EP", GetParam(), 0.5, 500);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicy,
                         ::testing::ValuesIn(all_dispatch_policies()),
                         [](const auto& inst) {
                           std::string n = to_string(inst.param);
                           for (auto& ch : n)
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           return n;
                         });

TEST(Dispatch, FastestFirstBeatsBlindPoliciesOnLatency) {
  // On a heterogeneous floor with EP (K10 ~6.7x faster per node),
  // completion-time-aware dispatch must beat round-robin on p95.
  const auto cluster = model::make_a9_k10_cluster(8, 2);
  const auto smart =
      run(cluster, "EP", DispatchPolicy::kFastestFirst, 0.6, 3000);
  const auto blind = run(cluster, "EP", DispatchPolicy::kRoundRobin, 0.6, 3000);
  EXPECT_LT(smart.sojourn.p95.value(), blind.sojourn.p95.value());
}

TEST(Dispatch, LeastEnergyPrefersTheEfficientType) {
  // For EP the A9 costs less dynamic energy per job; the least-energy
  // policy must route the bulk of the jobs there.
  const auto cluster = model::make_a9_k10_cluster(6, 2);
  const auto r = run(cluster, "EP", DispatchPolicy::kLeastEnergy, 0.3, 2000);
  std::map<std::string, std::uint64_t> served;
  for (const auto& n : r.nodes) served[n.node_name] = n.jobs_served;
  EXPECT_GT(served.at("A9"), served.at("K10"));
}

TEST(Dispatch, LeastEnergyUsesLessDynamicEnergyThanFastestFirst) {
  const auto cluster = model::make_a9_k10_cluster(6, 2);
  const auto green =
      run(cluster, "EP", DispatchPolicy::kLeastEnergy, 0.3, 2000);
  const auto fast =
      run(cluster, "EP", DispatchPolicy::kFastestFirst, 0.3, 2000);
  // Same idle floor dominates total energy; compare per-job energy with
  // the makespan effect: green must not be more power-hungry on average.
  EXPECT_LE(green.average_power.value(), fast.average_power.value() * 1.05);
}

TEST(Dispatch, HigherUtilizationRaisesResponse) {
  const auto cluster = model::make_a9_k10_cluster(4, 1);
  const auto low =
      run(cluster, "EP", DispatchPolicy::kJoinShortestQueue, 0.3, 2000);
  const auto high =
      run(cluster, "EP", DispatchPolicy::kJoinShortestQueue, 0.85, 2000);
  EXPECT_GT(high.sojourn.p95.value(), low.sojourn.p95.value());
}

TEST(MixedDispatch, JobSharesFollowWeights) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  const auto r = run(cluster,
                     {traffic::TrafficClass{wl("EP"), 3.0, {}},
                      traffic::TrafficClass{wl("blackscholes"), 1.0, {}}},
                     DispatchPolicy::kFastestFirst, 0.5, 4000);
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].name, "EP");
  EXPECT_EQ(r.classes[1].name, "blackscholes");
  const double share = static_cast<double>(r.classes[0].completed) / 4000.0;
  EXPECT_NEAR(share, 0.75, 0.03);  // weight 3:1
  EXPECT_EQ(r.classes[0].completed + r.classes[1].completed, 4000u);
}

TEST(MixedDispatch, PerProgramResponsesDiffer) {
  // x264 jobs (~250 s on an A9) dwarf EP jobs (~1.4 s on an A9); their
  // percentiles must separate.
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  const auto r = run(cluster,
                     {traffic::TrafficClass{wl("EP"), 1.0, {}},
                      traffic::TrafficClass{wl("x264"), 1.0, {}}},
                     DispatchPolicy::kFastestFirst, 0.4, 2000);
  EXPECT_GT(r.classes[1].sojourn.p95.value(),
            r.classes[0].sojourn.p95.value());
}

TEST(Dispatch, RejectsWorkloadWithoutDemand) {
  workload::CatalogOptions copts;
  copts.nodes = {hw::cortex_a9()};
  const std::vector<traffic::TrafficClass> a9_only{
      {workload::make_workload("EP", copts), 1.0, {}}};
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  EXPECT_THROW((void)traffic::cluster_capacity_per_s(cluster, a9_only),
               PreconditionError);
  EXPECT_THROW((void)traffic::simulate_traffic(
                   cluster, a9_only, *traffic::make_poisson(1.0), {}),
               PreconditionError);
}

}  // namespace
