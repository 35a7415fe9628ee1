// M/D/c analytics: Erlang-C and the Allen-Cunneen approximation,
// cross-checked against the queue specializations and the traffic
// simulator on a homogeneous pool.
#include <gtest/gtest.h>

#include "hcep/hw/catalog.hpp"
#include "hcep/queueing/md1.hpp"
#include "hcep/queueing/mdc.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/workload/node_ops.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::queueing;
using namespace hcep::literals;

TEST(ErlangC, KnownValues) {
  // Textbook value: a = 2 Erlang, c = 3 servers -> C ~ 0.4444.
  EXPECT_NEAR(erlang_c(2.0, 3), 4.0 / 9.0, 1e-9);
  // c = 1: C(a, 1) = a (pure birth-death).
  EXPECT_NEAR(erlang_c(0.6, 1), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(erlang_c(0.0, 4), 0.0);
}

TEST(ErlangC, BoundsAndMonotonicity) {
  for (unsigned c = 1; c <= 8; ++c) {
    double prev = 0.0;
    for (double rho = 0.1; rho < 1.0; rho += 0.1) {
      const double v = erlang_c(rho * c, c);
      EXPECT_GE(v, prev);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      prev = v;
    }
  }
  EXPECT_THROW((void)erlang_c(3.0, 3), PreconditionError);
  EXPECT_THROW((void)erlang_c(1.0, 0), PreconditionError);
}

TEST(MDc, SingleServerReducesToMD1Exactly) {
  // Allen-Cunneen at c=1: Wq(M/M/1)/2 == the exact M/D/1 P-K value.
  for (double rho : {0.2, 0.5, 0.8}) {
    const MDc mdc = MDc::from_utilization(10_ms, rho, 1);
    const MD1 md1 = MD1::from_utilization(10_ms, rho);
    EXPECT_NEAR(mdc.mean_wait().value(), md1.mean_wait().value(), 1e-15)
        << rho;
  }
}

TEST(MDc, MoreServersWaitLessAtEqualUtilization) {
  double prev = 1e9;
  for (unsigned c : {1u, 2u, 4u, 8u}) {
    const MDc q = MDc::from_utilization(10_ms, 0.7, c);
    EXPECT_LT(q.mean_wait().value(), prev);
    prev = q.mean_wait().value();
  }
}

TEST(MDc, TracksHomogeneousDispatchSimulation) {
  // 4 identical A9 nodes under JSQ ~ an M/D/4 queue.
  static const auto ep = workload::make_workload("EP");
  const auto cluster_spec = model::make_a9_k10_cluster(4, 0);
  const std::vector<traffic::TrafficClass> classes{{ep, 1.0, {}}};
  traffic::TrafficOptions opts;
  opts.policy = cluster::DispatchPolicy::kJoinShortestQueue;
  opts.requests = 6000;
  opts.seed = 71;
  const auto arrivals = traffic::make_poisson(
      0.7 * traffic::cluster_capacity_per_s(cluster_spec, classes));
  const auto sim =
      traffic::simulate_traffic(cluster_spec, classes, *arrivals, opts);

  const Seconds per_node_service{
      ep.units_per_job /
      workload::unit_throughput(ep.demand_for("A9"), hw::cortex_a9(),
                                hw::cortex_a9().cores,
                                hw::cortex_a9().dvfs.max())};
  const MDc q = MDc::from_utilization(per_node_service, 0.7, 4);
  EXPECT_NEAR(sim.sojourn.mean.value(), q.mean_response().value(),
              q.mean_response().value() * 0.25);
}

TEST(MDc, Validation) {
  EXPECT_THROW(MDc(0_s, 1.0, 2), PreconditionError);
  EXPECT_THROW(MDc(1_s, 2.0, 2), PreconditionError);  // rho = 1
  EXPECT_THROW(MDc(1_s, 0.5, 0), PreconditionError);
  EXPECT_THROW((void)MDc::from_utilization(1_s, 1.0, 2),
               PreconditionError);
}

}  // namespace
