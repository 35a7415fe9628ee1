// Simulated testbed: with ideal overheads the simulator must reproduce the
// analytic model; with testbed overheads it must deviate like real
// hardware does.
#include <gtest/gtest.h>

#include "hcep/cluster/campaign.hpp"
#include "hcep/cluster/overheads.hpp"
#include "hcep/cluster/simulator.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::cluster;
using namespace hcep::literals;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

model::TimeEnergyModel ep_model() {
  return {model::make_a9_k10_cluster(4, 2), wl("EP")};
}

TEST(Overheads, TableCoversAllProgramsAndIdealIsIdentity) {
  for (const auto& p : workload::program_names()) {
    const WorkloadOverheads o = testbed_overheads(p);
    EXPECT_GE(o.time_factor, 1.0) << p;
    EXPECT_GT(o.power_factor, 0.5) << p;
    EXPECT_GE(o.dispatch.value(), 0.0) << p;
  }
  EXPECT_THROW((void)testbed_overheads("doom"), PreconditionError);
  const WorkloadOverheads ideal = ideal_overheads();
  EXPECT_DOUBLE_EQ(ideal.time_factor, 1.0);
  EXPECT_DOUBLE_EQ(ideal.power_factor, 1.0);
  EXPECT_DOUBLE_EQ(ideal.dispatch.value(), 0.0);
  EXPECT_DOUBLE_EQ(ideal.service_noise_cv, 0.0);
}

TEST(Simulate, IdleWindowDrawsExactlyIdlePower) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.0;
  opts.min_jobs = 10;
  const SimResult r = simulate(m, opts);
  EXPECT_EQ(r.jobs_arrived, 0u);
  EXPECT_EQ(r.jobs_completed, 0u);
  EXPECT_NEAR(r.average_power.value(), m.idle_power().value(), 1e-9);
  EXPECT_DOUBLE_EQ(r.measured_utilization, 0.0);
}

class UtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilizationSweep, AveragePowerTracksLinearModel) {
  const double u = GetParam();
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = u;
  opts.min_jobs = 600;
  opts.use_testbed_overheads = false;  // model-exact service/power
  const SimResult r = simulate(m, opts);
  // The simulator realizes a slightly different utilization (arrival
  // stream truncation); compare against the model at the realized value.
  const double model_power =
      m.average_power(r.measured_utilization).value();
  EXPECT_NEAR(r.average_power.value(), model_power, model_power * 0.02)
      << "target u=" << u;
}

TEST_P(UtilizationSweep, RealizedUtilizationNearTarget) {
  const double u = GetParam();
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = u;
  opts.min_jobs = 2500;
  opts.use_testbed_overheads = false;
  const SimResult r = simulate(m, opts);
  EXPECT_NEAR(r.measured_utilization, u, 0.08) << "target u=" << u;
}

INSTANTIATE_TEST_SUITE_P(Grid, UtilizationSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Simulate, MeteredEnergyTracksExactTraceIntegral) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.5;
  opts.min_jobs = 300;
  const SimResult r = simulate(m, opts);
  EXPECT_NEAR(r.energy_measured.value(), r.energy_exact.value(),
              r.energy_exact.value() * 0.01);
}

TEST(Simulate, AllArrivedJobsComplete) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.7;
  opts.min_jobs = 200;
  const SimResult r = simulate(m, opts);
  EXPECT_EQ(r.jobs_completed, r.jobs_arrived);
  EXPECT_GT(r.jobs_completed, 50u);
}

TEST(Simulate, ResponseGrowsWithUtilization) {
  const auto m = ep_model();
  double prev = 0.0;
  for (double u : {0.2, 0.5, 0.8}) {
    SimOptions opts;
    opts.utilization = u;
    opts.min_jobs = 800;
    opts.use_testbed_overheads = false;
    const SimResult r = simulate(m, opts);
    EXPECT_GT(r.p95_response.value(), prev);
    prev = r.mean_response.value();  // compare p95 against previous mean
  }
}

TEST(Simulate, ServiceTimeMatchesModelWithoutOverheads) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.3;
  opts.min_jobs = 200;
  opts.use_testbed_overheads = false;
  const SimResult r = simulate(m, opts);
  const Seconds model_time =
      m.execution_time(wl("EP").units_per_job).t_p;
  EXPECT_NEAR(r.mean_service.value(), model_time.value(),
              model_time.value() * 1e-6);
}

TEST(Simulate, TestbedOverheadsInflateServiceTime) {
  const auto m = ep_model();
  SimOptions with, without;
  with.utilization = without.utilization = 0.3;
  with.min_jobs = without.min_jobs = 300;
  without.use_testbed_overheads = false;
  const SimResult a = simulate(m, with);
  const SimResult b = simulate(m, without);
  EXPECT_GT(a.mean_service.value(), b.mean_service.value());
}

TEST(Simulate, CountersAccumulatePerJob) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.4;
  opts.min_jobs = 100;
  const SimResult r = simulate(m, opts);
  ASSERT_EQ(r.counters.size(), 2u);
  for (const auto& c : r.counters) {
    EXPECT_EQ(c.jobs_served, r.jobs_completed);
    EXPECT_GT(c.work_cycles, 0.0);
  }
  // Counter totals scale with completed jobs: cycles per job constant.
  const double per_job = r.counters[0].work_cycles /
                         static_cast<double>(r.jobs_completed);
  EXPECT_GT(per_job, 0.0);
}

TEST(Simulate, DeterministicForFixedSeed) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.5;
  opts.min_jobs = 100;
  opts.seed = 77;
  const SimResult a = simulate(m, opts);
  const SimResult b = simulate(m, opts);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_DOUBLE_EQ(a.energy_exact.value(), b.energy_exact.value());
  EXPECT_DOUBLE_EQ(a.p95_response.value(), b.p95_response.value());
}

TEST(Simulate, BatchArrivalsPreserveUtilization) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 0.5;
  opts.min_jobs = 1500;
  opts.use_testbed_overheads = false;
  opts.batch_size = 5;
  const SimResult r = simulate(m, opts);
  EXPECT_NEAR(r.measured_utilization, 0.5, 0.08);
  EXPECT_EQ(r.jobs_completed % 5, 0u);  // whole batches
}

TEST(Simulate, LargerBatchesLengthenTheTail) {
  const auto m = ep_model();
  SimOptions single, batched;
  single.utilization = batched.utilization = 0.6;
  single.min_jobs = batched.min_jobs = 2000;
  single.use_testbed_overheads = batched.use_testbed_overheads = false;
  batched.batch_size = 10;
  const SimResult a = simulate(m, single);
  const SimResult b = simulate(m, batched);
  // At equal utilization, batching bursts the queue: the 95th percentile
  // response must grow markedly.
  EXPECT_GT(b.p95_response.value(), a.p95_response.value() * 1.5);
}

TEST(Simulate, Validation) {
  const auto m = ep_model();
  SimOptions opts;
  opts.utilization = 1.0;
  EXPECT_THROW((void)simulate(m, opts), PreconditionError);
  opts.utilization = 0.5;
  opts.min_jobs = 0;
  EXPECT_THROW((void)simulate(m, opts), PreconditionError);
  opts.min_jobs = 10;
  opts.batch_size = 0;
  EXPECT_THROW((void)simulate(m, opts), PreconditionError);
}

TEST(MeasureBatch, PerJobTimeMatchesOverheadFactor) {
  const auto m = ep_model();
  const Seconds model_time = m.execution_time(wl("EP").units_per_job).t_p;
  const JobMeasurement meas = measure_batch(m, 40, 9);
  const WorkloadOverheads ovh = testbed_overheads("EP");
  const double expected =
      model_time.value() * ovh.time_factor + ovh.dispatch.value();
  EXPECT_NEAR(meas.time_per_job.value(), expected, expected * 0.02);
}

TEST(MeasureBatch, IdealOverheadsReproduceModelEnergy) {
  const auto m = ep_model();
  const JobMeasurement meas = measure_batch(m, 30, 9, false);
  const Seconds model_time = m.execution_time(wl("EP").units_per_job).t_p;
  const Joules model_energy = m.job_energy(wl("EP").units_per_job).e_p;
  EXPECT_NEAR(meas.time_per_job.value(), model_time.value(),
              model_time.value() * 1e-9);
  EXPECT_NEAR(meas.energy_per_job.value(), model_energy.value(),
              model_energy.value() * 0.02);
}

TEST(MeasureBatch, Validation) {
  const auto m = ep_model();
  EXPECT_THROW((void)measure_batch(m, 0), PreconditionError);
}

TEST(Campaign, MeasuredCurveTracksModelCurve) {
  const auto m = ep_model();
  CampaignOptions opts;
  opts.use_testbed_overheads = false;
  opts.min_jobs = 250;
  opts.utilizations = {0.0, 0.25, 0.5, 0.75};
  const CampaignResult r = run_campaign(m, opts);
  ASSERT_EQ(r.points.size(), 4u);
  const power::PowerCurve measured = r.measured_curve();
  for (double u : {0.0, 0.25, 0.5, 0.75}) {
    const double model_p = m.average_power(u).value();
    EXPECT_NEAR(measured.at(u).value(), model_p, model_p * 0.06)
        << "u=" << u;
  }
}

TEST(Campaign, ThroughputScalesWithUtilization) {
  const auto m = ep_model();
  CampaignOptions opts;
  opts.use_testbed_overheads = false;
  opts.min_jobs = 250;
  opts.utilizations = {0.2, 0.6};
  const CampaignResult r = run_campaign(m, opts);
  EXPECT_GT(r.points[1].throughput, 2.0 * r.points[0].throughput * 0.8);
}

TEST(Campaign, MeasuredCurveKeepsFinalDuplicateKnot) {
  // Regression: a grid ending on a repeated utilization (a re-measured
  // point) used to drop the final measurement entirely and extend the
  // curve to u=1 from the stale earlier knot.
  CampaignResult r;
  const auto mk = [](double u, double p) {
    CampaignPoint pt;
    pt.target_utilization = u;
    pt.average_power = Watts{p};
    return pt;
  };
  r.points = {mk(0.0, 100.0), mk(0.5, 150.0), mk(0.9, 180.0),
              mk(0.9, 200.0)};
  const power::PowerCurve curve = r.measured_curve();
  EXPECT_DOUBLE_EQ(curve.at(0.0).value(), 100.0);
  EXPECT_DOUBLE_EQ(curve.at(0.5).value(), 150.0);
  // Last measurement wins the duplicate knot and anchors the u=1 tail.
  EXPECT_DOUBLE_EQ(curve.at(0.9).value(), 200.0);
  EXPECT_DOUBLE_EQ(curve.at(1.0).value(), 200.0);
}

TEST(Campaign, RejectsUnsortedGrid) {
  const auto m = ep_model();
  CampaignOptions opts;
  opts.utilizations = {0.5, 0.2};
  EXPECT_THROW((void)run_campaign(m, opts), PreconditionError);
}

}  // namespace
