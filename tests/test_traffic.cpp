// hcep::traffic — request-level load generation, admission control and
// SLO accounting. The keystone check: with one node, one class and
// Poisson arrivals the simulator IS an M/D/1 queue, so its measured
// waiting/response statistics must match queueing::MD1's closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hcep/control/controllers.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/queueing/md1.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::traffic;
using namespace hcep::literals;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

std::vector<TrafficClass> one_class(const std::string& name = "EP") {
  return {TrafficClass{wl(name), 1.0, SloTarget{}}};
}

/// Runs `run`, which must throw a PreconditionError whose message names
/// `option`.
template <class F>
void expect_rejected_naming(F run, const std::string& option) {
  try {
    run();
    ADD_FAILURE() << "no PreconditionError naming " << option;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- keystone

class PoissonVsMD1 : public ::testing::TestWithParam<double> {};

TEST_P(PoissonVsMD1, MatchesClosedForms) {
  // Single K10 node, one class, no admission control: an M/D/1 queue.
  const double rho = GetParam();
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  const Seconds service{1.0 / capacity};
  const double lambda = rho * capacity;

  TrafficOptions options;
  options.requests = 200000;
  options.seed = 20160919;
  const auto r =
      simulate_traffic(cluster, classes, *make_poisson(lambda), options);
  ASSERT_EQ(r.completed, options.requests);

  const queueing::MD1 q(service, lambda);
  EXPECT_NEAR(r.wait.mean.value(), q.mean_wait().value(),
              0.1 * q.mean_wait().value() + 0.02 * service.value())
      << "rho=" << rho;
  EXPECT_NEAR(r.sojourn.p95.value(), q.response_percentile(95.0).value(),
              0.1 * q.response_percentile(95.0).value())
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, PoissonVsMD1,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8, 0.9),
                         [](const auto& inst) {
                           return "rho" + std::to_string(static_cast<int>(
                                              inst.param * 100.0));
                         });

// ------------------------------------------------------------- invariants

TEST(Traffic, SojournIsWaitPlusServiceWithoutAdmission) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 5000;
  const auto r = simulate_traffic(cluster, one_class(), *make_poisson(50.0),
                                  options);
  EXPECT_EQ(r.offered, 5000u);
  EXPECT_EQ(r.admitted, 5000u);
  EXPECT_EQ(r.completed, 5000u);
  EXPECT_EQ(r.shed_bucket + r.shed_queue, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_NEAR(r.sojourn.mean.value(),
              r.wait.mean.value() + r.service.mean.value(), 1e-9);
  EXPECT_GT(r.energy.value(), 0.0);
  EXPECT_GT(r.energy_per_request.value(), 0.0);
  EXPECT_GT(r.average_power.value(), 0.0);
}

TEST(Traffic, SameSeedRunsAreByteIdentical) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 2000;
  options.seed = 7;
  const auto a = simulate_traffic(cluster, one_class(),
                                  *make_bursty(20.0, 5_s, 200.0, 1_s),
                                  options);
  const auto b = simulate_traffic(cluster, one_class(),
                                  *make_bursty(20.0, 5_s, 200.0, 1_s),
                                  options);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Traffic, SameSeedRunReportsAreByteIdentical) {
  const auto cluster = model::make_a9_k10_cluster(1, 1);
  TrafficOptions options;
  options.requests = 1000;
  const auto report = [&]() {
    obs::Observer observer;
    obs::ScopedObserver scope(observer);
    const auto r = simulate_traffic(cluster, one_class(),
                                    *make_poisson(40.0), options);
    EXPECT_EQ(r.completed, 1000u);
    const auto trace = obs::Trace::from(observer.tracer);
    const auto snapshot = observer.metrics.snapshot();
    return obs::make_run_report(trace, "traffic", 1.0, &snapshot).json();
  };
  EXPECT_EQ(report(), report());
}

TEST(Traffic, ObsCountersLedgerTheRun) {
  // A run adds its result's counts to the observer once, after the
  // merge: each counter equals the result, and the engine keeps no
  // latency histogram, control gauge or trace event of its own. Each
  // shard's event loop adds its des.events once, when it drains; the
  // total is an identity of the result's counts.
  const auto expect_ledger = [](const obs::Observer& observer,
                                const TrafficResult& r) {
    const auto snap = observer.metrics.snapshot();
    EXPECT_EQ(snap.counter("traffic.offered"), r.offered);
    EXPECT_EQ(snap.counter("traffic.admitted"), r.admitted);
    EXPECT_EQ(snap.counter("traffic.shed"), r.shed_bucket + r.shed_queue);
    EXPECT_EQ(snap.counter("traffic.retries"), r.retries);
    EXPECT_EQ(snap.counter("traffic.completed"), r.completed);
    EXPECT_EQ(snap.counter("traffic.failed"), r.failed);
    EXPECT_EQ(snap.counter("control.ticks"), r.control.ticks);
    EXPECT_EQ(snap.counter("control.sleeps"), r.control.sleeps);
    EXPECT_EQ(snap.counter("control.wakes"), r.control.wakes);
    EXPECT_EQ(snap.counter("control.point_changes"),
              r.control.point_changes);
    EXPECT_EQ(snap.histogram("traffic.sojourn_s"), nullptr);
    for (const auto& [name, value] : snap.gauges)
      EXPECT_FALSE(name.starts_with("control.")) << name;
    EXPECT_EQ(observer.tracer.recorded(), 0u);
  };
  {
    SCOPED_TRACE("admission and retries, one shard");
    obs::Observer observer;
    obs::ScopedObserver scope(observer);
    TrafficOptions options;
    options.requests = 800;
    options.admission.bucket_rate_per_s = 5.0;
    options.admission.bucket_burst = 10.0;
    options.retry.max_attempts = 2;
    options.retry.base_backoff = Seconds{0.05};
    const auto r = simulate_traffic(model::make_a9_k10_cluster(1, 0),
                                    one_class(), *make_poisson(50.0),
                                    options);
    EXPECT_GT(r.shed_bucket, 0u);
    expect_ledger(observer, r);
    // One pump event per arrival plus the firing that finds the budget
    // spent, one per retry timer, one per completion.
    EXPECT_EQ(observer.metrics.snapshot().counter("des.events"),
              r.offered + 1 + r.retries + r.completed);
  }
  {
    SCOPED_TRACE("power gate, two parallel shards");
    const auto cluster = model::make_a9_k10_cluster(4, 2);
    const double rate = 0.4 * cluster_capacity_per_s(cluster, one_class());
    obs::Observer observer;
    obs::ScopedObserver scope(observer);
    TrafficOptions options;
    options.requests = 4000;
    options.seed = 13;
    options.shards = 2;
    options.control.controller = control::make_power_gate();
    options.control.period = Seconds{50.0 / rate};
    options.control.wake_delay = Seconds{20.0 / rate};
    const auto r = simulate_traffic(
        cluster, one_class(),
        *make_diurnal(rate, 0.6, Seconds{1000.0 / rate}), options);
    EXPECT_GT(r.control.sleeps, 0u);
    EXPECT_GT(r.control.wakes, 0u);
    expect_ledger(observer, r);
    // One replayed arrival per request, one event per completion and per
    // counted tick, and per shard the periodic tick that finds it drained.
    EXPECT_EQ(observer.metrics.snapshot().counter("des.events"),
              r.offered + r.completed + r.control.ticks + 2);
  }
}

// ------------------------------------------------------ admission control

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(10.0, 3.0);
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.0}));
  EXPECT_FALSE(bucket.try_acquire(Seconds{0.0}));  // burst exhausted
  // 0.1 s at 10 tokens/s refills exactly one token.
  EXPECT_TRUE(bucket.try_acquire(Seconds{0.1}));
  EXPECT_FALSE(bucket.try_acquire(Seconds{0.1}));
  // Level is capped at burst no matter how long the idle gap.
  EXPECT_NEAR(bucket.level(Seconds{1000.0}), 3.0, 1e-12);
}

TEST(TokenBucketTest, RejectsBackwardsTimeAndBadParameters) {
  EXPECT_THROW(TokenBucket(0.0, 1.0), PreconditionError);
  EXPECT_THROW(TokenBucket(1.0, 0.0), PreconditionError);
  TokenBucket bucket(1.0, 1.0);
  EXPECT_TRUE(bucket.try_acquire(Seconds{5.0}));
  EXPECT_THROW((void)bucket.try_acquire(Seconds{4.0}), PreconditionError);
  EXPECT_THROW((void)bucket.try_acquire(Seconds{5.0}, 0.0),
               PreconditionError);
}

TEST(RetryPolicyTest, ExponentialBackoff) {
  RetryPolicy retry;
  retry.base_backoff = Seconds{0.1};
  retry.multiplier = 2.0;
  EXPECT_NEAR(retry.backoff_after(1).value(), 0.1, 1e-12);
  EXPECT_NEAR(retry.backoff_after(2).value(), 0.2, 1e-12);
  EXPECT_NEAR(retry.backoff_after(4).value(), 0.8, 1e-12);
  EXPECT_THROW((void)retry.backoff_after(0), PreconditionError);
}

TEST(Traffic, BucketShedsAndRetriesAreAccounted) {
  // Offered rate far above the bucket's sustained rate: the bucket must
  // shed, retries must re-enter, and every request must resolve.
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  TrafficOptions options;
  options.requests = 2000;
  options.admission.bucket_rate_per_s = 10.0;
  options.admission.bucket_burst = 5.0;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{0.01};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_poisson(100.0), options);
  EXPECT_GT(r.shed_bucket, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.completed + r.failed, r.offered);
  EXPECT_EQ(r.admitted, r.completed);
  // Sojourn of retried completions includes backoff: mean sojourn must be
  // at least mean wait + mean service.
  EXPECT_GE(r.sojourn.mean.value(),
            r.wait.mean.value() + r.service.mean.value() - 1e-9);
}

TEST(Traffic, QueueDepthSheddingBoundsTheWait) {
  // Overloaded single node with queue-depth shedding: no admitted request
  // can wait longer than the depth bound times the service time.
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  TrafficOptions options;
  options.requests = 3000;
  options.admission.max_queue_depth = 4;
  const auto r = simulate_traffic(cluster, classes,
                                  *make_deterministic(2.0 * capacity),
                                  options);
  EXPECT_GT(r.shed_queue, 0u);
  EXPECT_GT(r.failed, 0u);  // max_attempts defaults to 1: shed = failed
  EXPECT_EQ(r.shed_queue, r.failed);
  const double bound = 4.0 / capacity;
  EXPECT_LE(r.wait.max.value(), bound + 1e-9);
}

// --------------------------------------------------------- SLO accounting

TEST(Traffic, SloViolationsAreCounted) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  auto classes = one_class();
  classes[0].slo = SloTarget{Seconds{1e-9}, 0.95};  // impossible SLO
  TrafficOptions options;
  options.requests = 500;
  const auto strict = simulate_traffic(cluster, classes,
                                       *make_poisson(10.0), options);
  ASSERT_EQ(strict.classes.size(), 1u);
  EXPECT_EQ(strict.classes[0].slo_violations, strict.completed);
  EXPECT_DOUBLE_EQ(strict.classes[0].violation_fraction(), 1.0);
  EXPECT_FALSE(strict.classes[0].slo_met());

  classes[0].slo = SloTarget{Seconds{1e9}, 0.95};  // trivially met
  const auto loose = simulate_traffic(cluster, classes,
                                      *make_poisson(10.0), options);
  EXPECT_EQ(loose.classes[0].slo_violations, 0u);
  EXPECT_TRUE(loose.classes[0].slo_met());
}

TEST(Traffic, MultiClassWeightsSplitTheStream) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  std::vector<TrafficClass> classes = {
      TrafficClass{wl("EP"), 3.0, SloTarget{}},
      TrafficClass{wl("memcached"), 1.0, SloTarget{}},
  };
  TrafficOptions options;
  options.requests = 8000;
  const auto r = simulate_traffic(cluster, classes, *make_poisson(100.0),
                                  options);
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].offered + r.classes[1].offered, r.offered);
  EXPECT_EQ(r.classes[0].completed + r.classes[1].completed, r.completed);
  const double share = static_cast<double>(r.classes[0].offered) /
                       static_cast<double>(r.offered);
  EXPECT_NEAR(share, 0.75, 0.03);
  for (const auto& c : r.classes)
    EXPECT_GT(c.energy_per_request.value(), 0.0);
}

// ------------------------------------------------------- latency summaries

/// The order statistic at nearest rank ceil(q * n) of `sorted` (n > 0).
double nearest_rank(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Every input shape the summaries must bound: unsorted, ascending,
/// descending, all ties, mostly ties, one and two samples, none, and
/// values from 1e-300 to 1e300, more octaves than the sketch's bucket cap
/// holds at its default bound.
std::vector<std::vector<double>> oracle_inputs() {
  Rng rng(41);
  std::vector<double> random;
  for (int i = 0; i < 10007; ++i) random.push_back(rng.exponential(50.0));
  std::vector<double> ascending = random;
  std::sort(ascending.begin(), ascending.end());
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> mostly_zero(5000, 0.0);
  for (std::size_t i = 0; i < mostly_zero.size(); i += 97)
    mostly_zero[i] = rng.uniform01();
  std::vector<double> wide = {1e300, 1e-300};
  for (int i = 0; i < 5000; ++i)
    wide.push_back(std::pow(10.0, 600.0 * rng.uniform01() - 300.0));
  return {random,     ascending,         descending,
          std::vector<double>(777, 0.125), mostly_zero,
          {0.5},      {0.75, 0.25},      {},
          wide};
}

/// p50/p95/p99 of `s`, with their quantiles.
std::vector<std::pair<double, double>> percentiles(const LatencySummary& s) {
  return {{0.50, s.p50.value()}, {0.95, s.p95.value()}, {0.99, s.p99.value()}};
}

TEST(LatencySummaryTest, FromSamplesIsWithinEpsilonOfTheNearestRankOracle) {
  for (const std::vector<double>& in : oracle_inputs()) {
    SCOPED_TRACE(in.size());
    const LatencySummary s = LatencySummary::from_samples(in);
    ASSERT_EQ(s.count, in.size());
    if (in.empty()) {
      EXPECT_EQ(s.mean.value(), 0.0);
      EXPECT_EQ(s.max.value(), 0.0);
      for (const auto& [q, p] : percentiles(s)) EXPECT_EQ(p, 0.0) << q;
      continue;
    }
    std::vector<double> sorted = in;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double x : in) sum += x;
    EXPECT_EQ(s.mean.value(), sum / static_cast<double>(in.size()));
    EXPECT_EQ(s.max.value(), sorted.back());
    for (const auto& [q, p] : percentiles(s)) {
      const double x = nearest_rank(sorted, q);
      EXPECT_LE(std::abs(p - x), s.epsilon * x) << q;
      EXPECT_LE(p, s.max.value()) << q;
    }
    // The default bound, raised only for the 1e-300 to 1e300 input.
    if (sorted.back() < 1e100)
      EXPECT_EQ(s.epsilon, 0.00390625);
    else
      EXPECT_EQ(s.epsilon, 0.25);
  }
}

TEST(LatencySummaryTest, MergedSketchesSummarizeTheirUnion) {
  // Each input dealt into 1-8 parts of uneven length: a part is drawn as
  // the lesser of two uniform picks, so later parts get fewer values, and
  // one part in the middle stays empty; then into 70 parts. The repeated
  // values of the tie-heavy inputs land in several parts. Merged in part
  // order, the parts summarize as the whole input does: a summary does
  // not depend on how shards or sites split the requests. Only the mean
  // moves, with the order of its sum.
  Rng rng(43);
  for (const std::vector<double>& in : oracle_inputs()) {
    const LatencySummary whole = LatencySummary::from_samples(in);
    for (const std::size_t k : {1, 2, 3, 4, 5, 6, 7, 8, 70}) {
      SCOPED_TRACE(std::to_string(in.size()) + " values in " +
                   std::to_string(k) + " parts");
      std::vector<LatencySketch> parts(k);
      const std::size_t empty = k >= 3 ? k / 2 : k;
      for (const double v : in) {
        std::size_t r = std::min(rng.uniform_int(k), rng.uniform_int(k));
        if (r == empty) r = 0;
        parts[r].add(v);
      }
      LatencySketch merged;
      for (const LatencySketch& part : parts) merged.merge(part);
      const LatencySummary s = merged.summary();
      EXPECT_EQ(s.count, whole.count);
      EXPECT_EQ(s.p50.value(), whole.p50.value());
      EXPECT_EQ(s.p95.value(), whole.p95.value());
      EXPECT_EQ(s.p99.value(), whole.p99.value());
      EXPECT_EQ(s.max.value(), whole.max.value());
      EXPECT_EQ(s.epsilon, whole.epsilon);
      EXPECT_NEAR(s.mean.value(), whole.mean.value(),
                  1e-12 * whole.mean.value());
    }
  }
}

TEST(LatencySummaryTest, SloMetAgreesWithTheReportedQuantile) {
  // slo_met compares the violation fraction with 1 - q, which fits
  // exactly when the nearest-rank q-quantile is at or below the SLO
  // latency L. So a met SLO reports p_q <= (1 + epsilon) * L and a missed
  // one p_q > (1 - epsilon) * L. An interpolated percentile breaks this:
  // with 95 sojourns of 1 s and 5 of 3 s, violations of a 1.05 s SLO at
  // q 0.95 are 5%, so the SLO is met, yet interpolating between ranks
  // 95 and 96 reports a p95 of 1.1 s.
  std::vector<double> example(95, 1.0);
  example.insert(example.end(), 5, 3.0);
  std::vector<std::vector<double>> inputs = {example};
  Rng rng(53);
  for (const std::size_t n : {7, 100, 1001, 20000}) {
    std::vector<double> in;
    for (std::size_t i = 0; i < n; ++i) in.push_back(rng.exponential(20.0));
    inputs.push_back(std::move(in));
  }
  int met = 0;
  int missed = 0;
  for (const std::vector<double>& in : inputs) {
    std::vector<double> sorted = in;
    std::sort(sorted.begin(), sorted.end());
    ClassStats st;
    st.completed = in.size();
    st.sojourn = LatencySummary::from_samples(in);
    const double eps = st.sojourn.epsilon;
    for (const auto& [q, p] : percentiles(st.sojourn)) {
      // The example's SLO, and SLOs at and just around the order
      // statistics next to the quantile's rank.
      std::vector<double> latencies = {1.05};
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(in.size())));
      for (std::size_t r = std::max<std::size_t>(rank, 2) - 2;
           r < std::min(rank + 1, in.size()); ++r)
        for (const double scale : {1.0 - 1e-9, 1.0, 1.0 + 1e-9})
          latencies.push_back(sorted[r] * scale);
      for (const double latency : latencies) {
        SCOPED_TRACE(std::to_string(in.size()) + " sojourns, q " +
                     std::to_string(q) + ", L " + std::to_string(latency));
        st.slo = SloTarget{Seconds{latency}, q};
        st.slo_violations = static_cast<std::uint64_t>(std::count_if(
            in.begin(), in.end(), [&](double x) { return x > latency; }));
        if (st.slo_met()) {
          ++met;
          EXPECT_LE(p, (1.0 + eps) * latency);
        } else {
          ++missed;
          EXPECT_GT(p, (1.0 - eps) * latency);
        }
      }
    }
  }
  EXPECT_GT(met, 0);
  EXPECT_GT(missed, 0);
}

std::vector<TrafficClass> three_classes() {
  return {TrafficClass{wl("EP"), 3.0, SloTarget{}},
          TrafficClass{wl("memcached"), 2.0, SloTarget{}},
          TrafficClass{wl("blackscholes"), 1.0, SloTarget{}}};
}

/// Equality of every field but the mean, which moves with the order of
/// its sum; that agrees to 1e-12 relative.
void expect_same_summary(const LatencySummary& a, const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_NEAR(a.mean.value(), b.mean.value(), 1e-12 * b.mean.value());
  EXPECT_EQ(a.p50.value(), b.p50.value());
  EXPECT_EQ(a.p95.value(), b.p95.value());
  EXPECT_EQ(a.p99.value(), b.p99.value());
  EXPECT_EQ(a.max.value(), b.max.value());
  EXPECT_EQ(a.epsilon, b.epsilon);
}

TEST(Traffic, OverallSummaryIsTheClassUnion) {
  // Three classes, so the overall summaries merge three class sketches.
  TrafficOptions options;
  options.requests = 6000;
  options.seed = 13;
  options.record_requests = true;
  const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                  three_classes(), *make_poisson(300.0),
                                  options);
  ASSERT_EQ(r.classes.size(), 3u);
  std::vector<double> all;
  std::vector<std::vector<double>> per_class(3);
  for (const RequestRecord& rec : r.requests) {
    if (rec.failed != 0) continue;
    all.push_back(rec.sojourn.value());
    per_class[rec.cls].push_back(rec.sojourn.value());
  }
  for (const std::vector<double>& c : per_class) ASSERT_FALSE(c.empty());
  expect_same_summary(r.sojourn, LatencySummary::from_samples(all));
  for (std::size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(c);
    expect_same_summary(r.classes[c].sojourn,
                        LatencySummary::from_samples(per_class[c]));
  }
}

// ------------------------------------------------------------ replay I/O

/// One record per offered request, in arrival-index order.
void expect_records_join(const TrafficResult& r) {
  ASSERT_EQ(r.requests.size(), r.offered);
  for (std::size_t k = 0; k < r.requests.size(); ++k)
    EXPECT_EQ(r.requests[k].index, k);
}

TEST(Traffic, ReplayTraceDrivesTheRunAndExhausts) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const auto arrivals = make_replay(
      {Seconds{0.5}, Seconds{1.0}, Seconds{1.5}}, /*loop=*/false);
  TrafficOptions options;
  options.requests = 10;  // more than the trace holds
  options.record_requests = true;
  const auto r = simulate_traffic(cluster, one_class(), *arrivals, options);
  EXPECT_EQ(r.offered, 3u);
  EXPECT_EQ(r.completed, 3u);
  expect_records_join(r);
}

TEST(Traffic, CsvAndJsonlParsersRoundTrip) {
  const auto csv = read_arrivals_csv("ts,node\n0.25,a\n0.75,b\n2,c\n");
  ASSERT_EQ(csv.size(), 3u);
  EXPECT_DOUBLE_EQ(csv[1].value(), 0.75);
  const auto jsonl = read_arrivals_jsonl(
      "{\"ts\":0.25}\n{\"ts\":0.75,\"node\":\"b\"}\n");
  ASSERT_EQ(jsonl.size(), 2u);
  EXPECT_DOUBLE_EQ(jsonl[1].value(), 0.75);
  EXPECT_THROW((void)read_arrivals_csv("ts\n0.5\nnot-a-number\n"),
               PreconditionError);
  EXPECT_THROW((void)read_arrivals_jsonl("{\"no_ts\":1}\n"),
               PreconditionError);
  EXPECT_THROW((void)read_arrivals_csv("ts\n2.0\n1.0\n"),
               PreconditionError);  // must be sorted
  // A non-finite instant would end a replay at its row; each is rejected
  // at its line.
  for (const std::string ts : {"inf", "-inf", "infinity", "nan"}) {
    SCOPED_TRACE(ts);
    expect_rejected_naming(
        [&] { (void)read_arrivals_csv("ts\n0.5\n" + ts + "\n"); },
        "line 3: non-finite timestamp");
  }
  expect_rejected_naming(
      [] {
        (void)make_replay(
            {Seconds{0.5}, Seconds{std::numeric_limits<double>::infinity()}});
      },
      "non-finite timestamp");
  // A timestamp is the whole field read as a decimal number: a subnormal
  // is a value; hex, a leading '+' or space and trailing text are not
  // numbers; a number past double's range is located.
  const auto tiny = read_arrivals_csv("ts\n0\n1e-320\n");
  ASSERT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny[1].value(), 1e-320);
  for (const std::string ts : {"0x10", "+1", " 1", "1s", "1 "}) {
    SCOPED_TRACE(ts);
    expect_rejected_naming(
        [&] { (void)read_arrivals_csv("ts\n0.5\n" + ts + "\n"); },
        "line 3: non-numeric timestamp '" + ts + "'");
  }
  for (const std::string ts : {"1e400", "1e-400"}) {
    SCOPED_TRACE(ts);
    expect_rejected_naming(
        [&] { (void)read_arrivals_csv("ts\n0\n" + ts + "\n"); },
        "line 3: timestamp '" + ts + "' out of range");
  }
}

// ----------------------------------------------------------- other shapes

TEST(Traffic, BurstyAndDiurnalGeneratorsCompleteTheirLoad) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions options;
  options.requests = 3000;
  std::vector<std::unique_ptr<ArrivalProcess>> generators;
  generators.push_back(make_bursty(30.0, 2_s, 300.0, 0.2_s));
  generators.push_back(make_diurnal(60.0, 0.5, Seconds{20.0}));
  for (const auto& gen : generators) {
    const auto r = simulate_traffic(cluster, one_class(), *gen, options);
    EXPECT_EQ(r.completed, options.requests) << gen->name();
    EXPECT_GT(r.makespan.value(), 0.0) << gen->name();
  }
}

TEST(Traffic, CapacityFollowsClusterSize) {
  const auto one = model::make_a9_k10_cluster(0, 1);
  const auto two = model::make_a9_k10_cluster(0, 2);
  const auto classes = one_class();
  const double c1 = cluster_capacity_per_s(one, classes);
  const double c2 = cluster_capacity_per_s(two, classes);
  EXPECT_GT(c1, 0.0);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-9 * c1);
}

// -------------------------------------------------------------- sharding

TEST(TrafficSharded, RepeatedRunsAreByteIdentical) {
  // Fixed (seed, shards): the serialized result must be byte-identical
  // across repeated runs AND across serial/parallel shard execution —
  // the determinism contract of the per-shard event loops.
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  TrafficOptions options;
  options.requests = 20000;
  options.seed = 7;
  options.shards = 3;
  const auto first =
      simulate_traffic(cluster, one_class(), *make_poisson(800.0), options);
  const auto again =
      simulate_traffic(cluster, one_class(), *make_poisson(800.0), options);
  options.parallel_shards = false;
  const auto serial =
      simulate_traffic(cluster, one_class(), *make_poisson(800.0), options);
  EXPECT_EQ(first.to_json().dump(), again.to_json().dump());
  EXPECT_EQ(first.to_json().dump(), serial.to_json().dump());
  EXPECT_EQ(first.shards, 3u);
}

TEST(TrafficSharded, ShardedRunConservesRequests) {
  const auto cluster = model::make_a9_k10_cluster(4, 4);
  TrafficOptions options;
  options.requests = 30000;
  options.shards = 4;
  const auto r =
      simulate_traffic(cluster, one_class(), *make_poisson(1000.0), options);
  EXPECT_EQ(r.offered, options.requests);
  EXPECT_EQ(r.completed + r.failed, options.requests);
  EXPECT_EQ(r.completed, options.requests);  // no admission control
  EXPECT_GT(r.energy.value(), 0.0);
  std::uint64_t node_completed = 0;
  for (const auto& n : r.nodes) node_completed += n.jobs_served;
  EXPECT_EQ(node_completed, r.completed);
}

TEST(TrafficSharded, SingleShardOptionMatchesDefaultPath) {
  // shards = 1 must take the classic single-loop path: byte-identical to
  // an options struct that never mentions sharding.
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  TrafficOptions classic;
  classic.requests = 10000;
  classic.seed = 11;
  TrafficOptions explicit_one = classic;
  explicit_one.shards = 1;
  explicit_one.parallel_shards = false;
  const auto a =
      simulate_traffic(cluster, one_class(), *make_poisson(400.0), classic);
  const auto b = simulate_traffic(cluster, one_class(), *make_poisson(400.0),
                                  explicit_one);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(TrafficSharded, ReplayTraceExhaustsAcrossShards) {
  // The generator runs dry before options.requests, so every shard's
  // slice is planned above what it gets: the trace's 3 arrivals fill 2
  // and 1 of the 5 + 5 planned at two shards, and 1, 1, 1, 0 of the
  // 3, 3, 2, 2 planned at four. The records still interleave.
  const auto arrivals = make_replay(
      {Seconds{0.5}, Seconds{1.0}, Seconds{1.5}}, /*loop=*/false);
  TrafficOptions options;
  options.requests = 10;
  options.record_requests = true;
  for (std::size_t shards = 2; shards <= 4; ++shards) {
    SCOPED_TRACE(shards);
    options.shards = shards;
    const auto r = simulate_traffic(model::make_a9_k10_cluster(2, 2),
                                    one_class(), *arrivals, options);
    EXPECT_EQ(r.offered, 3u);
    EXPECT_EQ(r.completed, 3u);
    expect_records_join(r);
  }
}

/// Every result byte a run can report: the document, the control
/// summary, the timeline and the request records.
std::string full_document(const TrafficResult& r) {
  std::string bytes = r.to_json().dump() + r.control.to_json().dump() +
                      r.timeline.to_json().dump();
  for (const RequestRecord& rec : r.requests) {
    bytes += ' ' + std::to_string(rec.index) + ' ' +
             std::to_string(rec.cls) + ' ' + std::to_string(rec.failed) +
             ' ' + JsonValue::number(rec.sojourn.value()).dump();
  }
  return bytes;
}

TEST(TrafficSharded, PipelinedRunsMatchFromAnyThread) {
  // Shards on the pool replay their slices while the stream is still
  // being produced; inline shards (serial, or under a pool worker) get it
  // whole first. Either way a run gives the bytes of its serial twin —
  // from the main thread, from inside pool tasks and from two threads
  // at once, each with its own producer.
  const auto cluster = model::make_a9_k10_cluster(4, 4);
  const auto classes = three_classes();
  const double rate = 0.7 * cluster_capacity_per_s(cluster, classes);
  for (std::size_t shards = 2; shards <= 4; ++shards) {
    SCOPED_TRACE(shards);
    const auto run = [&](bool parallel) {
      TrafficOptions options;
      options.requests = 30000;  // more than one publication per shard
      options.seed = 23;
      options.shards = shards;
      options.parallel_shards = parallel;
      options.record_requests = true;
      return full_document(
          simulate_traffic(cluster, classes, *make_poisson(rate), options));
    };
    const std::string expected = run(false);
    EXPECT_EQ(run(true), expected);
    std::vector<std::string> nested(4);
    parallel_for(
        0, nested.size(), [&](std::size_t i) { nested[i] = run(true); },
        /*min_block=*/1);
    for (const std::string& doc : nested) EXPECT_EQ(doc, expected);
    std::string a;
    std::string b;
    std::thread ta([&] { a = run(true); });
    std::thread tb([&] { b = run(true); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, expected);
    EXPECT_EQ(b, expected);
  }
}

struct SourceFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Poisson arrivals whose draw number `fail_at` (from a fresh clone)
/// throws, as a generator reading a corrupt trace might.
class ThrowingArrivals final : public ArrivalProcess {
 public:
  explicit ThrowingArrivals(std::uint64_t fail_at) : fail_at_(fail_at) {}
  Seconds next(Seconds now, Rng& rng) override {
    if (draws_++ == fail_at_) throw SourceFailure("arrival source failed");
    return now + Seconds{rng.exponential(500.0)};
  }
  double mean_rate_per_s() const override { return 500.0; }
  std::string name() const override { return "throwing"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<ThrowingArrivals>(fail_at_);
  }

 private:
  std::uint64_t fail_at_;
  std::uint64_t draws_ = 0;
};

TEST(TrafficSharded, ThrowingGeneratorFailsCleanly) {
  // A producer that throws ends the shards' wait and the run rethrows
  // its exception, whether the stream fails before the first
  // publication, after some, or on its last draw; the next run is whole.
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  TrafficOptions options;
  options.requests = 40000;
  options.shards = 3;
  options.record_requests = true;
  for (const std::uint64_t fail_at : {0ULL, 5ULL, 3ULL * 4096 + 7, 39999ULL}) {
    for (const bool parallel : {true, false}) {
      SCOPED_TRACE("draw " + std::to_string(fail_at) +
                   (parallel ? ", parallel" : ", serial"));
      options.parallel_shards = parallel;
      EXPECT_THROW((void)simulate_traffic(cluster, one_class(),
                                          ThrowingArrivals(fail_at), options),
                   SourceFailure);
      const auto r = simulate_traffic(cluster, one_class(),
                                      *make_poisson(500.0), options);
      EXPECT_EQ(r.completed, options.requests);
    }
  }
}

TEST(TrafficSharded, RandomizedOptionsMatchSerialOrFailCleanly) {
  // Seeded draws over shard count, classes, generator, admission,
  // retries, controller, stream and records. Each draw is rejected
  // with a PreconditionError or gives its serial twin's bytes and
  // accounts for every request. The first 48 draws keep their horizons
  // within a few dozen stream windows and control periods; the last 16
  // run up to 150 requests at 1 to 1e-4 requests/s with the default
  // control period and a 0.5 s window, so the longest pass the window
  // and tick caps.
  Rng rng(20261018);
  const auto pick = [&rng](std::uint64_t n) { return rng.uniform_int(n); };
  int matched = 0;
  std::array<int, 2> rejected{};  // scaled draws, tiny-rate draws
  for (int iter = 0; iter < 64; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const bool tiny = iter >= 48;
    try {
      const auto a9 = static_cast<unsigned>(pick(4));
      const auto k10 = 1 + static_cast<unsigned>(pick(3));
      const auto cluster = model::make_a9_k10_cluster(a9, k10);
      std::vector<TrafficClass> classes = three_classes();
      classes.resize(1 + pick(3));
      if (pick(2) == 0) classes[0].slo = SloTarget{Seconds{0.05}, 0.95};
      TrafficOptions options;
      options.requests = pick(1500) / (tiny ? 10 : 1);  // 0 is rejected
      options.seed = 1 + pick(1000);
      options.shards = 1 + pick(a9 + k10);
      const double rate =
          tiny ? std::pow(10.0, -static_cast<double>(pick(5)))
               : (0.3 + 0.2 * static_cast<double>(pick(4))) *
                     cluster_capacity_per_s(cluster, classes);
      const Seconds span{
          static_cast<double>(std::max<std::uint64_t>(options.requests, 1)) /
          rate};
      std::unique_ptr<ArrivalProcess> gen;
      switch (pick(5)) {
        case 0: gen = make_poisson(rate); break;
        case 1:
          gen = make_bursty(0.5 * rate, span * 0.2, 2.0 * rate, span * 0.05);
          break;
        case 2: gen = make_diurnal(rate, 0.8, span * 0.5); break;
        case 3: gen = make_deterministic(rate); break;
        default: {
          // Short and not looping, so it runs dry; empty on some draws,
          // which make_replay rejects.
          std::vector<Seconds> trace;
          for (std::uint64_t k = 0, len = pick(4) * 5; k < len; ++k)
            trace.push_back(Seconds{static_cast<double>(k) / rate});
          gen = make_replay(std::move(trace), /*loop=*/false);
        }
      }
      if (pick(2) == 0) {
        options.admission.bucket_rate_per_s = 0.8 * rate;
        options.admission.bucket_burst = 5.0;
        options.admission.max_queue_depth = 1 + pick(4);
      }
      if (pick(2) == 0) {
        options.retry.max_attempts = 3;
        options.retry.base_backoff = Seconds{2.0 / rate};
      }
      switch (pick(3)) {
        case 0: options.control.controller = control::make_frozen(); break;
        case 1: options.control.controller = control::make_power_gate(); break;
        default: break;
      }
      options.control.period = tiny ? Seconds{5.0} : span * 0.05;
      options.control.record_power_trace = pick(2) == 0;
      if (pick(2) == 0)
        options.stream.window = tiny ? Seconds{0.5} : span * (1.0 / 16.0);
      options.record_requests = pick(2) == 0;

      const TrafficResult r = simulate_traffic(cluster, classes, *gen, options);
      TrafficOptions serial = options;
      serial.parallel_shards = false;
      const TrafficResult twin =
          simulate_traffic(cluster, classes, *gen, serial);
      EXPECT_EQ(full_document(r), full_document(twin));
      EXPECT_EQ(r.offered, r.completed + r.failed);
      ++matched;
    } catch (const PreconditionError&) {
      ++rejected[tiny];
    }
  }
  std::cout << "rejected " << rejected[0] << " of 48 scaled draws and "
            << rejected[1] << " of 16 tiny-rate draws\n";
  // Both outcomes occur: zero requests, empty traces and horizons past a
  // cap are rejected.
  EXPECT_GT(matched, 0);
  EXPECT_GT(rejected[0], 0);
  EXPECT_GT(rejected[1], 0);
}

TEST(TrafficHorizon, StreamWindowsStopAtTheCap) {
  // 100 requests at 1e-4/s span about 1e6 s: two million 0.5 s windows
  // (1.3 GB) without the cap. The run is rejected at the cap instead.
  TrafficOptions options;
  options.requests = 100;
  options.stream.window = Seconds{0.5};
  expect_rejected_naming(
      [&] {
        (void)simulate_traffic(model::make_a9_k10_cluster(4, 2), one_class(),
                               *make_poisson(1e-4), options);
      },
      "stream.window");
}

TEST(TrafficHorizon, ControlTicksStopAtTheCap) {
  // The same span at a 0.5 s control period: two million ticks per
  // engine without the cap, on one shard and on two.
  for (const std::size_t shards : {1, 2}) {
    TrafficOptions options;
    options.requests = 100;
    options.shards = shards;
    options.control.controller = control::make_frozen();
    options.control.period = Seconds{0.5};
    expect_rejected_naming(
        [&] {
          (void)simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                 one_class(), *make_poisson(1e-4), options);
        },
        "control.period");
  }
}

TEST(Traffic, PooledSummariesMatchFromAnyThread) {
  // A run merges its summaries on the calling thread and shares nothing
  // with other runs. The same run must give the same document from the
  // main thread, from inside a pool task (as under a fed site) and from
  // two threads running at once.
  const auto run = [] {
    TrafficOptions options;
    options.requests = 4000;
    options.seed = 17;
    return simulate_traffic(model::make_a9_k10_cluster(4, 2),
                            three_classes(), *make_poisson(300.0), options)
        .to_json()
        .dump();
  };
  const std::string expected = run();
  std::vector<std::string> nested(4);
  parallel_for(
      0, nested.size(), [&](std::size_t i) { nested[i] = run(); },
      /*min_block=*/1);
  for (const std::string& doc : nested) EXPECT_EQ(doc, expected);
  std::string a;
  std::string b;
  std::thread ta([&] { a = run(); });
  std::thread tb([&] { b = run(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
}

TEST(Traffic, Validation) {
  const auto cluster = model::make_a9_k10_cluster(1, 1);
  TrafficOptions options;
  EXPECT_THROW((void)simulate_traffic(cluster, {}, *make_poisson(1.0),
                                      options),
               PreconditionError);
  auto zero_weight = one_class();
  zero_weight[0].weight = 0.0;
  EXPECT_THROW((void)simulate_traffic(cluster, zero_weight,
                                      *make_poisson(1.0), options),
               PreconditionError);
  // The capacity of a class mix takes the same weights: a zero weight
  // would divide by zero, a negative one would net against the others.
  const auto rack = model::make_a9_k10_cluster(4, 2);
  EXPECT_THROW((void)cluster_capacity_per_s(rack, zero_weight),
               PreconditionError);
  const std::vector<TrafficClass> negative = {
      TrafficClass{wl("EP"), 2.0, {}},
      TrafficClass{wl("memcached"), -1.0, {}}};
  EXPECT_THROW((void)cluster_capacity_per_s(rack, negative),
               PreconditionError);
  options.requests = 0;
  EXPECT_THROW((void)simulate_traffic(cluster, one_class(),
                                      *make_poisson(1.0), options),
               PreconditionError);
  EXPECT_THROW((void)make_poisson(0.0), PreconditionError);
  EXPECT_THROW((void)make_diurnal(10.0, 1.5, Seconds{60.0}),
               PreconditionError);
  EXPECT_THROW((void)make_replay({}), PreconditionError);
}

// ------------------------------------------------------------ pinned bytes
//
// FNV-1a hashes of the serialized results of small fixed runs. The
// other byte-identity tests compare two runs of the same build; these
// compare against constants, so a refactor that moves any result byte
// fails here. Update a constant only with a change that means to alter
// results.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<TrafficClass> two_classes() {
  return {TrafficClass{wl("EP"), 3.0, SloTarget{}},
          TrafficClass{wl("memcached"), 1.0, SloTarget{Seconds{0.05}, 0.95}}};
}

TEST(TrafficPinned, AdmissionAndRetriesOnOneShard) {
  TrafficOptions options;
  options.requests = 4000;
  options.seed = 20160919;
  options.admission.bucket_rate_per_s = 60.0;
  options.admission.bucket_burst = 20.0;
  options.admission.max_queue_depth = 6;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{0.01};
  const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                  two_classes(),
                                  *make_bursty(40.0, 3_s, 250.0, 0.5_s),
                                  options);
  EXPECT_GT(r.shed_bucket, 0u);
  EXPECT_GT(r.shed_queue, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(fnv1a(r.to_json().dump()), 0x193e59cf5bfe1edcULL);
}

TEST(TrafficPinned, ShardedRecordsJoinOnTheArrivalIndex) {
  TrafficOptions options;
  options.requests = 6000;
  options.seed = 11;
  options.shards = 3;
  options.record_requests = true;
  const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                  two_classes(), *make_poisson(300.0),
                                  options);
  // The join key: one record per offered request, indices 0..offered-1.
  ASSERT_EQ(r.requests.size(), r.offered);
  for (std::size_t k = 0; k < r.requests.size(); ++k)
    ASSERT_EQ(r.requests[k].index, k);
  std::string bytes = r.to_json().dump();
  for (const RequestRecord& rec : r.requests) {
    bytes += ' ' + std::to_string(rec.cls) + ' ' +
             std::to_string(rec.failed) + ' ' +
             JsonValue::number(rec.sojourn.value()).dump();
  }
  EXPECT_EQ(fnv1a(bytes), 0x33643b638b6d6cf2ULL);
}

TEST(TrafficPinned, FrozenControllerStreamed) {
  TrafficOptions options;
  options.requests = 4000;
  options.seed = 20260809;
  options.shards = 2;
  options.control.controller = control::make_frozen();
  options.control.period = Seconds{2.0};
  options.control.record_power_trace = true;
  options.stream.window = Seconds{5.0};
  const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                  two_classes(),
                                  *make_bursty(40.0, 3_s, 250.0, 0.5_s),
                                  options);
  EXPECT_GT(r.control.ticks, 0u);
  EXPECT_FALSE(r.timeline.windows.empty());
  EXPECT_EQ(fnv1a(r.to_json().dump() + r.control.to_json().dump() +
                  r.timeline.to_json().dump()),
            0xe13f4ab378ed78b1ULL);
}

TEST(TrafficPinned, ShardedArrivalsRunAheadOfSameInstantTicks) {
  // Arrivals every 10 ms against a 50 ms tick period land on the same
  // instants as ticks, so this pins which of the two a shard runs first.
  TrafficOptions options;
  options.requests = 3000;
  options.seed = 5;
  options.shards = 2;
  options.control.controller = control::make_power_gate();
  options.control.period = Seconds{0.05};
  options.control.wake_delay = Seconds{0.2};
  const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                  two_classes(), *make_deterministic(100.0),
                                  options);
  EXPECT_GT(r.control.sleeps, 0u);
  EXPECT_EQ(fnv1a(r.to_json().dump() + r.control.to_json().dump()),
            0xd82ea92006bdafbdULL);
}

TEST(TrafficPinned, OperatingPointsMoveUnderInFlightRequests) {
  // A looped burst cycle whose first arrival lands at t = 0, so on two
  // shards the first tick already finds a request in service. The DVFS
  // governor (one shard) moves points under queued requests all run;
  // the power cap (two shards) throttles at that first tick. Each
  // completion must charge the service time and power it was dispatched
  // with, and the power trace records the same terms.
  auto classes = two_classes();
  classes[1].slo = SloTarget{Seconds{4.0}, 0.95};
  std::vector<Seconds> cycle;
  for (int k = 0; k < 12; ++k) cycle.push_back(Seconds{0.04 * k});
  for (int k = 0; k < 18; ++k) cycle.push_back(Seconds{0.5 + k / 6.0});
  TrafficOptions options;
  options.requests = 4000;
  options.seed = 20261018;
  options.control.period = Seconds{0.5};
  options.control.record_power_trace = true;
  options.stream.window = Seconds{5.0};
  const auto run = [&](std::shared_ptr<const control::Controller> c,
                       std::size_t shards) {
    TrafficOptions o = options;
    o.control.controller = std::move(c);
    o.shards = shards;
    const auto r = simulate_traffic(model::make_a9_k10_cluster(4, 2), classes,
                                    *make_replay(cycle, /*loop=*/true), o);
    EXPECT_GT(r.control.point_changes, 0u);
    return r.to_json().dump() + r.control.to_json().dump() +
           r.timeline.to_json().dump();
  };
  const std::string governed = run(control::make_dvfs_governor(), 1);
  const std::string capped =
      run(control::make_power_cap({.cap = Watts{120.0}}), 2);
  EXPECT_EQ(fnv1a(governed + capped), 0x289647c169e1c5beULL);
}

}  // namespace
