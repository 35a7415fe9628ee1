// hcep::traffic — request-level load generation, admission control and
// SLO accounting. The keystone check: with one node, one class and
// Poisson arrivals the simulator IS an M/D/1 queue, so its measured
// waiting/response statistics must match queueing::MD1's closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
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
#include "hcep/util/stats.hpp"
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

#if HCEP_OBS
TEST(Traffic, ObsCountersLedgerTheRun) {
  const auto cluster = model::make_a9_k10_cluster(1, 0);
  obs::Observer observer;
  obs::ScopedObserver scope(observer);
  TrafficOptions options;
  options.requests = 800;
  options.admission.bucket_rate_per_s = 5.0;
  options.admission.bucket_burst = 10.0;
  options.retry.max_attempts = 2;
  options.retry.base_backoff = Seconds{0.05};
  const auto r = simulate_traffic(cluster, one_class(),
                                  *make_poisson(50.0), options);
  const auto snap = observer.metrics.snapshot();
  EXPECT_EQ(snap.counter("traffic.offered"), r.offered);
  EXPECT_EQ(snap.counter("traffic.admitted"), r.admitted);
  EXPECT_EQ(snap.counter("traffic.shed"), r.shed_bucket + r.shed_queue);
  EXPECT_EQ(snap.counter("traffic.retries"), r.retries);
  EXPECT_EQ(snap.counter("traffic.completed"), r.completed);
  EXPECT_EQ(snap.counter("traffic.failed"), r.failed);
  const auto* h = snap.histogram("traffic.sojourn_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, r.completed);
}
#endif

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

/// The finalize as it was before from_samples sorted only once: copy,
/// sort, sum in order, then percentile() (which copies and sorts again).
LatencySummary sorted_copy_oracle(const std::vector<double>& samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double s : sorted) sum += s;
  out.mean = Seconds{sum / static_cast<double>(sorted.size())};
  out.p50 = Seconds{percentile(sorted, 50.0)};
  out.p95 = Seconds{percentile(sorted, 95.0)};
  out.p99 = Seconds{percentile(sorted, 99.0)};
  out.max = Seconds{sorted.back()};
  return out;
}

/// Exact equality of every field: the summaries feed the result bytes.
void expect_identical(const LatencySummary& a, const LatencySummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean.value(), b.mean.value());
  EXPECT_EQ(a.p50.value(), b.p50.value());
  EXPECT_EQ(a.p95.value(), b.p95.value());
  EXPECT_EQ(a.p99.value(), b.p99.value());
  EXPECT_EQ(a.max.value(), b.max.value());
}

TEST(LatencySummaryTest, FromSamplesMatchesTheSortedCopyOracle) {
  Rng rng(41);
  std::vector<double> random;
  for (int i = 0; i < 10007; ++i) random.push_back(rng.exponential(50.0));
  std::vector<double> ascending = random;
  std::sort(ascending.begin(), ascending.end());
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> mostly_zero(5000, 0.0);
  for (std::size_t i = 0; i < mostly_zero.size(); i += 97)
    mostly_zero[i] = rng.uniform01();
  const std::vector<std::vector<double>> inputs = {
      random,     ascending,         descending,
      std::vector<double>(777, 0.125), mostly_zero,
      {0.5},      {0.75, 0.25},      {}};
  for (const std::vector<double>& in : inputs) {
    SCOPED_TRACE(in.size());
    std::vector<double> mine = in;
    expect_identical(LatencySummary::from_samples(mine),
                     sorted_copy_oracle(in));
  }
}

std::vector<TrafficClass> three_classes() {
  return {TrafficClass{wl("EP"), 3.0, SloTarget{}},
          TrafficClass{wl("memcached"), 2.0, SloTarget{}},
          TrafficClass{wl("blackscholes"), 1.0, SloTarget{}}};
}

TEST(Traffic, OverallSummaryIsTheClassUnion) {
  // Three classes, so the overall summaries merge three sorted vectors.
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
  expect_identical(r.sojourn, LatencySummary::from_samples(all));
  for (std::size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(c);
    expect_identical(r.classes[c].sojourn,
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
  // the determinism contract of des::ShardedSimulator's window barrier.
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
  // The generator runs dry before options.requests: shard 0 replays
  // arrivals 0 and 2, shard 1 arrival 1, and the records interleave.
  const auto arrivals = make_replay(
      {Seconds{0.5}, Seconds{1.0}, Seconds{1.5}}, /*loop=*/false);
  TrafficOptions options;
  options.requests = 10;
  options.shards = 2;
  options.record_requests = true;
  const auto r = simulate_traffic(model::make_a9_k10_cluster(1, 1),
                                  one_class(), *arrivals, options);
  EXPECT_EQ(r.offered, 3u);
  EXPECT_EQ(r.completed, 3u);
  expect_records_join(r);
}

TEST(Traffic, PooledSummariesMatchFromAnyThread) {
  // The class summaries run on the global pool. The same run must give
  // the same document from the main thread, from inside a pool task
  // (where the summaries run inline, as under a fed site) and from two
  // threads submitting to the pool at once.
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
  EXPECT_EQ(fnv1a(r.to_json().dump()), 0xdce89d0c612e72e6ULL);
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
  EXPECT_EQ(fnv1a(bytes), 0x66a885d1c22ef7b3ULL);
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
            0x7fd16f9316071c30ULL);
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
            0xb34d3b1862e117f1ULL);
}

}  // namespace
