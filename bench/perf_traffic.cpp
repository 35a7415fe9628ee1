// Library performance: the request-level traffic path.
//
// Quantifies (a) arrival-generator throughput (the open-loop pump must
// never be the bottleneck of a simulation), (b) the token-bucket
// admission primitive, and (c) end-to-end requests/second through the
// full simulate_traffic path — queueing, dispatch, SLO ledger and
// energy accounting — with and without admission control. The largest
// size pushes >1M requests through the admission/SLO path, the
// regression-gated configuration in BENCH_traffic.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "hcep/model/cluster_spec.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
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

std::vector<TrafficClass> one_class() {
  return {TrafficClass{wl("EP"), 1.0, SloTarget{}}};
}

// --- Generators ----------------------------------------------------------

void BM_PoissonArrivals(benchmark::State& state) {
  const auto gen = make_poisson(100.0);
  Rng rng(1);
  Seconds now{0.0};
  for (auto _ : state) {
    now = gen->next(now, rng);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PoissonArrivals);

void BM_BurstyArrivals(benchmark::State& state) {
  const auto gen = make_bursty(50.0, Seconds{2.0}, 300.0, Seconds{0.5});
  Rng rng(1);
  Seconds now{0.0};
  for (auto _ : state) {
    now = gen->next(now, rng);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BurstyArrivals);

void BM_DiurnalArrivals(benchmark::State& state) {
  // Thinning draws several uniforms per accepted arrival; this bounds
  // the generator overhead of the time-varying profile.
  const auto gen = make_diurnal(100.0, 0.6, Seconds{60.0});
  Rng rng(1);
  Seconds now{0.0};
  for (auto _ : state) {
    now = gen->next(now, rng);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DiurnalArrivals);

// --- Admission primitive -------------------------------------------------

void BM_TokenBucketAcquire(benchmark::State& state) {
  TokenBucket bucket(1e9, 64.0);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bucket.try_acquire(Seconds{t}));
    t += 1e-9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenBucketAcquire);

// --- End-to-end request path ---------------------------------------------

/// Open-loop requests through the plain path: dispatch + queue + SLO
/// ledger + energy, no admission control.
void BM_SimulateTraffic(benchmark::State& state) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  const auto classes = one_class();
  const double rate = 0.7 * cluster_capacity_per_s(cluster, classes);
  const auto arrivals = make_poisson(rate);
  TrafficOptions options;
  options.requests = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const TrafficResult r =
        simulate_traffic(cluster, classes, *arrivals, options);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// Wall-clock timed: BENCH_traffic.json gates the /real_time rows.
BENCHMARK(BM_SimulateTraffic)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The gated configuration: >1M requests per iteration through the FULL
/// admission/SLO path — token bucket, queue-depth shedding, retries with
/// exponential backoff, per-class SLO ledger.
void BM_AdmissionSloPath(benchmark::State& state) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  auto classes = one_class();
  const double capacity = cluster_capacity_per_s(cluster, classes);
  classes[0].slo = SloTarget{Seconds{20.0 / capacity}, 0.95};
  // Slightly overloaded so the bucket, the shedder and the retry loop
  // all stay hot instead of benchmarking an idle fast path.
  const auto arrivals = make_poisson(1.05 * capacity);
  TrafficOptions options;
  options.requests = static_cast<std::uint64_t>(state.range(0));
  options.admission.bucket_rate_per_s = 0.95 * capacity;
  options.admission.bucket_burst = 64.0;
  options.admission.max_queue_depth = 128;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{2.0 / capacity};
  for (auto _ : state) {
    const TrafficResult r =
        simulate_traffic(cluster, classes, *arrivals, options);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AdmissionSloPath)->Arg(1 << 17)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
