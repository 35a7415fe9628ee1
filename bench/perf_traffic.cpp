// Library performance: the request-level traffic path.
//
// Every gated row has a twin in this binary that does the same number of
// items without the code under test, and tools/bench_regress.py gates
// the twin/row throughput ratio measured in the same run:
//
//   BM_RawExponential / BM_PoissonArrivals
//                          a bare Rng::exponential loop vs the virtual
//                          generator that wraps it
//   BM_TokenBucketReplica / BM_TokenBucketAcquire
//                          an inline copy of the refill arithmetic vs
//                          the library's out-of-line, checked bucket
//   BM_DesReplay / BM_SimulateTraffic, BM_AdmissionSloPath
//                          the run's event skeleton alone (Poisson
//                          arrivals, one completion per request, inline
//                          callbacks on des::Simulator) vs the full
//                          engine: dispatch, queues, admission, retries,
//                          SLO ledger and energy accounting
//
// A regression in the code under test slows only the row, so the ratio
// rises past its max_ratio whatever the host's speed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hcep/des/simulator.hpp"
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

/// BM_PoissonArrivals without the generator: the same draws inline.
void BM_RawExponential(benchmark::State& state) {
  Rng rng(1);
  double now = 0.0;
  for (auto _ : state) {
    now += rng.exponential(100.0);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RawExponential);

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

/// BM_TokenBucketAcquire's arithmetic inline: refill to `t`, then take
/// one token when one is there.
void BM_TokenBucketReplica(benchmark::State& state) {
  const double rate = 1e9;
  const double burst = 64.0;
  double tokens = burst;
  double last = 0.0;
  double t = 0.0;
  for (auto _ : state) {
    tokens = std::min(burst, tokens + rate * (t - last));
    last = t;
    const bool ok = tokens >= 1.0;
    if (ok) tokens -= 1.0;
    benchmark::DoNotOptimize(ok);
    t += 1e-9;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TokenBucketReplica);

// --- End-to-end request path ---------------------------------------------

/// BM_SimulateTraffic's event skeleton without the engine: each arrival
/// schedules the next one and its request's completion an exponential
/// service time later; callbacks only count.
struct Replay {
  Replay(const ArrivalProcess& arrivals, double service_rate_per_s,
         std::uint64_t n)
      : gen(arrivals.clone()), service_rate(service_rate_per_s), left(n) {}

  des::Simulator sim;
  std::unique_ptr<ArrivalProcess> gen;
  Rng rng{1};
  double service_rate;
  std::uint64_t left;
  std::uint64_t completed = 0;
};

struct Complete {
  Replay* r;
  void operator()() const { ++r->completed; }
};

struct Arrive {
  Replay* r;
  void operator()() const {
    const Seconds now = r->sim.now();
    r->sim.schedule_at(now + Seconds{r->rng.exponential(r->service_rate)},
                       Complete{r});
    if (--r->left > 0)
      r->sim.schedule_at(r->gen->next(now, r->rng), Arrive{r});
  }
};

void BM_DesReplay(benchmark::State& state) {
  const auto cluster = model::make_a9_k10_cluster(4, 2);
  const double capacity = cluster_capacity_per_s(cluster, one_class());
  const auto arrivals = make_poisson(0.7 * capacity);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Replay r(*arrivals, capacity / 6.0, n);  // mean rate of the 6 nodes
    r.sim.schedule_at(r.gen->next(Seconds{0.0}, r.rng), Arrive{&r});
    r.sim.run();
    if (r.completed != n) throw std::logic_error("replay under-ran");
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesReplay)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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
BENCHMARK(BM_SimulateTraffic)->Arg(1 << 14)->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Requests through the full admission/SLO path: token bucket,
/// queue-depth shedding, retries with exponential backoff, per-class SLO
/// ledger. The 1M-request size is recorded, not gated.
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
