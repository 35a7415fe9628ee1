// Library performance: the extension simulators (scale-out phase-level,
// trace replay) and the M/G/1 analytics.
#include <benchmark/benchmark.h>

#include "hcep/cluster/scaleout_sim.hpp"
#include "hcep/cluster/trace.hpp"
#include "hcep/queueing/mg1.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::literals;

const workload::Workload& ep() {
  static const workload::Workload kEp = workload::make_workload("EP");
  return kEp;
}

void BM_ScaleoutSim(benchmark::State& state) {
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2), ep());
  for (auto _ : state) {
    cluster::ScaleoutOptions opts;
    opts.utilization = 0.6;
    opts.min_jobs = static_cast<std::uint64_t>(state.range(0));
    const auto r = cluster::simulate_scaleout(m, opts);
    benchmark::DoNotOptimize(r.jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ScaleoutSim)->Arg(500)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_TraceReplay(benchmark::State& state) {
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2), ep());
  const auto day = cluster::LoadTrace::diurnal(Seconds{120.0}, 0.2, 0.8);
  for (auto _ : state) {
    const auto r = cluster::replay_trace(m, day);
    benchmark::DoNotOptimize(r.jobs_completed);
  }
}
BENCHMARK(BM_TraceReplay)->Unit(benchmark::kMillisecond);

void BM_Mg1Percentile(benchmark::State& state) {
  const queueing::MG1 q =
      queueing::MG1::from_utilization(10_ms, 0.8, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.response_percentile(95.0));
  }
}
BENCHMARK(BM_Mg1Percentile);

}  // namespace

BENCHMARK_MAIN();
