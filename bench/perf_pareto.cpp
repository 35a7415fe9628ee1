// Library performance: configuration-space evaluation and Pareto-frontier
// extraction — memoized fast path vs the naive per-config model path,
// serial vs thread pool.
#include <benchmark/benchmark.h>

#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;

const workload::Workload& ep() {
  static const workload::Workload kEp = workload::make_workload("EP");
  return kEp;
}

// The Pareto rows run x264, whose times on the 8x8 space span 5,300x:
// the frontier prefilter keeps 41 of its 23,344 configurations, where
// equal-width time buckets kept 12,051 (EP: 11 and 4,060), so the gated
// ratio moves well clear of its noise when the prefilter regresses.
const workload::Workload& x264() {
  static const workload::Workload kX264 = workload::make_workload("x264");
  return kX264;
}

void BM_EvaluateSpace(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const config::ConfigSpace space = config::make_a9_k10_space(n, n);
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto evals = config::evaluate_space(space, ep(), &pool);
    benchmark::DoNotOptimize(evals.times().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_EvaluateSpace)
    ->Args({6, 1})
    ->Args({6, 2})
    ->Args({10, 1})
    ->Args({10, 4})
    ->Unit(benchmark::kMillisecond);

void BM_EvaluateSpaceNaive(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const config::ConfigSpace space = config::make_a9_k10_space(n, n);
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto evals = config::evaluate_space_naive(space, ep(), &pool);
    benchmark::DoNotOptimize(evals.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_EvaluateSpaceNaive)
    ->Args({6, 1})
    ->Args({10, 1})
    ->Unit(benchmark::kMillisecond);

void BM_OperatingPointTableBuild(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  for (auto _ : state) {
    config::OperatingPointTable table(space, ep());
    benchmark::DoNotOptimize(table.num_types());
  }
}
BENCHMARK(BM_OperatingPointTableBuild);

void BM_ParetoFront(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(8, 8);
  const auto evals = config::evaluate_space(space, x264());
  for (auto _ : state) {
    auto front = config::pareto_front(evals);
    benchmark::DoNotOptimize(front.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(evals.size()));
}
BENCHMARK(BM_ParetoFront)->Unit(benchmark::kMillisecond);

void BM_ParetoFrontMaterialized(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(8, 8);
  const auto evals = config::evaluate_space_naive(space, x264());
  for (auto _ : state) {
    auto copy = evals;
    auto front = config::pareto_front(std::move(copy));
    benchmark::DoNotOptimize(front.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(evals.size()));
}
BENCHMARK(BM_ParetoFrontMaterialized)->Unit(benchmark::kMillisecond);

void BM_DeadlineSelection(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(8, 8);
  const auto evals = config::evaluate_space(space, ep());
  const auto fastest_eval = config::fastest(evals);
  const Seconds deadline = fastest_eval->time * 1.5;
  for (auto _ : state) {
    auto pick = config::min_energy_within_deadline(evals, deadline);
    benchmark::DoNotOptimize(pick.has_value());
  }
}
BENCHMARK(BM_DeadlineSelection);

}  // namespace

BENCHMARK_MAIN();
