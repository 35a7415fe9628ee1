// Library performance: configuration-space enumeration (google-benchmark).
// Also asserts the footnote-4 count as a startup sanity check.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "hcep/config/space.hpp"

namespace {

using namespace hcep;

void BM_SpaceConstruction(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    config::ConfigSpace space = config::make_a9_k10_space(n, n);
    benchmark::DoNotOptimize(space.size());
  }
}
BENCHMARK(BM_SpaceConstruction)->Arg(10)->Arg(32);

void BM_ConfigDecode(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  std::uint64_t i = 0;
  for (auto _ : state) {
    model::ClusterSpec cfg = space.config_at(i);
    benchmark::DoNotOptimize(cfg.total_nodes());
    i = (i + 7919) % space.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConfigDecode);

void BM_DecodeAt(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  std::uint64_t i = 0;
  for (auto _ : state) {
    config::DecodedGroup groups[config::kMaxTypes];
    const std::size_t n = space.decode_at(i, groups);
    std::uint64_t nodes = 0;
    for (std::size_t g = 0; g < n; ++g) nodes += groups[g].count;
    benchmark::DoNotOptimize(nodes);
    i = (i + 7919) % space.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeAt);

/// BM_DecodeAt's mixed-radix arithmetic inline, from the space's public
/// radices: the twin a regression inside decode_at leaves behind.
/// (BM_ConfigDecode calls decode_at, so it slows with it.)
void BM_DecodeAtReplica(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  std::vector<std::uint64_t> radix, points;
  for (std::size_t t = 0; t < space.types().size(); ++t) {
    radix.push_back(space.types()[t].tuples() + 1);
    points.push_back(space.points_for(t));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::uint64_t code = i + 1;
    std::uint64_t nodes = 0;
    for (std::size_t t = 0; t < radix.size(); ++t) {
      const std::uint64_t digit = code % radix[t];
      code /= radix[t];
      if (digit != 0) nodes += (digit - 1) / points[t] + 1;
    }
    benchmark::DoNotOptimize(nodes);
    i = (i + 7919) % space.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeAtReplica);

void BM_FullSweep(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  for (auto _ : state) {
    std::uint64_t nodes = 0;
    space.for_each_decoded([&](const config::DecodedGroup* groups,
                               std::size_t n, std::uint64_t) {
      for (std::size_t g = 0; g < n; ++g) nodes += groups[g].count;
    });
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweep);

void BM_FullSweepMaterialized(benchmark::State& state) {
  const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
  for (auto _ : state) {
    std::uint64_t nodes = 0;
    space.for_each([&](const model::ClusterSpec& cfg, std::uint64_t) {
      nodes += cfg.total_nodes();
    });
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweepMaterialized);

}  // namespace

int main(int argc, char** argv) {
  // Startup sanity: the paper's footnote-4 combinatorics.
  const auto count = hcep::config::make_a9_k10_space(10, 10).size();
  if (count != 36380) {
    std::cerr << "FATAL: footnote-4 configuration count is " << count
              << ", expected 36380\n";
    return EXIT_FAILURE;
  }
  std::cout << "footnote-4 check: |space(10 ARM, 10 AMD)| = " << count
            << " (paper: 36,380)\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
