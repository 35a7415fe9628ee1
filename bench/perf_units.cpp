// Zero-overhead guard for hcep::units.
//
// Quantity<Dim, Ratio> promises to lower to the exact same machine code
// as a raw double: same size, same FP operations, nothing hidden. These
// benchmarks run each hot-path shape twice — once on raw doubles, once on
// the typed API — over identical buffers. The paired entries should
// report indistinguishable times. No tools/bench_regress.py suite runs
// this binary, so the claim is measured here, not gated.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "hcep/power/meter.hpp"
#include "hcep/util/units.hpp"

namespace {

using namespace hcep;
using namespace hcep::literals;

constexpr std::size_t kN = 4096;

std::vector<double> make_levels() {
  std::vector<double> v(kN);
  for (std::size_t i = 0; i < kN; ++i)
    v[i] = 5.0 + static_cast<double>(i % 97) * 0.73;
  return v;
}

std::vector<double> make_durations() {
  std::vector<double> v(kN);
  for (std::size_t i = 0; i < kN; ++i)
    v[i] = 0.001 * static_cast<double>(1 + (i % 13));
  return v;
}

// --- energy integration: sum(P_i * dt_i) --------------------------------

void BM_IntegrateRawDouble(benchmark::State& state) {
  const auto p = make_levels();
  const auto dt = make_durations();
  for (auto _ : state) {
    double e = 0.0;
    for (std::size_t i = 0; i < kN; ++i) e += p[i] * dt[i];
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_IntegrateRawDouble);

void BM_IntegrateTyped(benchmark::State& state) {
  const auto p = make_levels();
  const auto dt = make_durations();
  for (auto _ : state) {
    Joules e{};
    for (std::size_t i = 0; i < kN; ++i)
      e += Watts{p[i]} * Seconds{dt[i]};
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_IntegrateTyped);

// --- frequency scaling: t = cycles / f, e = p * t -----------------------

void BM_DvfsSweepRawDouble(benchmark::State& state) {
  const auto cyc = make_levels();
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      const double t = cyc[i] * 1e9 / 1.4e9;
      total += (45.0 + 0.02 * cyc[i]) * t;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DvfsSweepRawDouble);

void BM_DvfsSweepTyped(benchmark::State& state) {
  const auto cyc = make_levels();
  const Hertz f{1.4e9};
  for (auto _ : state) {
    Joules total{};
    for (std::size_t i = 0; i < kN; ++i) {
      const Seconds t = Cycles{cyc[i] * 1e9} / f;
      total += Watts{45.0 + 0.02 * cyc[i]} * t;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_DvfsSweepTyped);

// --- trace re-integration through the typed PowerTrace API --------------

void BM_TraceEnergyTyped(benchmark::State& state) {
  power::PowerTrace trace;
  double t = 0.0;
  for (std::size_t i = 0; i < 512; ++i) {
    trace.step(Seconds{t}, Watts{5.0 + static_cast<double>(i % 29)});
    t += 0.01;
  }
  const Seconds horizon{t + 1.0};
  for (auto _ : state) benchmark::DoNotOptimize(trace.energy(horizon));
}
BENCHMARK(BM_TraceEnergyTyped);

}  // namespace

BENCHMARK_MAIN();
