// Unit-type algebra: the compile-time dimensional rules plus runtime
// arithmetic identities used throughout the Table 2/3 implementations,
// the scaled-unit (Ratio) conversion round-trips, and the zero-overhead
// contract of Quantity<Dim, Ratio>. Wrong-dimension programs are covered
// by the compile-fail harness under tests/compile_fail/ (ctest -L lint).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "hcep/power/meter.hpp"
#include "hcep/util/units.hpp"

namespace {

using namespace hcep;
using namespace hcep::literals;

TEST(Units, LiteralsProduceExpectedValues) {
  EXPECT_DOUBLE_EQ((5_W).value(), 5.0);
  EXPECT_DOUBLE_EQ((1_kW).value(), 1000.0);
  EXPECT_DOUBLE_EQ((2.5_J).value(), 2.5);
  EXPECT_DOUBLE_EQ((3_s).value(), 3.0);
  EXPECT_DOUBLE_EQ((10_ms).value(), 0.010);
  EXPECT_DOUBLE_EQ((50_us).value(), 50e-6);
  EXPECT_DOUBLE_EQ((1.4_GHz).value(), 1.4e9);
  EXPECT_DOUBLE_EQ((800_MHz).value(), 0.8e9);
  EXPECT_DOUBLE_EQ((1_KB).value(), 1024.0);
  EXPECT_DOUBLE_EQ((1_MB).value(), 1024.0 * 1024.0);
}

TEST(Units, AdditionAndSubtraction) {
  EXPECT_DOUBLE_EQ((2_W + 3_W).value(), 5.0);
  EXPECT_DOUBLE_EQ((5_W - 3_W).value(), 2.0);
  Watts w{1.0};
  w += 2_W;
  EXPECT_DOUBLE_EQ(w.value(), 3.0);
  w -= 1_W;
  EXPECT_DOUBLE_EQ(w.value(), 2.0);
}

TEST(Units, ScalarScaling) {
  EXPECT_DOUBLE_EQ((4_W * 2.5).value(), 10.0);
  EXPECT_DOUBLE_EQ((2.5 * 4_W).value(), 10.0);
  EXPECT_DOUBLE_EQ((10_W / 4.0).value(), 2.5);
  Watts w{8.0};
  w *= 0.5;
  EXPECT_DOUBLE_EQ(w.value(), 4.0);
  w /= 2.0;
  EXPECT_DOUBLE_EQ(w.value(), 2.0);
}

TEST(Units, SameDimensionRatioIsDimensionless) {
  const double ratio = 30_W / 60_W;
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(Units, EnergyEqualsPowerTimesTime) {
  const Joules e = 10_W * 3_s;
  EXPECT_DOUBLE_EQ(e.value(), 30.0);
  EXPECT_DOUBLE_EQ((3_s * 10_W).value(), 30.0);
}

TEST(Units, PowerEqualsEnergyOverTime) {
  const Watts p = 30_J / 3_s;
  EXPECT_DOUBLE_EQ(p.value(), 10.0);
}

TEST(Units, TimeEqualsEnergyOverPower) {
  const Seconds t = 30_J / 10_W;
  EXPECT_DOUBLE_EQ(t.value(), 3.0);
}

TEST(Units, CyclesOverFrequencyIsTime) {
  const Seconds t = Cycles{2.8e9} / 1.4_GHz;
  EXPECT_DOUBLE_EQ(t.value(), 2.0);
}

TEST(Units, FrequencyTimesTimeIsCycles) {
  EXPECT_DOUBLE_EQ((1.4_GHz * 2_s).value(), 2.8e9);
  EXPECT_DOUBLE_EQ((2_s * 1.4_GHz).value(), 2.8e9);
}

TEST(Units, BytesOverBandwidthIsTime) {
  const Seconds t = Bytes{1e6} / BytesPerSecond{1e5};
  EXPECT_DOUBLE_EQ(t.value(), 10.0);
}

TEST(Units, ComparisonOperators) {
  EXPECT_LT(1_W, 2_W);
  EXPECT_GT(3_s, 2_s);
  EXPECT_EQ(5_J, 5_J);
  EXPECT_LE(2_W, 2_W);
  EXPECT_GE(2_W, 1_W);
}

TEST(Units, StreamOutputIncludesSymbol) {
  std::ostringstream os;
  os << 5_W << " " << 2_s;
  EXPECT_EQ(os.str(), "5W 2s");
}

TEST(Units, NegationAndDefaultConstruction) {
  EXPECT_DOUBLE_EQ((-(3_W)).value(), -3.0);
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
}

// ------------------------------------------------- derived dimensions

TEST(Units, DerivedDimensionAliases) {
  const JoulesPerOp jpo = 300_J / Ops{100.0};
  EXPECT_DOUBLE_EQ(jpo.value(), 3.0);
  const Joules back = jpo * Ops{100.0};
  EXPECT_DOUBLE_EQ(back.value(), 300.0);

  const OpsPerSecond rate = Ops{500.0} / 2_s;
  EXPECT_DOUBLE_EQ(rate.value(), 250.0);

  const JouleSeconds edp = 30_J * 2_s;
  EXPECT_DOUBLE_EQ(edp.value(), 60.0);
  const JouleSecondsSquared ed2p = edp * 2_s;
  EXPECT_DOUBLE_EQ(ed2p.value(), 120.0);
}

TEST(Units, ReciprocalOfTimeTimesEnergyIsPower) {
  // scalar / quantity derives the inverse dimension.
  const auto per_second = 1.0 / 4_s;
  const Watts p = 100_J * per_second;
  EXPECT_DOUBLE_EQ(p.value(), 25.0);
}

// --------------------------------------------- scaled-unit round trips

TEST(Units, MillijouleJouleKilowattHourRoundTrip) {
  const Millijoules mj{1500.0};
  const Joules j = mj;  // implicit same-dimension conversion
  EXPECT_DOUBLE_EQ(j.value(), 1.5);

  const KilowattHours kwh = quantity_cast<KilowattHours>(Joules{7.2e6});
  EXPECT_DOUBLE_EQ(kwh.value(), 2.0);
  const Joules back = kwh;
  EXPECT_DOUBLE_EQ(back.value(), 7.2e6);

  const Millijoules round = quantity_cast<Millijoules>(Joules{Millijoules{123.0}});
  EXPECT_DOUBLE_EQ(round.value(), 123.0);

  // kWh literal: 1 kWh = 3.6e6 J exactly.
  EXPECT_DOUBLE_EQ((1_kWh).value(), 3.6e6);
  EXPECT_DOUBLE_EQ((2_mJ).value(), 0.002);
}

TEST(Units, MegahertzGigahertzRoundTrip) {
  const Megahertz mhz{800.0};
  const Hertz f = mhz;
  EXPECT_DOUBLE_EQ(f.value(), 8e8);
  const Gigahertz ghz = quantity_cast<Gigahertz>(f);
  EXPECT_DOUBLE_EQ(ghz.value(), 0.8);
  const Megahertz back = quantity_cast<Megahertz>(ghz);
  EXPECT_DOUBLE_EQ(back.value(), 800.0);

  // The MHz-vs-GHz slip the layer exists to kill: equality compares in
  // base units, so 800 MHz == 0.8 GHz and 800 MHz != 0.8 MHz.
  EXPECT_EQ(Megahertz{800.0}, Gigahertz{0.8});
  EXPECT_NE(Megahertz{800.0}, Megahertz{0.8});
}

TEST(Units, MixedRatioArithmeticConvertsToLeftOperand) {
  const Joules sum = Joules{1.0} + Millijoules{500.0};
  EXPECT_DOUBLE_EQ(sum.value(), 1.5);
  const Millijoules msum = Millijoules{500.0} + Joules{1.0};
  EXPECT_DOUBLE_EQ(msum.value(), 1500.0);
  EXPECT_LT(Millijoules{999.0}, Joules{1.0});
  const double ratio = Joules{1.8e6} / KilowattHours{1.0};
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(Units, ScaledCrossDimensionProductsNormalizeToCoherentUnits) {
  // kW * ms -> J via base-unit normalization.
  const Joules e = Kilowatts{2.0} * Milliseconds{500.0};
  EXPECT_DOUBLE_EQ(e.value(), 1000.0);
  const Seconds t = Cycles{1.6e9} / Gigahertz{0.8};
  EXPECT_DOUBLE_EQ(t.value(), 2.0);
}

TEST(Units, StreamOutputIncludesScaledSymbols) {
  std::ostringstream os;
  os << Millijoules{5.0} << " " << Megahertz{800.0} << " "
     << (10_J / Ops{2.0});
  EXPECT_EQ(os.str(), "5mJ 800MHz 5J/op");
}

// -------------------------------------------------- zero overhead

TEST(Units, QuantityIsATransparentDouble) {
  // Layout asserts also live in the header as static_asserts; repeating
  // the load-bearing ones here keeps the contract visible in the suite.
  static_assert(sizeof(Joules) == sizeof(double));
  static_assert(sizeof(KilowattHours) == sizeof(double));
  static_assert(alignof(Watts) == alignof(double));
  static_assert(std::is_trivially_copyable_v<Seconds>);

  // An array of typed metrics must have raw-double layout (the SoA
  // EvaluationSet and the OperatingPointTable rely on this).
  Joules column[4] = {1_J, 2_J, 3_J, 4_J};
  const auto* raw = reinterpret_cast<const double*>(column);
  EXPECT_DOUBLE_EQ(raw[2], 3.0);
}

TEST(Units, TypedIntegrationIsNotPessimized) {
  // Coarse runtime guard against catastrophic pessimization (virtual
  // dispatch, allocation, missed inlining): the typed power-integration
  // loop must stay within 8x of the raw-double loop even under CI noise.
  // A finer bound would flake: typed and raw twins read 0.5 to 1.2x of
  // each other between runs on a shared 4-vCPU host. Raw and typed
  // passes alternate for several rounds and the fastest of each side is
  // compared, so a one-off stall of one pass (a suite starting beside
  // this one under `ctest -j`) cannot decide the verdict.
  constexpr std::size_t kN = 1 << 16;
  constexpr int kRounds = 7;
  std::vector<double> raw_p(kN), raw_t(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    raw_p[i] = 5.0 + static_cast<double>(i % 97);
    raw_t[i] = 0.001 * static_cast<double>(1 + (i % 13));
  }
  const std::vector<Watts>& tp = *reinterpret_cast<std::vector<Watts>*>(&raw_p);
  const std::vector<Seconds>& tt =
      *reinterpret_cast<std::vector<Seconds>*>(&raw_t);

  using clock = std::chrono::steady_clock;
  auto raw_ns = std::chrono::nanoseconds::max();
  auto typed_ns = std::chrono::nanoseconds::max();
  for (int round = 0; round < kRounds; ++round) {
    double raw_sum = 0.0;
    const auto t0 = clock::now();
    for (int rep = 0; rep < 64; ++rep)
      for (std::size_t i = 0; i < kN; ++i) raw_sum += raw_p[i] * raw_t[i];
    const auto t1 = clock::now();
    Joules typed_sum{};
    for (int rep = 0; rep < 64; ++rep)
      for (std::size_t i = 0; i < kN; ++i) typed_sum += tp[i] * tt[i];
    const auto t2 = clock::now();

    EXPECT_DOUBLE_EQ(typed_sum.value(), raw_sum);
    raw_ns = std::min(raw_ns, std::chrono::nanoseconds(t1 - t0));
    typed_ns = std::min(typed_ns, std::chrono::nanoseconds(t2 - t1));
  }
  EXPECT_LT(typed_ns.count(), raw_ns.count() * 8 + 1000000)
      << "fastest typed " << typed_ns.count() << " ns vs fastest raw "
      << raw_ns.count() << " ns over " << kRounds << " rounds";
}

// ---------------------------------- energy re-integration regression

TEST(Units, PowerTraceEnergyMatchesRawIntegrationAfterTypedRefactor) {
  // PowerTrace::energy() runs entirely on Quantity arithmetic; it must
  // agree with a raw-double rectangle integration of the same steps to
  // 1e-9 relative — the regression gate for the typed refactor.
  power::PowerTrace trace;
  std::vector<std::pair<double, double>> steps;  // (start_s, level_w)
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double level = 5.0 + 0.37 * static_cast<double>(i % 29);
    trace.step(Seconds{t}, Watts{level});
    steps.emplace_back(t, level);
    t += 0.01 + 0.003 * static_cast<double>(i % 7);
  }
  const double horizon = t + 0.5;

  double raw_energy = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const double start = steps[i].first;
    const double end = i + 1 < steps.size() ? steps[i + 1].first : horizon;
    raw_energy += steps[i].second * (end - start);
  }

  const Joules typed = trace.energy(Seconds{horizon});
  EXPECT_NEAR(typed.value(), raw_energy, std::abs(raw_energy) * 1e-9);

  // And the average-power identity: E / T == average(T).
  const Watts avg = typed / Seconds{horizon};
  EXPECT_NEAR(avg.value(), trace.average(Seconds{horizon}).value(),
              std::abs(raw_energy) * 1e-9);
}

}  // namespace
