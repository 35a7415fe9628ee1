// Configuration space, power budgets, Pareto frontier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "hcep/config/budget.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::config;
using namespace hcep::literals;

const workload::Workload& ep() {
  static const workload::Workload kEp = workload::make_workload("EP");
  return kEp;
}

TEST(ConfigSpace, Footnote4CountIs36380) {
  // 10 ARM x 5 freq x 4 cores and 10 AMD x 3 freq x 6 cores:
  // 36,000 mixed + 200 ARM-only + 180 AMD-only = 36,380.
  const ConfigSpace space = make_a9_k10_space(10, 10);
  EXPECT_EQ(space.size(), 36380u);
}

TEST(ConfigSpace, SingleTypeCounts) {
  EXPECT_EQ(make_a9_k10_space(10, 0).size(), 200u);  // 10 x 4 x 5
  EXPECT_EQ(make_a9_k10_space(0, 10).size(), 180u);  // 10 x 6 x 3
  EXPECT_EQ(make_a9_k10_space(1, 1).size(),
            20u + 18u + 20u * 18u);
}

TEST(ConfigSpace, EveryDecodedConfigIsValid) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  std::set<std::string> signatures;
  space.for_each([&](const model::ClusterSpec& cfg, std::uint64_t) {
    cfg.validate();
    std::string sig;
    for (const auto& g : cfg.groups) {
      sig += g.spec.name + ":" + std::to_string(g.count) + ":" +
             std::to_string(g.cores()) + ":" +
             std::to_string(g.freq().value()) + ";";
    }
    const bool inserted = signatures.insert(sig).second;
    EXPECT_TRUE(inserted) << "duplicate configuration " << sig;
  });
  EXPECT_EQ(signatures.size(), space.size());
}

TEST(ConfigSpace, IndexDecodeIsStable) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  for (std::uint64_t i : std::vector<std::uint64_t>{0, 7, space.size() - 1}) {
    const model::ClusterSpec a = space.config_at(i);
    const model::ClusterSpec b = space.config_at(i);
    EXPECT_EQ(a.label(), b.label());
  }
  EXPECT_THROW((void)space.config_at(space.size()), PreconditionError);
}

TEST(ConfigSpace, CustomCoreAndFrequencyChoices) {
  TypeOptions t{hw::cortex_a9(), 2, {2, 4}, {0.8_GHz, 1.4_GHz}, {}};
  EXPECT_EQ(t.tuples(), 2u * 2u * 2u);
  const ConfigSpace space({t});
  EXPECT_EQ(space.size(), 8u);
  space.for_each([&](const model::ClusterSpec& cfg, std::uint64_t) {
    ASSERT_EQ(cfg.groups.size(), 1u);
    EXPECT_TRUE(cfg.groups[0].cores() == 2 || cfg.groups[0].cores() == 4);
  });
}

TEST(ConfigSpace, RejectsInvalidOptions) {
  EXPECT_THROW(ConfigSpace({}), PreconditionError);
  TypeOptions bad_core{hw::cortex_a9(), 2, {9}, {}, {}};
  EXPECT_THROW(ConfigSpace({bad_core}), PreconditionError);
  TypeOptions bad_freq{hw::cortex_a9(), 2, {}, {9_GHz}, {}};
  EXPECT_THROW(ConfigSpace({bad_freq}), PreconditionError);
}

TEST(Budget, SubstitutionRatioIsEight) {
  EXPECT_EQ(substitution_ratio(), 8u);
}

TEST(Budget, MixNameplateAccounting) {
  EXPECT_DOUBLE_EQ(mix_nameplate_power(0, 16).value(), 960.0);
  EXPECT_DOUBLE_EQ(mix_nameplate_power(32, 12).value(),
                   160.0 + 80.0 + 720.0);
  EXPECT_DOUBLE_EQ(mix_nameplate_power(128, 0).value(), 640.0 + 320.0);
}

TEST(Budget, PaperMixesAreTheFiveFromFigure7) {
  const auto mixes = paper_budget_mixes();
  ASSERT_EQ(mixes.size(), 5u);
  EXPECT_EQ(mixes[0].label(), "16K10");
  EXPECT_EQ(mixes[1].label(), "32A9:12K10");
  EXPECT_EQ(mixes[2].label(), "64A9:8K10");
  EXPECT_EQ(mixes[3].label(), "96A9:4K10");
  EXPECT_EQ(mixes[4].label(), "128A9");
  for (const auto& m : mixes) {
    EXPECT_LE(m.nameplate_power().value(), 1000.0) << m.label();
  }
}

TEST(Budget, GeneralBudgetsRespectTheCap) {
  for (double budget : {300.0, 500.0, 2000.0}) {
    const auto mixes = budget_mixes(Watts{budget}, 2);
    EXPECT_FALSE(mixes.empty());
    for (const auto& m : mixes)
      EXPECT_LE(m.nameplate_power().value(), budget) << m.label();
  }
  EXPECT_THROW((void)budget_mixes(10_W), PreconditionError);  // < one K10
  EXPECT_THROW((void)budget_mixes(1_kW, 0), PreconditionError);
}

TEST(Budget, GeneralizedMixesForOtherNodePairs) {
  // The footnote-3 derivation generalizes: A15 (12 W + 2.5 W switch
  // share) vs XeonE5 (130 W) gives ratio floor(130/14.5) = 8.
  const auto wimpy = hw::cortex_a15();
  const auto brawny = hw::xeon_e5();
  EXPECT_EQ(substitution_ratio_for(wimpy, brawny), 8u);
  // And the paper pair reproduces its own ratio through the generic path.
  EXPECT_EQ(substitution_ratio_for(hw::cortex_a9(), hw::opteron_k10()), 8u);

  const auto mixes = budget_mixes_for(wimpy, brawny, Watts{1000.0}, 2);
  ASSERT_GE(mixes.size(), 3u);
  for (const auto& mix : mixes) {
    mix.validate();
    EXPECT_LE(mix.nameplate_power().value(), 1000.0) << mix.label();
  }
  // Endpoints: all-brawny first, all-wimpy last.
  EXPECT_EQ(mixes.front().groups.back().spec.name, "XeonE5");
  EXPECT_EQ(mixes.back().groups.front().spec.name, "A15");

  EXPECT_THROW(
      (void)substitution_ratio_for(hw::opteron_k10(), hw::cortex_a9()),
      PreconditionError);
  EXPECT_THROW((void)budget_mixes_for(wimpy, brawny, Watts{10.0}),
               PreconditionError);
}

TEST(EvaluateSpace, EvaluatesEveryConfiguration) {
  const ConfigSpace space = make_a9_k10_space(2, 1);
  const auto evals = evaluate_space(space, ep());
  ASSERT_EQ(evals.size(), space.size());
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_GT(evals.time(i).value(), 0.0);
    EXPECT_GT(evals.energy(i).value(), 0.0);
    EXPECT_GT(evals.busy_power(i), evals.idle_power(i));
  }
}

TEST(EvaluateSpace, FastPathMatchesNaiveOracle) {
  // The memoized table is built from the same workload primitives the
  // per-config TimeEnergyModel uses and the fused evaluator repeats its
  // floating-point grouping, so the two paths agree to ~machine epsilon.
  // Sampled across the full footnote-4 space (36,380 configurations).
  const ConfigSpace space = make_a9_k10_space(10, 10);
  ASSERT_EQ(space.size(), 36380u);
  const auto fast = evaluate_space(space, ep());

  std::uint64_t checked = 0;
  for (std::uint64_t i = 0; i < space.size(); i += 29) {  // 1255 samples
    model::ClusterSpec cfg = space.config_at(i);
    model::TimeEnergyModel m(cfg, ep());
    const double t = m.execution_time(ep().units_per_job).t_p.value();
    const double e = m.job_energy(ep().units_per_job).e_p.value();
    EXPECT_NEAR(fast.times()[i] / t, 1.0, 1e-9) << "config " << i;
    EXPECT_NEAR(fast.energies()[i] / e, 1.0, 1e-9) << "config " << i;
    EXPECT_NEAR(fast.idle_powers()[i] / m.idle_power().value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.busy_powers()[i] / m.busy_power().value(), 1.0, 1e-9);
    ++checked;
  }
  EXPECT_GE(checked, 1000u);
}

TEST(EvaluateSpace, NaivePathAgreesExactlyOnSmallSpace) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto fast = evaluate_space(space, ep());
  const auto naive = evaluate_space_naive(space, ep());
  ASSERT_EQ(fast.size(), naive.size());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i].index, i);
    EXPECT_NEAR(fast.times()[i] / naive[i].time.value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.energies()[i] / naive[i].energy.value(), 1.0, 1e-9);
    EXPECT_NEAR(fast.idle_powers()[i] / naive[i].idle_power.value(), 1.0,
                1e-9);
    EXPECT_NEAR(fast.busy_powers()[i] / naive[i].busy_power.value(), 1.0,
                1e-9);
  }
}

TEST(EvaluateSpace, MaterializeMatchesConfigAt) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  const auto evals = evaluate_space(space, ep());
  for (std::uint64_t i : std::vector<std::uint64_t>{0, 17, space.size() - 1}) {
    const Evaluation e = evals.materialize(i);
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.config.label(), space.config_at(i).label());
    EXPECT_DOUBLE_EQ(e.time.value(), evals.times()[i]);
    EXPECT_DOUBLE_EQ(e.energy.value(), evals.energies()[i]);
  }
  EXPECT_THROW((void)evals.materialize(evals.size()), PreconditionError);
}

TEST(ConfigSpace, DecodeAtRoundTripsThroughConfigAt) {
  // decode_at + point_at must agree with the materialized ClusterSpec for
  // every configuration: same group order, counts, cores and frequencies.
  const ConfigSpace space = make_a9_k10_space(3, 2);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    DecodedGroup groups[kMaxTypes];
    const std::size_t n = space.decode_at(i, groups);
    const model::ClusterSpec cfg = space.config_at(i);
    ASSERT_EQ(n, cfg.groups.size()) << "config " << i;
    for (std::size_t g = 0; g < n; ++g) {
      const OperatingPoint op = space.point_at(groups[g].type, groups[g].point);
      EXPECT_EQ(space.types()[groups[g].type].spec.name,
                cfg.groups[g].spec.name);
      EXPECT_EQ(groups[g].count, cfg.groups[g].count);
      EXPECT_EQ(op.cores, cfg.groups[g].cores());
      EXPECT_EQ(op.frequency.value(), cfg.groups[g].freq().value());
    }
  }
  DecodedGroup scratch[kMaxTypes];
  EXPECT_THROW((void)space.decode_at(space.size(), scratch),
               PreconditionError);
}

TEST(ConfigSpace, ForEachDecodedMatchesDecodeAt) {
  const ConfigSpace space = make_a9_k10_space(2, 3);
  std::uint64_t expected = 0;
  space.for_each_decoded([&](const DecodedGroup* groups, std::size_t n,
                             std::uint64_t index) {
    ASSERT_EQ(index, expected++);
    DecodedGroup reference[kMaxTypes];
    ASSERT_EQ(space.decode_at(index, reference), n);
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_EQ(groups[g].type, reference[g].type);
      EXPECT_EQ(groups[g].count, reference[g].count);
      EXPECT_EQ(groups[g].point, reference[g].point);
    }
  });
  EXPECT_EQ(expected, space.size());
}

TEST(ConfigSpace, RejectsMoreThanMaxTypes) {
  std::vector<TypeOptions> types;
  for (std::size_t i = 0; i < kMaxTypes + 1; ++i) {
    TypeOptions t;
    t.spec = hw::cortex_a9();
    t.spec.name += "_" + std::to_string(i);
    types.push_back(std::move(t));
  }
  EXPECT_THROW(ConfigSpace(std::move(types)), PreconditionError);
}

TEST(OperatingPointTable, CachesEveryTupleOnce) {
  // Footnote-4 space: 4 cores x 5 freqs (A9) + 6 cores x 3 freqs (K10)
  // = 38 distinct operating points for 36,380 configurations.
  const ConfigSpace space = make_a9_k10_space(10, 10);
  const OperatingPointTable table(space, ep());
  ASSERT_EQ(table.num_types(), 2u);
  EXPECT_EQ(table.points_for(0), 20u);
  EXPECT_EQ(table.points_for(1), 18u);
  EXPECT_DOUBLE_EQ(table.units_per_job(), ep().units_per_job);
  for (std::size_t t = 0; t < table.num_types(); ++t) {
    EXPECT_GT(table.idle_power(t).value(), 0.0);
    for (std::size_t p = 0; p < table.points_for(t); ++p) {
      const OperatingPointEntry& e = table.entry(t, p);
      EXPECT_GT(e.t_cpu.value(), 0.0);
      EXPECT_GT(e.throughput, 0.0);
      EXPECT_GT(e.busy_power.value(), 0.0);
    }
  }
}

TEST(EvaluateSpace, RejectsUncoveredNodeTypes) {
  workload::CatalogOptions opts;
  opts.nodes = {hw::cortex_a9()};
  const workload::Workload a9_only = workload::make_workload("EP", opts);
  const ConfigSpace space = make_a9_k10_space(1, 1);
  EXPECT_THROW((void)evaluate_space(space, a9_only), PreconditionError);
}

TEST(ParetoFront, NoMemberIsDominated) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());
  const auto front = pareto_front(evals);
  ASSERT_FALSE(front.empty());
  // Sorted by time, strictly decreasing energy.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].time, front[i - 1].time);
    EXPECT_LT(front[i].energy, front[i - 1].energy);
  }
  // Property: nothing in the full set dominates a frontier member.
  for (const auto& f : front) {
    for (std::size_t i = 0; i < evals.size(); ++i) {
      const double t = evals.times()[i];
      const double e = evals.energies()[i];
      const bool dominates =
          t <= f.time.value() && e <= f.energy.value() &&
          (t < f.time.value() || e < f.energy.value());
      EXPECT_FALSE(dominates)
          << "config " << i << " dominates " << f.config.label();
    }
  }
}

TEST(ParetoFront, SetAndVectorOverloadsAgree) {
  const ConfigSpace space = make_a9_k10_space(2, 2);
  const auto set_front = pareto_front(evaluate_space(space, ep()));
  const auto vec_front = pareto_front(evaluate_space_naive(space, ep()));
  ASSERT_EQ(set_front.size(), vec_front.size());
  for (std::size_t i = 0; i < set_front.size(); ++i) {
    EXPECT_NEAR(set_front[i].time.value() / vec_front[i].time.value(), 1.0,
                1e-9);
    EXPECT_NEAR(set_front[i].energy.value() / vec_front[i].energy.value(),
                1.0, 1e-9);
  }
}

TEST(ParetoFront, FrontierEndpoints) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  auto evals = evaluate_space(space, ep());
  const auto front = pareto_front(evals);
  const auto fastest_eval = fastest(evals);
  ASSERT_TRUE(fastest_eval.has_value());
  EXPECT_DOUBLE_EQ(front.front().time.value(),
                   fastest_eval->time.value());
  // The last frontier member carries the global minimum energy.
  double min_energy = 1e300;
  for (double e : evals.energies()) min_energy = std::min(min_energy, e);
  EXPECT_DOUBLE_EQ(front.back().energy.value(), min_energy);
}

/// The front by definition, with no prefilter: every row's (time,
/// energy, index) key sorted, then each row that lowers the running
/// minimum energy. Returns the members' indices in front order.
std::vector<std::uint64_t> reference_front(const EvaluationSet& evals) {
  std::vector<std::tuple<double, double, std::uint64_t>> keys;
  for (std::size_t i = 0; i < evals.size(); ++i)
    keys.emplace_back(evals.times()[i], evals.energies()[i], i);
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> front;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [time, energy, index] : keys) {
    if (energy < best) {
      best = energy;
      front.push_back(index);
    }
  }
  return front;
}

void expect_front_matches_reference(const EvaluationSet& evals) {
  const auto front = pareto_front(evals);
  const auto expected = reference_front(evals);
  ASSERT_EQ(front.size(), expected.size());
  for (std::size_t j = 0; j < front.size(); ++j) {
    SCOPED_TRACE("member " + std::to_string(j));
    EXPECT_EQ(front[j].index, expected[j]);
    EXPECT_EQ(front[j].time.value(), evals.times()[expected[j]]);
    EXPECT_EQ(front[j].energy.value(), evals.energies()[expected[j]]);
  }
}

/// Which scan a multi-block set plants a tied minimum for.
enum class Planted { kTime, kEnergy, kEdp };

/// The sizes that put a set's rows in one block, exactly one, just over
/// one, and a few with a short last block.
constexpr std::size_t kBlockSizes[] = {1, kScanBlock - 1, kScanBlock,
                                       kScanBlock + 1, 3 * kScanBlock + 5};

/// The two rows a multi-block set plants its tied minimum at: the last
/// row, and one block before it when the set spans several blocks (the
/// middle row otherwise).
std::pair<std::size_t, std::size_t> planted_rows(std::size_t n) {
  const std::size_t second = n - 1;
  const std::size_t first = n > kScanBlock ? second - kScanBlock : n / 2;
  return {first, second};
}

/// The deadline every multi-block set is scanned against.
constexpr double kPlantedDeadline = 8.0;

/// A set of `n` rows on a space large enough to materialize them: base
/// times in [2, 12) s and energies in [50, 150) J, with one quantity's
/// minimum planted at the two planted_rows. Energy plants also a
/// lower-energy row past the deadline just before the first of them.
EvaluationSet multi_block_set(std::size_t n, Planted planted) {
  static const ConfigSpace space = make_a9_k10_space(17, 17);
  EXPECT_GE(space.size(), n);
  EvaluationSet s(&space, n);
  for (std::size_t i = 0; i < n; ++i) {
    s.set(i, Seconds{2.0 + static_cast<double>(i * 7919 % 1000) / 100.0},
          Joules{50.0 + static_cast<double>(i * 104729 % 997) / 10.0},
          Watts{1.0}, Watts{2.0});
  }
  const auto [first, second] = planted_rows(n);
  for (const std::size_t row : {first, second}) {
    switch (planted) {
      case Planted::kTime:  // fastest; EDP 200, not the minimum
        s.set(row, Seconds{1.0}, Joules{200.0}, Watts{1.0}, Watts{2.0});
        break;
      case Planted::kEnergy:  // cheapest in time; EDP 75
        s.set(row, Seconds{7.5}, Joules{10.0}, Watts{1.0}, Watts{2.0});
        break;
      case Planted::kEdp:  // EDP 30, ED2P 45
        s.set(row, Seconds{1.5}, Joules{20.0}, Watts{1.0}, Watts{2.0});
        break;
    }
  }
  if (planted == Planted::kEnergy && first > 0) {  // EDP 100, ED2P 2,000
    s.set(first - 1, Seconds{20.0}, Joules{5.0}, Watts{1.0}, Watts{2.0});
  }
  return s;
}

TEST(ParetoFront, PrefilterMatchesSortEverythingOnEveryProgram) {
  // 92,768 configurations; a program's slowest time is 35x (memcached)
  // to 14,000x (RSA-2048) its fastest, the range the prefilter's
  // buckets must resolve.
  const ConfigSpace space = make_a9_k10_space(16, 16);
  ASSERT_EQ(space.size(), 92768u);
  for (const auto& w : workload::paper_workloads()) {
    SCOPED_TRACE(w.name);
    expect_front_matches_reference(evaluate_space(space, w));
  }
}

TEST(ParetoFront, PrefilterMatchesSortEverythingOnHandBuiltSets) {
  const ConfigSpace space = make_a9_k10_space(2, 2);  // 1,516 configs
  const auto set_row = [](EvaluationSet& s, std::size_t i, double t,
                          double e) {
    s.set(i, Seconds{t}, Joules{e}, Watts{1.0}, Watts{2.0});
  };
  {  // One row is its own front.
    EvaluationSet one(&space, 1);
    set_row(one, 0, 2.0, 3.0);
    expect_front_matches_reference(one);
    EXPECT_EQ(pareto_front(one).size(), 1u);
  }
  {  // Every row at one time: the lowest energy, lowest index wins.
    EvaluationSet flat(&space, 50);
    for (std::size_t i = 0; i < 50; ++i)
      set_row(flat, i, 0.5, 10.0 - static_cast<double>(i % 7));
    expect_front_matches_reference(flat);
    const auto front = pareto_front(flat);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].index, 6u);
  }
  {  // Equal (time, energy) at two indices: the lower index wins.
    EvaluationSet tie(&space, 4);
    set_row(tie, 0, 2.0, 5.0);
    set_row(tie, 1, 1.0, 3.0);
    set_row(tie, 2, 3.0, 1.0);
    set_row(tie, 3, 1.0, 3.0);
    expect_front_matches_reference(tie);
    const auto front = pareto_front(tie);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].index, 1u);
    EXPECT_EQ(front[1].index, 2u);
  }
  {  // -0.0 and +0.0 are one time: the lower index wins there too.
    EvaluationSet zeros(&space, 3);
    set_row(zeros, 0, 0.0, 4.0);
    set_row(zeros, 1, -0.0, 4.0);
    set_row(zeros, 2, 1.0, 2.0);
    expect_front_matches_reference(zeros);
    const auto front = pareto_front(zeros);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].index, 0u);
  }
  {  // Times from the smallest subnormal to 1e300, pairs of rows sharing
     // a time, energies scrambled so the front has several members.
    constexpr std::size_t kRows = 600;
    EvaluationSet wide(&space, kRows);
    set_row(wide, 0, std::numeric_limits<double>::denorm_min(), 1e3);
    for (std::size_t i = 1; i < kRows; ++i) {
      const double decade =
          -320.0 + 620.0 * static_cast<double>(i / 2 * 2) / (kRows - 2);
      set_row(wide, i, std::pow(10.0, decade),
              1.0 + static_cast<double>(i * 7919 % 1000));
    }
    EXPECT_LT(wide.times()[1], std::numeric_limits<double>::min());
    EXPECT_EQ(wide.times()[kRows - 1], 1e300);
    expect_front_matches_reference(wide);
    EXPECT_GT(pareto_front(wide).size(), 3u);
  }
  // Sets of one to four blocks of the pooled passes. Each plants a front
  // member at two rows with equal (time, energy), in different blocks
  // when there are several: the lower index wins.
  for (const std::size_t n : kBlockSizes) {
    for (const Planted planted :
         {Planted::kTime, Planted::kEnergy, Planted::kEdp}) {
      SCOPED_TRACE("rows " + std::to_string(n) + ", plant " +
                   std::to_string(static_cast<int>(planted)));
      const EvaluationSet set = multi_block_set(n, planted);
      expect_front_matches_reference(set);
      const auto front = pareto_front(set);
      const std::size_t first = planted_rows(n).first;
      EXPECT_TRUE(std::any_of(front.begin(), front.end(),
                              [&](const Evaluation& e) {
                                return e.index == first;
                              }));
    }
  }
  {  // Every row of four blocks at one time: one member, the first of
     // the lowest energy.
    EvaluationSet flat = multi_block_set(3 * kScanBlock + 5, Planted::kTime);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat.set(i, Seconds{4.0}, flat.energy(i), Watts{1.0}, Watts{2.0});
    }
    expect_front_matches_reference(flat);
    EXPECT_EQ(pareto_front(flat).size(), 1u);
  }
}

TEST(ParetoFront, EmptyInputYieldsEmptyFront) {
  EXPECT_TRUE(pareto_front(std::vector<Evaluation>{}).empty());
  EXPECT_FALSE(fastest(std::vector<Evaluation>{}).has_value());
  EXPECT_FALSE(min_energy_within_deadline(std::vector<Evaluation>{},
                                          Seconds{1.0})
                   .has_value());
  const EvaluationSet empty_set;
  EXPECT_TRUE(pareto_front(empty_set).empty());
  EXPECT_FALSE(fastest(empty_set).has_value());
  EXPECT_FALSE(
      min_energy_within_deadline(empty_set, Seconds{1.0}).has_value());
  EXPECT_FALSE(min_edp(empty_set).has_value());
}

TEST(EnergyDelay, ProductsAndMinimum) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());

  // EDP/ED2P formulas.
  const Evaluation e0 = evals.materialize(0);
  EXPECT_DOUBLE_EQ(energy_delay_product(e0).value(),
                   e0.energy.value() * e0.time.value());
  EXPECT_DOUBLE_EQ(energy_delay2_product(e0).value(),
                   e0.energy.value() * e0.time.value() * e0.time.value());

  // The EDP optimum is never dominated: it must sit on the frontier.
  const auto best = min_edp(evals);
  ASSERT_TRUE(best.has_value());
  for (std::size_t i = 0; i < evals.size(); ++i)
    EXPECT_GE(evals.energies()[i] * evals.times()[i],
              energy_delay_product(*best).value() - 1e-12);
  const auto front = pareto_front(evals);
  bool on_front = false;
  for (const auto& f : front) {
    if (f.time == best->time && f.energy == best->energy) on_front = true;
  }
  EXPECT_TRUE(on_front);

  // ED2P weights latency harder: its pick is at least as fast.
  const auto best2 = min_edp(evals, /*squared=*/true);
  ASSERT_TRUE(best2.has_value());
  EXPECT_LE(best2->time, best->time);

  EXPECT_FALSE(min_edp(std::vector<Evaluation>{}).has_value());
}

TEST(MinEnergyWithinDeadline, PicksCheapestFeasible) {
  const ConfigSpace space = make_a9_k10_space(3, 2);
  const auto evals = evaluate_space(space, ep());
  const auto fastest_eval = fastest(evals);
  ASSERT_TRUE(fastest_eval.has_value());

  // Generous deadline: must return the global energy minimum.
  const auto loose =
      min_energy_within_deadline(evals, Seconds{1e9});
  ASSERT_TRUE(loose.has_value());
  for (double e : evals.energies()) EXPECT_GE(e, loose->energy.value());

  // Impossible deadline: nothing qualifies.
  const auto none = min_energy_within_deadline(
      evals, fastest_eval->time * 0.5);
  EXPECT_FALSE(none.has_value());

  // Tight-but-feasible deadline: result respects it.
  const auto tight =
      min_energy_within_deadline(evals, fastest_eval->time * 1.2);
  ASSERT_TRUE(tight.has_value());
  EXPECT_LE(tight->time, fastest_eval->time * 1.2);
}

/// The serial scans the pooled EvaluationSet overloads replaced: the
/// first row of the minimum, or none.
std::optional<std::size_t> serial_fastest(const EvaluationSet& s) {
  if (s.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < s.size(); ++i)
    if (s.times()[i] < s.times()[best]) best = i;
  return best;
}

std::optional<std::size_t> serial_min_energy_within(const EvaluationSet& s,
                                                    double deadline) {
  std::optional<std::size_t> best;
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.times()[i] > deadline) continue;
    if (s.energies()[i] < best_energy) {
      best_energy = s.energies()[i];
      best = i;
    }
  }
  return best;
}

std::optional<std::size_t> serial_min_edp(const EvaluationSet& s,
                                          bool squared) {
  std::optional<std::size_t> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double t = s.times()[i];
    const double score = s.energies()[i] * t * (squared ? t : 1.0);
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

std::optional<std::size_t> row_of(const std::optional<Evaluation>& e) {
  if (!e) return std::nullopt;
  return static_cast<std::size_t>(e->index);
}

void expect_scans_match_serial(const EvaluationSet& s) {
  EXPECT_EQ(row_of(fastest(s)), serial_fastest(s));
  EXPECT_EQ(row_of(min_energy_within_deadline(s, Seconds{kPlantedDeadline})),
            serial_min_energy_within(s, kPlantedDeadline));
  EXPECT_EQ(row_of(min_edp(s)), serial_min_edp(s, false));
  EXPECT_EQ(row_of(min_edp(s, /*squared=*/true)), serial_min_edp(s, true));
  // A deadline below every time: nothing qualifies.
  EXPECT_FALSE(min_energy_within_deadline(s, Seconds{0.5}).has_value());
}

TEST(SetScans, PickWhatTheSerialScansPickAcrossBlocks) {
  // Each planted minimum sits at two rows, in different blocks when the
  // set has several: the block-order combine must keep the lower index.
  for (const std::size_t n : kBlockSizes) {
    SCOPED_TRACE("rows " + std::to_string(n));
    const std::size_t first = planted_rows(n).first;
    {
      const EvaluationSet s = multi_block_set(n, Planted::kTime);
      expect_scans_match_serial(s);
      EXPECT_EQ(row_of(fastest(s)), first);
    }
    {
      const EvaluationSet s = multi_block_set(n, Planted::kEnergy);
      expect_scans_match_serial(s);
      EXPECT_EQ(
          row_of(min_energy_within_deadline(s, Seconds{kPlantedDeadline})),
          first);
    }
    {
      const EvaluationSet s = multi_block_set(n, Planted::kEdp);
      expect_scans_match_serial(s);
      EXPECT_EQ(row_of(min_edp(s)), first);
      EXPECT_EQ(row_of(min_edp(s, /*squared=*/true)), first);
    }
  }
  {  // Every row at one time: each scan keeps the first row it can.
    EvaluationSet flat = multi_block_set(3 * kScanBlock + 5, Planted::kEdp);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat.set(i, Seconds{4.0}, flat.energy(i), Watts{1.0}, Watts{2.0});
    }
    expect_scans_match_serial(flat);
    EXPECT_EQ(row_of(fastest(flat)), 0u);
  }
}

}  // namespace
