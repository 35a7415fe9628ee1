// hcep::obs::stream — streaming telemetry and the control-plane flight
// recorder.
//
// Three pillars:
//  1. The QuantileSketch is HONEST: quantile(q) always lands within the
//     reported epsilon() relative value-error bound of the exact order
//     statistic, at scale and after shard merges — and its memory never
//     exceeds the hard bucket cap.
//  2. The Collector is EXACT where it claims to be: per-window energy
//     and busy time are closed-form integrals of the same deltas the
//     power trace records (hand-computed scenarios here; the 1e-9
//     re-integration against PowerTrace::energy() runs in the 256-triple
//     sweep of tests/test_properties.cpp).
//  3. Streaming is purely OBSERVATIONAL: enabling it leaves every other
//     result byte byte-identical, and its own artifacts (JSON, CSV,
//     diff) are deterministic and round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hcep/model/time_energy.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::obs::stream;

// ------------------------------------------------------- quantile sketch

/// Asserts the histogram guarantee: for the exact order statistic x at
/// rank ceil(q*n), the sketch's answer v satisfies
/// |v - x| <= epsilon() * |x| (plus float dust).
void expect_within_value_bounds(const QuantileSketch& sk,
                                const std::vector<double>& sorted, double q,
                                const std::string& tag) {
  const auto n = static_cast<double>(sorted.size());
  ASSERT_EQ(sk.count(), sorted.size()) << tag;
  const double v = sk.quantile(q);
  const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(q * n),
                                                        1.0, n));
  const double exact = sorted[rank - 1];
  EXPECT_NEAR(v, exact, sk.epsilon() * std::abs(exact) + 1e-12)
      << tag << " q=" << q;
}

TEST(QuantileSketch, EmptyAndSingleValue) {
  QuantileSketch sk{0.01};
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_DOUBLE_EQ(sk.quantile(0.5), 0.0);
  sk.insert(42.0);
  EXPECT_EQ(sk.count(), 1u);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_NEAR(sk.quantile(q), 42.0, sk.epsilon() * 42.0);
}

TEST(QuantileSketch, ZeroAndSignHandling) {
  // Zero has its own exact bucket (-0.0 included); a negative or NaN
  // value is rejected and leaves the sketch as it was.
  QuantileSketch sk{0.01};
  for (const double v : {0.0, -0.0, 2.0, 4.0, 16.0}) sk.insert(v);
  EXPECT_THROW(sk.insert(-1.0), PreconditionError);
  EXPECT_THROW(sk.insert(std::nan("")), PreconditionError);
  EXPECT_THROW(sk.insert(-std::numeric_limits<double>::min()),
               PreconditionError);
  EXPECT_EQ(sk.count(), 5u);
  const double eps = sk.epsilon();
  EXPECT_DOUBLE_EQ(sk.quantile(0.0), 0.0);  // zeros are exact
  EXPECT_DOUBLE_EQ(sk.quantile(2.0 / 5.0), 0.0);
  EXPECT_NEAR(sk.quantile(3.0 / 5.0), 2.0, eps * 2.0);
  EXPECT_NEAR(sk.quantile(1.0), 16.0, eps * 16.0);
  // Monotone in q across the zero bucket.
  double prev = sk.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = sk.quantile(q);
    EXPECT_GE(cur, prev - 1e-12) << "q=" << q;
    prev = cur;
  }
}

TEST(QuantileSketch, ValueBoundsHoldAtScaleWithTiesAndTails) {
  for (const double eps : {0.001, 0.005, 0.02}) {
    Rng rng(11);
    std::vector<double> values;
    values.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      const double u = rng.uniform01();
      if (u < 0.4) {
        values.push_back(rng.uniform(0.0, 1.0));
      } else if (u < 0.7) {
        values.push_back(std::floor(rng.uniform(0.0, 8.0)));  // heavy ties
      } else {
        values.push_back(rng.exponential(0.5));  // long tail
      }
    }
    QuantileSketch sk{eps};
    for (const double v : values) sk.insert(v);
    EXPECT_LE(sk.buckets(), QuantileSketch::max_buckets());
    // Finest eps may escalate under this many-octave value range (small
    // uniforms near zero); the reported bound stays honest regardless.
    if (eps >= 0.005) {
      EXPECT_LE(sk.epsilon(), eps);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999})
      expect_within_value_bounds(sk, sorted, q,
                                 "eps=" + std::to_string(eps));
  }
}

TEST(QuantileSketch, EscalatesHonestlyUnderBucketCapPressure) {
  // A value range spanning ~60 octaves at fine resolution cannot fit
  // the bucket cap: the sketch must coarsen deterministically and
  // report the escalated bound, which the guarantee then still meets.
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                                static_cast<int>(rng.uniform_int(60)) - 30));
  }
  QuantileSketch sk{0.001};
  for (const double v : values) sk.insert(v);
  EXPECT_LE(sk.buckets(), QuantileSketch::max_buckets());
  EXPECT_GT(sk.epsilon(), 0.001);  // escalated, and says so
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99})
    expect_within_value_bounds(sk, sorted, q, "escalated");
}

TEST(QuantileSketch, ShardMergeTakesMaxBoundAndKeepsGuarantee) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 30000; ++i) values.push_back(rng.exponential(1.0));

  QuantileSketch a{0.004};
  QuantileSketch b{0.006};
  QuantileSketch c{0.004};
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).insert(values[i]);
  }
  const double worst =
      std::max({a.epsilon(), b.epsilon(), c.epsilon()});
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), values.size());
  EXPECT_LE(a.buckets(), QuantileSketch::max_buckets());
  // Bucket counts add, so the merged bound is the coarsest shard's
  // bound — it does NOT grow additively.
  EXPECT_DOUBLE_EQ(a.epsilon(), worst);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99})
    expect_within_value_bounds(a, sorted, q, "merged");

  // Merging into an empty sketch adopts the other's samples.
  QuantileSketch fresh{0.05};
  QuantileSketch one{0.01};
  one.insert(3.0);
  fresh.merge(one);
  EXPECT_EQ(fresh.count(), 1u);
  EXPECT_NEAR(fresh.quantile(0.5), 3.0, fresh.epsilon() * 3.0);
}

TEST(QuantileSketch, DeterministicForAFixedInsertSequence) {
  Rng rng(5);
  QuantileSketch a{0.01};
  QuantileSketch b{0.01};
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.normal(10.0, 3.0));
  for (const double v : values) a.insert(v);
  for (const double v : values) b.insert(v);
  EXPECT_EQ(a.buckets(), b.buckets());
  for (const double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

// ------------------------------------------------------------- collector

/// One class ("A9", 2 nodes, 10 W idle floor), 1 s windows. Every number
/// below is a hand-computed piecewise-constant integral.
TEST(Collector, HandComputedWindowsAreExact) {
  StreamOptions opt;
  opt.window = Seconds{1.0};
  Collector c(opt, {NodeClassInfo{"A9", 2}}, {Watts{10.0}});

  c.on_arrival(Seconds{0.2});
  c.on_dispatch(0, Seconds{0.2}, Seconds{0.2}, Seconds{1.5}, Watts{5.0});
  c.on_arrival(Seconds{0.4});
  c.on_dispatch(0, Seconds{0.4}, Seconds{0.4}, Seconds{0.9}, Watts{5.0});
  c.on_complete(0, Seconds{0.9}, Seconds{0.5});
  c.on_complete(0, Seconds{1.5}, Seconds{1.3});
  c.on_shed(Seconds{1.6});

  const StreamTimeline tl = Collector::merge_finalize({&c}, Seconds{2.0});
  ASSERT_EQ(tl.windows.size(), 2u);
  ASSERT_EQ(tl.node_classes.size(), 1u);
  EXPECT_EQ(tl.node_classes[0].nodes, 2u);

  const StreamWindow& w0 = tl.windows[0];
  EXPECT_EQ(w0.arrivals, 2u);
  EXPECT_EQ(w0.completions, 1u);
  EXPECT_EQ(w0.shed, 0u);
  EXPECT_EQ(w0.classes[0].dispatched, 2u);
  // Levels: 10 W on [0,0.2), 15 on [0.2,0.4), 20 on [0.4,0.9), 15 on
  // [0.9,1.0) -> 2.0 + 3.0 + 10.0 + 1.5 J.
  EXPECT_NEAR(w0.energy.value(), 16.5, 1e-12);
  // Busy population: 0,1,2,1 over the same segments -> 1.3 node-seconds.
  EXPECT_NEAR(w0.classes[0].busy.value(), 1.3, 1e-12);
  EXPECT_NEAR(w0.classes[0].utilization, 0.65, 1e-12);
  // One job still in flight at the boundary snapshot.
  EXPECT_EQ(w0.classes[0].queue_depth, 1u);
  EXPECT_EQ(w0.sojourn_count, 1u);
  EXPECT_NEAR(w0.sojourn_p50.value(), 0.5, tl.sketch_epsilon * 0.5);

  const StreamWindow& w1 = tl.windows[1];
  EXPECT_EQ(w1.arrivals, 0u);
  EXPECT_EQ(w1.completions, 1u);
  EXPECT_EQ(w1.shed, 1u);
  // 15 W until the 1.5 s completion, 10 W to the 2.0 s horizon.
  EXPECT_NEAR(w1.energy.value(), 12.5, 1e-12);
  EXPECT_NEAR(w1.classes[0].busy.value(), 0.5, 1e-12);
  EXPECT_NEAR(w1.classes[0].utilization, 0.25, 1e-12);
  EXPECT_EQ(w1.classes[0].queue_depth, 0u);
  EXPECT_NEAR(w1.sojourn_p99.value(), 1.3, tl.sketch_epsilon * 1.3);

  // The timeline total is the exact integral: floor + dynamic.
  EXPECT_NEAR(tl.total_energy.value(), 29.0, 1e-12);
  EXPECT_NEAR(tl.total_energy.value(),
              10.0 * 2.0 + 5.0 * 1.3 + 5.0 * 0.5, 1e-12);
}

TEST(Collector, BoundaryEventsLandInTheNewWindow) {
  StreamOptions opt;
  opt.window = Seconds{1.0};
  Collector c(opt, {NodeClassInfo{"A9", 1}}, {Watts{2.0}});
  c.on_arrival(Seconds{1.0});  // exactly at the 0/1 boundary
  const StreamTimeline tl = Collector::merge_finalize({&c}, Seconds{2.0});
  ASSERT_EQ(tl.windows.size(), 2u);
  EXPECT_EQ(tl.windows[0].arrivals, 0u);
  EXPECT_EQ(tl.windows[1].arrivals, 1u);
}

TEST(Collector, FloorDeltasAndWakeLumpsAreChargedToTheRightWindow) {
  StreamOptions opt;
  opt.window = Seconds{1.0};
  Collector c(opt, {NodeClassInfo{"K10", 1}}, {Watts{10.0}});
  c.on_floor_delta(0, Seconds{0.5}, Watts{-4.0});  // gate to sleep
  c.on_floor_delta(0, Seconds{1.25}, Watts{4.0});  // wake
  c.on_wake_energy(0, Seconds{1.25}, Joules{2.5});
  const StreamTimeline tl = Collector::merge_finalize({&c}, Seconds{2.0});
  ASSERT_EQ(tl.windows.size(), 2u);
  EXPECT_NEAR(tl.windows[0].energy.value(), 10.0 * 0.5 + 6.0 * 0.5, 1e-12);
  EXPECT_NEAR(tl.windows[1].energy.value(), 6.0 * 0.25 + 10.0 * 0.75,
              1e-12);
  EXPECT_DOUBLE_EQ(tl.windows[0].wake.value(), 0.0);
  EXPECT_DOUBLE_EQ(tl.windows[1].wake.value(), 2.5);
  EXPECT_NEAR(tl.total_energy.value() + tl.total_wake.value(),
              8.0 + 9.0 + 2.5, 1e-12);
}

TEST(Collector, ShardMergeSumsCountsAndMergesSketches) {
  StreamOptions opt;
  opt.window = Seconds{1.0};
  Collector a(opt, {NodeClassInfo{"A9", 1}}, {Watts{3.0}});
  Collector b(opt, {NodeClassInfo{"A9", 2}}, {Watts{6.0}});
  a.on_arrival(Seconds{0.1});
  a.on_complete(0, Seconds{0.6}, Seconds{0.5});
  b.on_arrival(Seconds{0.2});
  b.on_arrival(Seconds{0.3});
  b.on_complete(0, Seconds{0.7}, Seconds{0.4});
  const StreamTimeline tl =
      Collector::merge_finalize({&a, &b}, Seconds{1.0});
  ASSERT_EQ(tl.windows.size(), 1u);
  EXPECT_EQ(tl.node_classes[0].nodes, 3u);  // fleets add
  EXPECT_EQ(tl.windows[0].arrivals, 3u);
  EXPECT_EQ(tl.windows[0].completions, 2u);
  EXPECT_EQ(tl.windows[0].sojourn_count, 2u);
  EXPECT_NEAR(tl.windows[0].energy.value(), 9.0, 1e-12);
  // Merged sketch over {0.5, 0.4}: the median is the lower value.
  EXPECT_NEAR(tl.windows[0].sojourn_p50.value(), 0.4,
              tl.sketch_epsilon * 0.4);
  EXPECT_NEAR(tl.windows[0].sojourn_p99.value(), 0.5,
              tl.sketch_epsilon * 0.5);
}

// ------------------------------------------- serialization and the diff

/// Small two-window timeline for serialization/diff tests.
StreamTimeline sample_timeline() {
  StreamOptions opt;
  opt.window = Seconds{1.0};
  Collector c(opt, {NodeClassInfo{"A9", 2}, NodeClassInfo{"K10", 1}},
              {Watts{10.0}, Watts{7.0}});
  c.on_arrival(Seconds{0.2});
  c.on_dispatch(0, Seconds{0.2}, Seconds{0.2}, Seconds{0.9}, Watts{4.0});
  c.on_complete(0, Seconds{0.9}, Seconds{0.7});
  c.on_arrival(Seconds{1.1});
  c.on_dispatch(1, Seconds{1.1}, Seconds{1.1}, Seconds{1.8}, Watts{6.0});
  c.on_complete(1, Seconds{1.8}, Seconds{0.7});
  c.on_shed(Seconds{1.9});
  return Collector::merge_finalize({&c}, Seconds{2.0});
}

TEST(StreamTimeline, JsonRoundTripIsByteIdentical) {
  const StreamTimeline tl = sample_timeline();
  const std::string bytes = tl.to_json().dump();
  const StreamTimeline back =
      StreamTimeline::from_json(JsonValue::parse(bytes));
  EXPECT_EQ(back.to_json().dump(), bytes);
  EXPECT_THROW(StreamTimeline::from_json(JsonValue::parse("{\"kind\":\"x\"}")),
               PreconditionError);
}

TEST(StreamTimeline, CsvShapeAndQuoting) {
  StreamTimeline tl = sample_timeline();
  const std::string csv = tl.csv();
  // Header + per window: one aggregate row + one row per class.
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + tl.windows.size() * (1 + tl.node_classes.size()));
  EXPECT_EQ(csv.rfind("window,t0_s,t1_s,class,", 0), 0u);
  EXPECT_NE(csv.find(",A9,"), std::string::npos);
  EXPECT_NE(csv.find(",K10,"), std::string::npos);

  // RFC 4180: a hostile class name is quoted, quotes doubled.
  tl.node_classes[0].name = "A9,\"big\"";
  EXPECT_NE(tl.csv().find("\"A9,\"\"big\"\"\""), std::string::npos);
}

TEST(TimelineDiff, IdenticalTimelinesDiffEmpty) {
  const StreamTimeline a = sample_timeline();
  const StreamTimeline b = sample_timeline();
  const TimelineDiff d = diff_timelines(a, b);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.windows_compared, a.windows.size());
  EXPECT_TRUE(d.flagged_windows().empty());
  EXPECT_EQ(d.to_json().at("identical").as_bool(), true);
}

TEST(TimelineDiff, FlagsExactlyThePerturbedMetrics) {
  const StreamTimeline a = sample_timeline();
  StreamTimeline b = sample_timeline();
  b.windows[1].arrivals += 1;
  b.windows[1].classes[0].busy += Seconds{0.25};
  const TimelineDiff d = diff_timelines(a, b);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].metric, "arrivals");
  EXPECT_EQ(d.entries[1].metric, "A9.busy_s");
  EXPECT_EQ(d.flagged_windows(), (std::vector<std::uint64_t>{1}));
}

TEST(TimelineDiff, TolerancesGateContinuousMetrics) {
  const StreamTimeline a = sample_timeline();
  StreamTimeline b = sample_timeline();
  b.windows[0].energy *= 1.0 + 1e-13;  // below the default 1e-9
  EXPECT_TRUE(diff_timelines(a, b).empty());
  EXPECT_FALSE(diff_timelines(a, b, DiffTolerances{0.0, 0.0}).empty());
  b.windows[0].energy *= 1.0 + 1e-6;
  const TimelineDiff d = diff_timelines(a, b);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].metric, "energy_j");
  // Loose tolerances wave the same delta through.
  EXPECT_TRUE(diff_timelines(a, b, DiffTolerances{1e-3, 0.0}).empty());
}

TEST(TimelineDiff, ShapeMismatchAndMissingWindows) {
  const StreamTimeline a = sample_timeline();
  StreamTimeline narrower = a;
  narrower.window = Seconds{0.5};
  const TimelineDiff d1 = diff_timelines(a, narrower);
  EXPECT_TRUE(d1.shape_mismatch);
  EXPECT_FALSE(d1.empty());

  StreamTimeline longer = sample_timeline();
  longer.windows.push_back(longer.windows.back());
  longer.windows.back().index = 2;
  const TimelineDiff d2 = diff_timelines(a, longer);
  ASSERT_EQ(d2.entries.size(), 1u);
  EXPECT_EQ(d2.entries[0].metric, "missing_window");
  EXPECT_EQ(d2.entries[0].window, 2u);
  EXPECT_EQ(d2.flagged_windows(), (std::vector<std::uint64_t>{2}));
}

// -------------------------------------------------------- flight recorder

DecisionRecord make_record(std::uint64_t tick, std::uint32_t shard,
                           double t) {
  DecisionRecord r;
  r.tick = tick;
  r.shard = shard;
  r.t = Seconds{t};
  return r;
}

TEST(FlightRecorder, DropOldestCountsEvictions) {
  FlightRecorder fr{4};
  for (std::uint64_t i = 0; i < 6; ++i) fr.append(make_record(i, 0, 1.0));
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.dropped(), 2u);
  EXPECT_EQ(fr.at(0).tick, 2u);  // oldest records went first
  EXPECT_EQ(fr.at(3).tick, 5u);
  EXPECT_EQ(fr.to_json().at("dropped").as_int(), 2);
}

TEST(FlightRecorder, MergeInterleavesByTimeShardTick) {
  FlightRecorder a{8};
  FlightRecorder b{8};
  a.append(make_record(0, 0, 1.0));
  a.append(make_record(1, 0, 3.0));
  b.append(make_record(0, 1, 1.0));
  b.append(make_record(1, 1, 2.0));
  const FlightRecorder m = FlightRecorder::merge({&a, &b});
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.capacity(), 16u);  // capacities add: merging never evicts
  // (t=1,shard 0), (t=1,shard 1), (t=2,shard 1), (t=3,shard 0).
  EXPECT_EQ(m.at(0).shard, 0u);
  EXPECT_EQ(m.at(1).shard, 1u);
  EXPECT_DOUBLE_EQ(m.at(2).t.value(), 2.0);
  EXPECT_DOUBLE_EQ(m.at(3).t.value(), 3.0);
}

// ----------------------------------------- end-to-end traffic integration

const workload::Workload& ep() {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == "EP") return w;
  throw std::runtime_error("missing workload EP");
}

TEST(StreamedTraffic, StreamingIsPurelyObservational) {
  const auto cluster = model::make_a9_k10_cluster(2, 1);
  const std::vector<traffic::TrafficClass> classes{
      traffic::TrafficClass{ep(), 1.0, traffic::SloTarget{}}};
  const double rate =
      0.6 * traffic::cluster_capacity_per_s(cluster, classes);
  const auto arrivals = traffic::make_poisson(rate);

  traffic::TrafficOptions off;
  off.requests = 600;
  off.seed = 17;
  traffic::TrafficOptions on = off;
  on.stream.window = Seconds{60.0 / rate};

  const auto base = simulate_traffic(cluster, classes, *arrivals, off);
  const auto streamed = simulate_traffic(cluster, classes, *arrivals, on);

  // Same run, byte for byte — the collector drew no randomness and
  // scheduled no events.
  EXPECT_TRUE(base.timeline.empty());
  ASSERT_FALSE(streamed.timeline.empty());
  EXPECT_EQ(base.to_json().dump(), streamed.to_json().dump());
  EXPECT_EQ(base.energy.value(), streamed.energy.value());  // bit-exact

  // Open-loop ledger: window energies re-integrate the run's exact
  // energy (idle floor + dynamic), and counts conserve.
  const StreamTimeline& tl = streamed.timeline;
  double energy = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  for (const StreamWindow& w : tl.windows) {
    energy += w.energy.value();
    arrived += w.arrivals;
    completed += w.completions;
  }
  EXPECT_NEAR(energy, streamed.energy.value(),
              1e-9 * streamed.energy.value());
  EXPECT_NEAR(tl.total_energy.value(), energy, 1e-9 * energy);
  EXPECT_EQ(arrived, streamed.offered);
  EXPECT_EQ(completed, streamed.completed);
  EXPECT_DOUBLE_EQ(tl.horizon.value(), streamed.makespan.value());
}

TEST(StreamedTraffic, RunReportCarriesTimelineFlightAndWarnings) {
  obs::RunReport report;
  report.title = "streamed";
  EXPECT_TRUE(report.warnings().empty());
  const std::string without = report.json();
  EXPECT_EQ(without.find("\"stream\""), std::string::npos);
  EXPECT_EQ(without.find("\"flight\""), std::string::npos);

  report.timeline = sample_timeline();
  FlightRecorder fr{1};
  fr.append(make_record(0, 0, 1.0));
  fr.append(make_record(1, 0, 2.0));  // evicts -> warning
  report.flight = FlightRecorder::merge({&fr});
  const std::string with = report.json();
  EXPECT_NE(with.find("\"stream\""), std::string::npos);
  EXPECT_NE(with.find("\"flight\""), std::string::npos);
  const auto warns = report.warnings();
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_NE(warns[0].find("flight recorder evicted 1"), std::string::npos);
  EXPECT_NE(with.find("\"warnings\""), std::string::npos);
}

}  // namespace
