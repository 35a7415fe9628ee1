// Observability subsystem: metrics registry (concurrent counters,
// histogram bucketing), event tracer (ring overflow, exporters),
// observer sinks, power probe fidelity and deterministic replay of the
// cluster simulator's exported traces.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "hcep/cluster/simulator.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/obs/metrics.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/obs/trace.hpp"
#include "hcep/util/error.hpp"

namespace {

using namespace hcep;

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, CounterSumsExactlyUnderConcurrentWriters) {
  obs::MetricsRegistry reg;
  const obs::MetricId shared = reg.counter("shared");
  const obs::MetricId hist = reg.histogram("lat", {1.0, 2.0, 4.0});

  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      // Per-thread registration of the same names must yield the same ids.
      EXPECT_EQ(reg.counter("shared"), shared);
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        reg.add(shared);
        reg.observe(hist, static_cast<double>(t % 5));
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("shared"), kThreads * kIncrements);
  const obs::HistogramSnapshot* h = snap.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kIncrements);
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusiveUpperEdges) {
  obs::MetricsRegistry reg;
  const obs::MetricId id = reg.histogram("h", {1.0, 2.0, 4.0});
  // Exactly-on-boundary values land in the bucket they bound.
  for (double v : {0.5, 1.0}) reg.observe(id, v);            // <= 1
  for (double v : {1.5, 2.0}) reg.observe(id, v);            // <= 2
  for (double v : {2.5, 4.0}) reg.observe(id, v);            // <= 4
  for (double v : {4.5, 100.0, 1e9}) reg.observe(id, v);     // overflow

  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* h = snap.histogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->counts[0], 2u);
  EXPECT_EQ(h->counts[1], 2u);
  EXPECT_EQ(h->counts[2], 2u);
  EXPECT_EQ(h->counts[3], 3u);
  EXPECT_EQ(h->count, 9u);
  EXPECT_NEAR(h->sum, 0.5 + 1.0 + 1.5 + 2.0 + 2.5 + 4.0 + 4.5 + 100.0 + 1e9,
              1e-6);
}

TEST(MetricsRegistry, SnapshotExposesOverflowAndQuantileEstimates) {
  obs::MetricsRegistry reg;
  const obs::MetricId id = reg.histogram("lat", {1.0, 2.0, 4.0});
  // 10 in (1,2], 10 in (2,4], 5 above every bound.
  for (int i = 0; i < 10; ++i) reg.observe(id, 1.5);
  for (int i = 0; i < 10; ++i) reg.observe(id, 3.0);
  for (int i = 0; i < 5; ++i) reg.observe(id, 100.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* h = snap.histogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->overflow(), 5u);

  // rank(0.5) = 12.5 of 25 -> 2.5 into the (2,4] bucket of 10: 2.5.
  EXPECT_NEAR(h->quantile(0.5), 2.0 + 2.0 * (12.5 - 10.0) / 10.0, 1e-12);
  // rank(0.2) = 5 of 25 -> inside the first occupied bucket (1,2]:
  // interpolates from its lower edge.
  EXPECT_NEAR(h->quantile(0.2), 1.0 + 1.0 * 5.0 / 10.0, 1e-12);
  // Ranks landing in the overflow bucket clamp to the last bound.
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 4.0);
  // Monotone in q.
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_GE(h->quantile(q), prev) << q;
    prev = h->quantile(q);
  }
  EXPECT_THROW((void)h->quantile(1.5), PreconditionError);

  // Empty histograms estimate zero; JSON spells the +Inf bucket out.
  obs::MetricsRegistry reg2;
  (void)reg2.histogram("empty", {1.0});
  const obs::MetricsSnapshot snap2 = reg2.snapshot();
  EXPECT_DOUBLE_EQ(snap2.histogram("empty")->quantile(0.95), 0.0);
  EXPECT_NE(snap.to_json().dump().find("\"overflow\":5"),
            std::string::npos);
}

TEST(MetricsRegistry, GaugeIsLastWriterWinsAndResetZeroes) {
  obs::MetricsRegistry reg;
  const obs::MetricId g = reg.gauge("g");
  const obs::MetricId c = reg.counter("c");
  reg.set(g, 1.5);
  reg.set(g, -3.25);
  reg.add(c, 7);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("g"), -3.25);

  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 0.0);
  EXPECT_EQ(snap.counter("c"), 0u);
  // Absent names resolve to zero / nullptr, not errors.
  EXPECT_EQ(snap.counter("nope"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("nope"), 0.0);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
}

TEST(MetricsRegistry, ReRegistrationChecksKindAndBounds) {
  obs::MetricsRegistry reg;
  const obs::MetricId h = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(reg.histogram("h", {1.0, 2.0}), h);  // idempotent
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), PreconditionError);
  EXPECT_THROW((void)reg.counter("h"), PreconditionError);
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), PreconditionError);
}

// ----------------------------------------------------------------- tracer

TEST(EventTracer, RingOverflowDropsOldestAndCounts) {
  obs::EventTracer tracer(8);
  const obs::StringId cat = tracer.intern("t");
  const obs::StringId name = tracer.intern("tick");
  for (int i = 0; i < 12; ++i)
    tracer.instant(static_cast<double>(i), cat, name);

  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.recorded(), 12u);
  EXPECT_EQ(tracer.dropped(), 4u);

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Oldest-first, with the first 4 events overwritten.
    EXPECT_DOUBLE_EQ(events[i].ts, static_cast<double>(i + 4));
  }

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.string_at(cat), "t");  // interned strings survive
}

TEST(EventTracer, ChromeTraceRoundTripsThroughUtilJson) {
  obs::EventTracer tracer(64);
  const obs::StringId cat = tracer.intern("cluster");
  const obs::StringId job = tracer.intern("job");
  const obs::StringId wait = tracer.intern("wait_s");
  const obs::StringId pw = tracer.intern("cluster_W");
  tracer.begin(0.25, cat, job, wait, 0.125);
  tracer.counter(0.25, cat, pw, 42.5);
  tracer.instant(0.5, cat, tracer.intern("arrival"));
  tracer.end(0.75, cat, job);

  // The exporter goes through util/json: the JsonValue tree must dump to
  // the same bytes the convenience string method produces.
  const JsonValue tree = tracer.chrome_trace();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(tree.dump(), json);

  // Chrome trace_event structure: phases as letters, timestamps in µs.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("250000"), std::string::npos);  // 0.25 s -> 250000 µs
  EXPECT_EQ(json.find("droppedEvents"), std::string::npos);

  // A saturated tracer flags the loss in the export.
  obs::EventTracer tiny(2);
  const obs::StringId c2 = tiny.intern("x");
  for (int i = 0; i < 5; ++i) tiny.instant(i, c2, c2);
  EXPECT_NE(tiny.chrome_trace_json().find("\"droppedEvents\":3"),
            std::string::npos);
}

TEST(EventTracer, CsvAndJsonlCoverEveryRetainedEvent) {
  obs::EventTracer tracer(16);
  const obs::StringId cat = tracer.intern("c");
  tracer.begin(0.0, cat, tracer.intern("span"));
  tracer.end(1.0, cat, tracer.intern("span"));
  tracer.counter(1.5, cat, tracer.intern("w"), 3.0);

  const std::string csv = tracer.csv();
  EXPECT_NE(csv.find("ts,phase,category,name,arg_key,arg_value"),
            std::string::npos);
  const std::string jsonl = tracer.jsonl();
  std::size_t lines = 0;
  for (char ch : jsonl) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

TEST(EventTracer, ExportersEscapeHostileStrings) {
  // Regression: category/name/arg strings with embedded quotes,
  // backslashes, commas and newlines must survive every text exporter —
  // JSONL lines stay valid JSON, CSV fields get RFC 4180 quoting.
  obs::EventTracer tracer(16);
  const std::string cat = "bad\"cat\\with\nnewline";
  const std::string name = "name,with,commas";
  const std::string key = "arg\tkey";
  const obs::StringId cat_s = tracer.intern(cat);
  const obs::StringId name_s = tracer.intern(name);
  const obs::StringId key_s = tracer.intern(key);
  tracer.begin(0.5, cat_s, name_s, key_s, 1.25);
  tracer.end(1.0, cat_s, name_s);

  // Every JSONL line parses, and the strings round-trip exactly.
  const std::string jsonl = tracer.jsonl();
  std::size_t start = 0;
  std::size_t lines = 0;
  while (start < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const JsonValue line =
        JsonValue::parse(jsonl.substr(start, nl - start));
    EXPECT_EQ(line.at("cat").as_string(), cat);
    EXPECT_EQ(line.at("name").as_string(), name);
    start = nl + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);

  // The chrome export is a valid JSON document carrying the raw strings.
  const JsonValue chrome = JsonValue::parse(tracer.chrome_trace_json());
  EXPECT_EQ(chrome.at("traceEvents").at(0).at("cat").as_string(), cat);

  // CSV: fields with separators/quotes/newlines are quoted and doubled.
  const std::string csv = tracer.csv();
  EXPECT_NE(csv.find("\"bad\"\"cat\\with\nnewline\""), std::string::npos);
  EXPECT_NE(csv.find("\"name,with,commas\""), std::string::npos);
  // Unquoted fields stay bare (header row untouched).
  EXPECT_NE(csv.find("ts,phase,category,name,arg_key,arg_value\n"),
            std::string::npos);
}

// -------------------------------------------------------------- observer

TEST(Observer, ScopedInstallRestoresPreviousAndGlobalIsFallback) {
  ASSERT_EQ(obs::current(), nullptr);
  obs::Observer outer;
  obs::Observer inner;
  obs::Observer global;
  {
    obs::ScopedObserver a(outer);
    EXPECT_EQ(obs::current(), &outer);
    {
      obs::ScopedObserver b(inner);
      EXPECT_EQ(obs::current(), &inner);
    }
    EXPECT_EQ(obs::current(), &outer);

    // The thread-local override shadows the global fallback.
    obs::set_global(&global);
    EXPECT_EQ(obs::current(), &outer);

    // The null sink shadows both; leaving it restores the override.
    {
      obs::ScopedObserver none(nullptr);
      EXPECT_EQ(obs::current(), nullptr);
    }
    EXPECT_EQ(obs::current(), &outer);
  }
  EXPECT_EQ(obs::current(), &global);
  {
    // With no override below it, the null sink still masks the global,
    // and an observer installed inside it reports as usual.
    obs::ScopedObserver none(nullptr);
    EXPECT_EQ(obs::current(), nullptr);
    {
      obs::ScopedObserver b(inner);
      EXPECT_EQ(obs::current(), &inner);
    }
    EXPECT_EQ(obs::current(), nullptr);
  }
  EXPECT_EQ(obs::current(), &global);
  obs::set_global(nullptr);
  EXPECT_EQ(obs::current(), nullptr);
}

// ------------------------------------------------------------ power probe

TEST(PowerProbe, CounterTrackRebuildsTheExactTrace) {
  obs::Observer o;
  obs::PowerProbe probe(&o, "node_W");
  probe.step(Seconds{0.0}, Watts{10.0});
  probe.step(Seconds{1.0}, Watts{25.0});
  probe.step(Seconds{3.0}, Watts{10.0});

  const power::PowerTrace rebuilt = obs::counter_track(o.tracer, "node_W");
  const Seconds horizon{4.0};
  EXPECT_DOUBLE_EQ(rebuilt.energy(horizon).value(),
                   probe.energy(horizon).value());
  EXPECT_DOUBLE_EQ(probe.energy(horizon).value(),
                   10.0 * 1.0 + 25.0 * 2.0 + 10.0 * 1.0);

  // A different channel on the same tracer stays separate.
  obs::PowerProbe other(&o, "other_W");
  other.step(Seconds{0.0}, Watts{100.0});
  EXPECT_DOUBLE_EQ(
      obs::counter_track(o.tracer, "node_W").energy(horizon).value(),
      probe.energy(horizon).value());
}

TEST(PowerProbe, MeasuredSeriesIntegratesToMeasuredEnergy) {
  obs::PowerProbe probe(nullptr, "w");
  probe.step(Seconds{0.0}, Watts{50.0});
  probe.step(Seconds{2.5}, Watts{120.0});

  const power::MeterSpec spec;
  const Seconds horizon{5.0};
  const std::vector<power::PowerSample> series =
      probe.measured_series(spec, horizon, 99);
  ASSERT_FALSE(series.empty());
  double integral = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double end = i + 1 < series.size() ? series[i + 1].start.value()
                                             : horizon.value();
    integral += series[i].level.value() * (end - series[i].start.value());
  }
  EXPECT_NEAR(integral, probe.measured_energy(spec, horizon, 99).value(),
              1e-9);
}

// ------------------------------------------------- deterministic replay

TEST(Replay, SameSeedClusterRunsExportByteIdenticalTraces) {
#if !HCEP_OBS
  GTEST_SKIP() << "simulator instrumentation compiled out (HCEP_OBS=OFF)";
#endif
  workload::Workload w;
  w.name = "replay";
  w.units_per_job = 5e5;
  w.demand["A9"] = workload::NodeDemand{2e5, 1e4, Bytes{0.0}};
  w.demand["K10"] = workload::NodeDemand{2e5, 1e4, Bytes{0.0}};
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(3, 2), w);

  cluster::SimOptions opts;
  opts.utilization = 0.6;
  opts.min_jobs = 40;
  opts.seed = 4242;
  opts.use_testbed_overheads = false;  // synthetic workload, no table row

  const auto run = [&](obs::Observer& o) {
    obs::ScopedObserver scope(o);
    return cluster::simulate(m, opts);
  };
  obs::Observer a;
  obs::Observer b;
  const cluster::SimResult ra = run(a);
  const cluster::SimResult rb = run(b);

  EXPECT_EQ(ra.jobs_completed, rb.jobs_completed);
  EXPECT_GT(a.tracer.recorded(), 0u);
  EXPECT_EQ(a.tracer.jsonl(), b.tracer.jsonl());
  EXPECT_EQ(a.tracer.csv(), b.tracer.csv());
  EXPECT_EQ(a.tracer.chrome_trace_json(), b.tracer.chrome_trace_json());
}

}  // namespace
