// Observability subsystem: metrics registry (concurrent counters,
// histogram bucketing), event tracer (ring overflow, exporters),
// observer sinks, power probe fidelity, deterministic replay of the
// cluster simulator's exported traces, and the inertness of the
// instrumentation: installing an observer changes no result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "hcep/cluster/simulator.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/control/controllers.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/obs/metrics.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/obs/trace.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

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

// ------------------------------------------------ instrumentation inertness

/// Runs `run` under the null sink, then under a fresh observer; returns
/// both results and the observer (still holding what it recorded).
template <typename Run>
auto run_unobserved_then_observed(const Run& run) {
  auto plain = [&] {
    obs::ScopedObserver none(nullptr);
    return run();
  }();
  auto observer = std::make_unique<obs::Observer>();
  obs::ScopedObserver scope(*observer);
  auto observed = run();
  return std::tuple{std::move(plain), std::move(observed), std::move(observer)};
}

void expect_same_traffic(const traffic::TrafficResult& a,
                         const traffic::TrafficResult& b) {
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.control.to_json().dump(), b.control.to_json().dump());
  EXPECT_EQ(a.timeline.to_json().dump(), b.timeline.to_json().dump());
  EXPECT_TRUE(std::equal(
      a.requests.begin(), a.requests.end(), b.requests.begin(),
      b.requests.end(), [](const auto& x, const auto& y) {
        return x.index == y.index && x.cls == y.cls && x.failed == y.failed &&
               x.sojourn.value() == y.sojourn.value();
      }));
  const auto& sa = a.control.trace.steps();
  const auto& sb = b.control.trace.steps();
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end(),
                         [](const auto& x, const auto& y) {
                           return x.start.value() == y.start.value() &&
                                  x.level.value() == y.level.value();
                         }));
}

TEST(Observer, InstrumentationLeavesResultsUnchanged) {
  // The null sink is the only way to switch observability off, so an
  // installed observer must be purely a reader: every result below is
  // compared byte for byte with and without one.
  const auto catalog = workload::paper_workloads();
  const auto find = [&](const std::string& name) -> const workload::Workload& {
    for (const auto& w : catalog)
      if (w.name == name) return w;
    throw std::runtime_error("missing workload " + name);
  };
  const auto spec = model::make_a9_k10_cluster(4, 2);
  const std::vector<traffic::TrafficClass> classes{
      {find("EP"), 2.0, traffic::SloTarget{}},
      {find("memcached"), 1.0, traffic::SloTarget{}}};
  const double capacity = traffic::cluster_capacity_per_s(spec, classes);

  struct Case {
    const char* label;
    traffic::TrafficOptions options;
    std::unique_ptr<traffic::ArrivalProcess> arrivals;
  };
  std::vector<Case> cases;
  {
    // One shard: token bucket, queue shedding, retries, request records.
    traffic::TrafficOptions o;
    o.requests = 3000;
    o.seed = 11;
    o.admission.bucket_rate_per_s = 0.8 * capacity;
    o.admission.bucket_burst = 20.0;
    o.admission.max_queue_depth = 6;
    o.retry.max_attempts = 3;
    o.retry.base_backoff = Seconds{0.05};
    o.record_requests = true;
    cases.push_back({"admission", std::move(o),
                     traffic::make_poisson(1.1 * capacity)});
  }
  {
    // Three shards on the pool.
    traffic::TrafficOptions o;
    o.requests = 3000;
    o.seed = 12;
    o.shards = 3;
    cases.push_back({"sharded", std::move(o),
                     traffic::make_poisson(0.7 * capacity)});
  }
  {
    // Power gating on two shards, streamed, with the exact power trace.
    const double rate = 0.4 * capacity;
    traffic::TrafficOptions o;
    o.requests = 4000;
    o.seed = 13;
    o.shards = 2;
    o.control.controller = control::make_power_gate({});
    o.control.period = Seconds{50.0 / rate};
    o.control.wake_delay = Seconds{20.0 / rate};
    o.control.record_power_trace = true;
    o.stream.window = Seconds{100.0 / rate};
    cases.push_back({"power_gate", std::move(o),
                     traffic::make_diurnal(rate, 0.6,
                                           Seconds{1000.0 / rate})});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const auto [plain, observed, observer] = run_unobserved_then_observed(
        [&] {
          return traffic::simulate_traffic(spec, classes, *c.arrivals,
                                           c.options);
        });
    expect_same_traffic(plain, observed);
    // The observed run did report: the instrumentation ran.
    EXPECT_EQ(observer->metrics.snapshot().counter("traffic.offered"),
              observed.offered);
  }

  {
    SCOPED_TRACE("cluster::simulate");
    const model::TimeEnergyModel m(spec, find("EP"));
    cluster::SimOptions opts;
    opts.utilization = 0.6;
    opts.min_jobs = 200;
    opts.seed = 4243;
    const auto [a, b, observer] = run_unobserved_then_observed(
        [&] { return cluster::simulate(m, opts); });
    EXPECT_GT(observer->tracer.recorded(), 0u);
    EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
    EXPECT_EQ(a.jobs_completed, b.jobs_completed);
    EXPECT_EQ(a.units_completed, b.units_completed);
    EXPECT_EQ(a.window.value(), b.window.value());
    EXPECT_EQ(a.energy_exact.value(), b.energy_exact.value());
    EXPECT_EQ(a.energy_measured.value(), b.energy_measured.value());
    EXPECT_EQ(a.average_power.value(), b.average_power.value());
    EXPECT_EQ(a.mean_service.value(), b.mean_service.value());
    EXPECT_EQ(a.mean_response.value(), b.mean_response.value());
    EXPECT_EQ(a.p95_response.value(), b.p95_response.value());
    EXPECT_EQ(a.measured_utilization, b.measured_utilization);
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
      EXPECT_EQ(a.counters[i].node_name, b.counters[i].node_name);
      EXPECT_EQ(a.counters[i].work_cycles, b.counters[i].work_cycles);
      EXPECT_EQ(a.counters[i].stall_cycles, b.counters[i].stall_cycles);
      EXPECT_EQ(a.counters[i].io_bytes, b.counters[i].io_bytes);
      EXPECT_EQ(a.counters[i].jobs_served, b.counters[i].jobs_served);
    }
  }

  {
    SCOPED_TRACE("config sweep");
    const config::ConfigSpace space = config::make_a9_k10_space(6, 3);
    const auto [a, b, observer] = run_unobserved_then_observed([&] {
      const config::EvaluationSet evals =
          config::evaluate_space(space, find("EP"));
      return std::pair{evals, config::pareto_front(evals)};
    });
    EXPECT_EQ(observer->metrics.snapshot().counter("sweep.configs"),
              space.size());
    EXPECT_EQ(a.first.times(), b.first.times());
    EXPECT_EQ(a.first.energies(), b.first.energies());
    EXPECT_EQ(a.first.idle_powers(), b.first.idle_powers());
    EXPECT_EQ(a.first.busy_powers(), b.first.busy_powers());
    EXPECT_TRUE(std::equal(
        a.second.begin(), a.second.end(), b.second.begin(), b.second.end(),
        [](const config::Evaluation& x, const config::Evaluation& y) {
          return x.index == y.index && x.config.label() == y.config.label() &&
                 x.time.value() == y.time.value() &&
                 x.energy.value() == y.energy.value() &&
                 x.idle_power.value() == y.idle_power.value() &&
                 x.busy_power.value() == y.busy_power.value();
        }));
  }
}

}  // namespace
