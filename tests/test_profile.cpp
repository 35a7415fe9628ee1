// Telemetry analysis layer: trace profiler, time-series rollups and the
// run-report pipeline (hcep::obs::profile / run_report).
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hcep/cluster/simulator.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/obs/profile.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/characterize.hpp"

namespace {

using namespace hcep;

// --------------------------------------------------------- trace decode

obs::Trace synthetic_trace() {
  // Hand-built timeline:
  //   t=0   B outer          t=4  E inner
  //   t=1   C power=100      t=6  E outer
  //   t=2   B inner (wait)   t=7  C power=50
  //   t=3   C power=300
  obs::Trace t;
  const obs::StringId cat = t.intern("cat");
  const obs::StringId outer = t.intern("outer");
  const obs::StringId inner = t.intern("inner");
  const obs::StringId wait = t.intern("wait_s");
  const obs::StringId power = t.intern("power_W");
  const auto no_arg = obs::EventTracer::kNoArg;
  t.events = {
      {0.0, obs::EventType::kBegin, cat, outer, no_arg, 0.0},
      {1.0, obs::EventType::kCounter, cat, power, no_arg, 100.0},
      {2.0, obs::EventType::kBegin, cat, inner, wait, 0.5},
      {3.0, obs::EventType::kCounter, cat, power, no_arg, 300.0},
      {4.0, obs::EventType::kEnd, cat, inner, no_arg, 0.0},
      {6.0, obs::EventType::kEnd, cat, outer, no_arg, 0.0},
      {7.0, obs::EventType::kCounter, cat, power, no_arg, 50.0},
  };
  return t;
}

TEST(TraceDecode, FromLiveTracerRemapsStringIds) {
  obs::EventTracer tracer(8);
  // Intern a string the retained events never reference, so the decoded
  // table must be remapped, not copied.
  tracer.intern("unreferenced");
  const obs::StringId cat = tracer.intern("cluster");
  const obs::StringId name = tracer.intern("job");
  tracer.begin(1.0, cat, name);
  tracer.end(2.0, cat, name);

  const obs::Trace t = obs::Trace::from(tracer);
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.string_at(t.events[0].category), "cluster");
  EXPECT_EQ(t.string_at(t.events[0].name), "job");
  EXPECT_EQ(t.events[0].arg_key, obs::EventTracer::kNoArg);
}

TEST(TraceDecode, JsonlRoundTripPreservesEventsExactly) {
  obs::EventTracer tracer(64);
  const obs::StringId cat = tracer.intern("c\"at\\");
  const obs::StringId name = tracer.intern("na\nme");
  const obs::StringId key = tracer.intern("wait_s");
  tracer.begin(0.25, cat, name, key, 1.0 / 3.0);
  // 0.30000000000000004 parses back exactly only at 17 digits.
  tracer.counter(0.1 + 0.2, cat, name, 0.1 + 0.2);
  tracer.counter(0.5, cat, name, 123.456789012345);
  tracer.instant(0.75, cat, name);
  tracer.end(1.0, cat, name);

  const obs::Trace t = obs::read_trace_jsonl(tracer.jsonl());
  ASSERT_EQ(t.events.size(), 5u);
  EXPECT_EQ(t.string_at(t.events[0].category), "c\"at\\");
  EXPECT_EQ(t.string_at(t.events[0].name), "na\nme");
  EXPECT_EQ(t.string_at(t.events[0].arg_key), "wait_s");
  EXPECT_EQ(t.events[0].arg_value, 1.0 / 3.0);  // byte-exact round trip
  EXPECT_EQ(t.events[1].ts, 0.1 + 0.2);
  EXPECT_EQ(t.events[1].arg_value, 0.1 + 0.2);
  EXPECT_EQ(t.events[2].type, obs::EventType::kCounter);
  EXPECT_EQ(t.events[2].arg_key, obs::EventTracer::kNoArg);
  EXPECT_EQ(t.events[2].arg_value, 123.456789012345);
  EXPECT_EQ(t.events[3].type, obs::EventType::kInstant);
  EXPECT_EQ(t.events[4].type, obs::EventType::kEnd);
}

TEST(TraceDecode, MalformedJsonlNamesTheLine) {
  try {
    (void)obs::read_trace_jsonl(
        "{\"ts\":0,\"ph\":\"B\",\"cat\":\"c\",\"name\":\"n\"}\n"
        "{not json}\n");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      (void)obs::read_trace_jsonl(
          "{\"ts\":0,\"ph\":\"X\",\"cat\":\"c\",\"name\":\"n\"}\n"),
      PreconditionError);
}

// ------------------------------------------------------------- profiler

TEST(Profiler, RollupsSelfTimeWallTimeAndCriticalPath) {
  const obs::TraceProfile p = obs::profile_trace(synthetic_trace());
  EXPECT_EQ(p.events, 7u);
  EXPECT_DOUBLE_EQ(p.horizon_s, 7.0);
  // Spans open during [0, 6): critical path 6, idle 1.
  EXPECT_DOUBLE_EQ(p.critical_path_s, 6.0);
  EXPECT_DOUBLE_EQ(p.idle_s, 1.0);
  EXPECT_EQ(p.unmatched_begins, 0u);
  EXPECT_EQ(p.unmatched_ends, 0u);

  ASSERT_EQ(p.spans.size(), 2u);  // sorted: inner before outer
  const obs::SpanRollup& inner = p.spans[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.count, 1u);
  EXPECT_DOUBLE_EQ(inner.wall_s, 2.0);
  EXPECT_DOUBLE_EQ(inner.self_s, 2.0);
  EXPECT_DOUBLE_EQ(inner.wait_s, 0.5);
  const obs::SpanRollup& outer = p.spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_DOUBLE_EQ(outer.wall_s, 6.0);
  EXPECT_DOUBLE_EQ(outer.self_s, 4.0);  // 6 minus inner's 2

  // Queue decomposition covers only the wait-tagged span.
  EXPECT_EQ(p.queue.jobs, 1u);
  EXPECT_DOUBLE_EQ(p.queue.total_wait_s, 0.5);
  EXPECT_DOUBLE_EQ(p.queue.total_service_s, 2.0);
  EXPECT_DOUBLE_EQ(p.queue.p95_wait_s, 0.5);

  // Census and counter rollups.
  EXPECT_EQ(p.count_of("cat", "power_W", 'C'), 3u);
  EXPECT_EQ(p.count_of("cat", "outer", 'B'), 1u);
  EXPECT_EQ(p.count_of("cat", "missing", 'B'), 0u);
  ASSERT_EQ(p.counters.size(), 1u);
  EXPECT_EQ(p.counters[0].samples, 3u);
  EXPECT_DOUBLE_EQ(p.counters[0].min, 50.0);
  EXPECT_DOUBLE_EQ(p.counters[0].max, 300.0);
  EXPECT_DOUBLE_EQ(p.counters[0].last, 50.0);
}

TEST(Profiler, CountsUnmatchedBeginsAndEndsFromRingTruncation) {
  obs::Trace t;
  const obs::StringId cat = t.intern("c");
  const obs::StringId a = t.intern("a");
  const obs::StringId b = t.intern("b");
  const auto no_arg = obs::EventTracer::kNoArg;
  // End without begin (truncated head), begin without end (still open).
  t.events = {
      {1.0, obs::EventType::kEnd, cat, a, no_arg, 0.0},
      {2.0, obs::EventType::kBegin, cat, b, no_arg, 0.0},
  };
  const obs::TraceProfile p = obs::profile_trace(t);
  EXPECT_EQ(p.unmatched_ends, 1u);
  EXPECT_EQ(p.unmatched_begins, 1u);
  EXPECT_TRUE(p.spans.empty());
}

TEST(Profiler, InterleavedSpansCloseInnermostMatchingKey) {
  obs::Trace t;
  const obs::StringId cat = t.intern("c");
  const obs::StringId a = t.intern("a");
  const obs::StringId b = t.intern("b");
  const auto no_arg = obs::EventTracer::kNoArg;
  // a opens, b opens, a closes (non-LIFO), b closes: both well-formed.
  t.events = {
      {0.0, obs::EventType::kBegin, cat, a, no_arg, 0.0},
      {1.0, obs::EventType::kBegin, cat, b, no_arg, 0.0},
      {2.0, obs::EventType::kEnd, cat, a, no_arg, 0.0},
      {3.0, obs::EventType::kEnd, cat, b, no_arg, 0.0},
  };
  const obs::TraceProfile p = obs::profile_trace(t);
  EXPECT_EQ(p.unmatched_begins + p.unmatched_ends, 0u);
  ASSERT_EQ(p.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(p.spans[0].wall_s, 2.0);  // a
  EXPECT_DOUBLE_EQ(p.spans[1].wall_s, 2.0);  // b
  EXPECT_DOUBLE_EQ(p.critical_path_s, 3.0);
}

TEST(Profiler, FoldedStacksExportNestedSelfTime) {
  const std::string folded = obs::folded_stacks(synthetic_trace());
  // outer alone for 4 s (1e6-us samples are exact), outer;inner for 2 s.
  EXPECT_NE(folded.find("cat:outer 4000000\n"), std::string::npos)
      << folded;
  EXPECT_NE(folded.find("cat:outer;cat:inner 2000000\n"),
            std::string::npos)
      << folded;
}

// -------------------------------------------------------------- rollups

TEST(Rollup, WindowEnergySumsToExactTraceEnergy) {
  const obs::Trace t = synthetic_trace();
  const obs::SeriesRollup r = obs::rollup_counter(t, "power_W", 2.0, 7.0);
  ASSERT_EQ(r.windows.size(), 4u);
  // Track: 0 W on [0,1), 100 W on [1,3), 300 W on [3,7).
  const double exact = 100.0 * 2.0 + 300.0 * 4.0;
  EXPECT_NEAR(r.total_energy_j.value(), exact, std::abs(exact) * 1e-12);
  EXPECT_DOUBLE_EQ(r.windows[0].energy_j.value(), 100.0);   // [0,2): 1 s of 100
  EXPECT_DOUBLE_EQ(r.windows[1].energy_j.value(), 400.0);   // [2,4): 100 + 300
  EXPECT_DOUBLE_EQ(r.windows[2].energy_j.value(), 600.0);   // [4,6): 2 s of 300
  EXPECT_DOUBLE_EQ(r.windows[3].energy_j.value(), 300.0);   // [6,7): partial
  EXPECT_DOUBLE_EQ(r.windows[3].t1_s, 7.0);

  // Window stats: [2,4) holds 1 s at 100 and 1 s at 300.
  EXPECT_DOUBLE_EQ(r.windows[1].min, 100.0);
  EXPECT_DOUBLE_EQ(r.windows[1].max, 300.0);
  EXPECT_DOUBLE_EQ(r.windows[1].mean, 200.0);
  // p95 lands 90% of the way through the 300 W occupancy bucket; the
  // histogram estimator interpolates linearly: 100 + 0.9 * (300 - 100).
  EXPECT_NEAR(r.windows[1].p95, 280.0, 1e-9);
  // Constant window: p95 equals the level exactly.
  EXPECT_DOUBLE_EQ(r.windows[2].p95, 300.0);
  EXPECT_EQ(r.windows[1].samples, 1u);  // the t=3 counter event

  EXPECT_THROW((void)obs::rollup_counter(t, "power_W", 0.0),
               PreconditionError);
  EXPECT_THROW((void)obs::rollup_counter(t, "no_such_channel", 1.0),
               PreconditionError);
}

TEST(Rollup, ChannelsAreDiscoveredAndSorted) {
  obs::Trace t;
  const obs::StringId cat = t.intern("c");
  const obs::StringId zeta = t.intern("zeta_W");
  const obs::StringId alpha = t.intern("alpha_W");
  const auto no_arg = obs::EventTracer::kNoArg;
  t.events = {
      {0.0, obs::EventType::kCounter, cat, zeta, no_arg, 1.0},
      {1.0, obs::EventType::kCounter, cat, alpha, no_arg, 2.0},
  };
  const std::vector<std::string> channels = obs::counter_channels(t);
  ASSERT_EQ(channels.size(), 2u);
  EXPECT_EQ(channels[0], "alpha_W");
  EXPECT_EQ(channels[1], "zeta_W");
}

// ------------------------------------------- simulator round trip + report

workload::Workload synthetic_workload() {
  workload::Workload w;
  w.name = "synthetic";
  w.units_per_job = 5e5;
  w.demand["A9"] = workload::NodeDemand{5e4, 1e4, Bytes{0.0}};
  w.demand["K10"] = workload::NodeDemand{5e4, 1e4, Bytes{0.0}};
  return w;
}

cluster::SimResult traced_run(obs::Observer& observer) {
  // The model keeps a reference to the workload; it must outlive it.
  static const workload::Workload w = synthetic_workload();
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(3, 2), w);
  cluster::SimOptions options;
  options.utilization = 0.55;
  options.batch_size = 2;
  options.min_jobs = 40;
  options.seed = 77;
  options.use_testbed_overheads = false;
  obs::ScopedObserver scope(observer);
  return cluster::simulate(m, options);
}

TEST(RoundTrip, ExportedTraceProfileMatchesLiveCounters) {
  obs::Observer observer;
  const cluster::SimResult r = traced_run(observer);
  ASSERT_EQ(observer.tracer.dropped(), 0u);

  // Export -> re-read through the JSONL reader -> profile; the event
  // census must equal the live per-category metric counters.
  const obs::Trace t = obs::read_trace_jsonl(observer.tracer.jsonl());
  const obs::TraceProfile p = obs::profile_trace(t);
  const obs::MetricsSnapshot snap = observer.metrics.snapshot();

  EXPECT_EQ(p.count_of("cluster", "arrival", 'i'),
            snap.counter("sim.arrival_events"));
  EXPECT_EQ(p.count_of("cluster", "job", 'E'),
            snap.counter("sim.completion_events"));
  EXPECT_EQ(p.count_of("cluster", "job", 'E'), r.jobs_completed);
  // cluster_W counter events: the t=0 initial level plus one per step.
  std::uint64_t power_samples = 0;
  for (const obs::EventCount& c : p.counts)
    if (c.name == "cluster_W" && c.phase == 'C') power_samples += c.count;
  EXPECT_EQ(power_samples, 1u + snap.counter("sim.power_events"));

  // Node spans carry the group name and balance per group.
  EXPECT_EQ(p.count_of("node", "A9", 'B'), p.count_of("node", "A9", 'E'));
  EXPECT_GT(p.count_of("node", "A9", 'B'), 0u);
  EXPECT_EQ(p.count_of("node", "K10", 'B'),
            p.count_of("node", "K10", 'E'));

  // Queue decomposition covers every completed job.
  EXPECT_EQ(p.queue.jobs, r.jobs_completed);
  EXPECT_NEAR(p.queue.mean_service_s, r.mean_service.value(), 1e-9);
}

TEST(RoundTrip, RollupEnergyMatchesPowerTraceExactly) {
  obs::Observer observer;
  const cluster::SimResult r = traced_run(observer);
  const obs::Trace t = obs::Trace::from(observer.tracer);

  // The attribution invariant: windowed energies over cluster_W sum to
  // the exact PowerTrace integral within 1e-9 relative — for several
  // window widths, including ones that straddle step edges.
  const double window = r.window.value();
  const double exact = r.energy_exact.value();
  for (const double interval :
       {window / 3.0, window / 7.0, window / 16.0, window / 97.0}) {
    const obs::SeriesRollup rollup =
        obs::rollup_counter(t, "cluster_W", interval, window);
    EXPECT_NEAR(rollup.total_energy_j.value(), exact, std::abs(exact) * 1e-9)
        << "interval " << interval;
    double sum = 0.0;
    for (const obs::RollupWindow& w : rollup.windows) sum += w.energy_j.value();
    EXPECT_DOUBLE_EQ(sum, rollup.total_energy_j.value());
    for (const obs::RollupWindow& w : rollup.windows) {
      EXPECT_LE(w.min, w.mean + 1e-12);
      EXPECT_LE(w.mean, w.max + 1e-12);
      EXPECT_LE(w.p95, w.max + 1e-12);
      EXPECT_GE(w.p95, w.min - 1e-12);
    }
  }
}

TEST(RunReport, SameSeedRunsProduceByteIdenticalJson) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    obs::Observer observer;
    const cluster::SimResult r = traced_run(observer);
    const obs::Trace t = obs::Trace::from(observer.tracer);
    const obs::MetricsSnapshot snap = observer.metrics.snapshot();
    *out = obs::make_run_report(t, "determinism", r.window.value() / 8.0,
                                &snap)
               .json();
  }
  EXPECT_EQ(first, second);
  // And the bytes are valid JSON that round-trips through the parser.
  EXPECT_EQ(JsonValue::parse(first).dump(), first);
}

TEST(RunReport, SynthesizesCensusCountersWithoutLiveMetrics) {
  const obs::RunReport report =
      obs::make_run_report(synthetic_trace(), "file", 2.0);
  EXPECT_EQ(report.title, "file");
  ASSERT_EQ(report.rollups.size(), 1u);
  EXPECT_EQ(report.rollups[0].channel, "power_W");
  // File-loaded traces get census counters for Prometheus exposition.
  std::uint64_t census = 0;
  for (const auto& [name, value] : report.metrics.counters)
    if (name == "trace.events.cat.power_W.C") census = value;
  EXPECT_EQ(census, 3u);
}

// ----------------------------------------------------------- prometheus

TEST(Prometheus, TextExpositionIsLineParseable) {
  obs::MetricsSnapshot snap;
  snap.counters = {{"sim.jobs", 42}, {"des.events", 7}};
  snap.gauges = {{"cluster.load", 0.75}};
  obs::HistogramSnapshot h;
  h.name = "wait seconds";  // space must be sanitized
  h.bounds = {0.1, 1.0};
  h.counts = {3, 2, 1};  // last is the overflow bucket
  h.count = 6;
  h.sum = 4.5;
  snap.histograms = {h};

  const std::string text = obs::prometheus_text(snap);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Every line is either "# TYPE <name> <kind>" or "<name>[{...}] <num>".
  std::size_t lines = 0, start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    ++lines;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string kind = rest.substr(space + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (const char ch : name.substr(0, name.find('{'))) {
      const bool valid = (ch >= 'a' && ch <= 'z') ||
                         (ch >= 'A' && ch <= 'Z') ||
                         (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
      EXPECT_TRUE(valid) << "invalid char '" << ch << "' in " << line;
    }
    EXPECT_NO_THROW({ (void)std::stod(line.substr(space + 1)); }) << line;
  }
  EXPECT_GT(lines, 8u);

  // Histogram exposition: cumulative buckets, +Inf equals _count.
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"0.1\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"1\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"+Inf\"} 6"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_seconds_sum 4.5"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_count 6"), std::string::npos);
}

}  // namespace
