#include "hcep/obs/run_report.hpp"

#include "format_double.hpp"
#include "hcep/util/error.hpp"

namespace hcep::obs {

using detail::format_double;

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted names
/// ("sim.arrival_events") map dots — and anything else invalid — to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char ch = out[i];
    const bool alpha =
        (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch == '_' ||
        ch == ':';
    const bool digit = ch >= '0' && ch <= '9';
    if (!(alpha || (digit && i > 0))) out[i] = '_';
  }
  if (out.empty()) out = "_";
  return out;
}

JsonValue span_json(const SpanRollup& s) {
  JsonValue o = JsonValue::object();
  o.set("category", JsonValue::string(s.category));
  o.set("name", JsonValue::string(s.name));
  o.set("count", JsonValue::number(static_cast<std::int64_t>(s.count)));
  o.set("wall_s", JsonValue::number(s.wall_s));
  o.set("self_s", JsonValue::number(s.self_s));
  o.set("min_s", JsonValue::number(s.min_s));
  o.set("max_s", JsonValue::number(s.max_s));
  o.set("wait_s", JsonValue::number(s.wait_s));
  return o;
}

JsonValue count_json(const EventCount& c) {
  JsonValue o = JsonValue::object();
  o.set("category", JsonValue::string(c.category));
  o.set("name", JsonValue::string(c.name));
  o.set("phase", JsonValue::string(std::string(1, c.phase)));
  o.set("count", JsonValue::number(static_cast<std::int64_t>(c.count)));
  return o;
}

JsonValue counter_json(const CounterRollup& c) {
  JsonValue o = JsonValue::object();
  o.set("category", JsonValue::string(c.category));
  o.set("name", JsonValue::string(c.name));
  o.set("samples",
        JsonValue::number(static_cast<std::int64_t>(c.samples)));
  o.set("min", JsonValue::number(c.min));
  o.set("max", JsonValue::number(c.max));
  o.set("last", JsonValue::number(c.last));
  return o;
}

JsonValue queue_json(const QueueDecomposition& q) {
  JsonValue o = JsonValue::object();
  o.set("jobs", JsonValue::number(static_cast<std::int64_t>(q.jobs)));
  o.set("total_wait_s", JsonValue::number(q.total_wait_s));
  o.set("total_service_s", JsonValue::number(q.total_service_s));
  o.set("mean_wait_s", JsonValue::number(q.mean_wait_s));
  o.set("mean_service_s", JsonValue::number(q.mean_service_s));
  o.set("p95_wait_s", JsonValue::number(q.p95_wait_s));
  o.set("p95_service_s", JsonValue::number(q.p95_service_s));
  return o;
}

JsonValue window_json(const RollupWindow& w) {
  JsonValue o = JsonValue::object();
  o.set("t0_s", JsonValue::number(w.t0_s));
  o.set("t1_s", JsonValue::number(w.t1_s));
  o.set("samples",
        JsonValue::number(static_cast<std::int64_t>(w.samples)));
  o.set("min", JsonValue::number(w.min));
  o.set("mean", JsonValue::number(w.mean));
  o.set("max", JsonValue::number(w.max));
  o.set("p95", JsonValue::number(w.p95));
  o.set("energy_j", JsonValue::number(w.energy_j.value()));
  return o;
}

JsonValue rollup_json(const SeriesRollup& r) {
  JsonValue o = JsonValue::object();
  o.set("channel", JsonValue::string(r.channel));
  o.set("interval_s", JsonValue::number(r.interval_s));
  o.set("horizon_s", JsonValue::number(r.horizon_s));
  o.set("total_energy_j", JsonValue::number(r.total_energy_j.value()));
  JsonValue windows = JsonValue::array();
  for (const RollupWindow& w : r.windows) windows.push(window_json(w));
  o.set("windows", std::move(windows));
  return o;
}

}  // namespace

std::vector<std::string> RunReport::warnings() const {
  std::vector<std::string> out;
  if (profile.dropped > 0) {
    out.push_back("trace ring dropped " + std::to_string(profile.dropped) +
                  " events; profile and rollups are incomplete (raise the "
                  "tracer capacity or use the streaming timeline)");
  }
  if (flight.dropped() > 0) {
    out.push_back("flight recorder evicted " +
                  std::to_string(flight.dropped()) +
                  " decision records (each shard keeps its latest " +
                  std::to_string(stream::FlightRecorder::kDefaultCapacity) +
                  "; raise control.period)");
  }
  return out;
}

JsonValue RunReport::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("schema_version", JsonValue::number(std::int64_t{1}));
  root.set("title", JsonValue::string(title));
  // Warnings (and the streamed sections below) are additive: reports
  // from runs without drops or streaming keep their historic bytes.
  const std::vector<std::string> warns = warnings();
  if (!warns.empty()) {
    JsonValue arr = JsonValue::array();
    for (const std::string& w : warns) arr.push(JsonValue::string(w));
    root.set("warnings", std::move(arr));
  }

  JsonValue prof = JsonValue::object();
  prof.set("events",
           JsonValue::number(static_cast<std::int64_t>(profile.events)));
  prof.set("dropped",
           JsonValue::number(static_cast<std::int64_t>(profile.dropped)));
  prof.set("horizon_s", JsonValue::number(profile.horizon_s));
  prof.set("critical_path_s", JsonValue::number(profile.critical_path_s));
  prof.set("idle_s", JsonValue::number(profile.idle_s));
  prof.set("unmatched_begins",
           JsonValue::number(
               static_cast<std::int64_t>(profile.unmatched_begins)));
  prof.set("unmatched_ends",
           JsonValue::number(
               static_cast<std::int64_t>(profile.unmatched_ends)));
  JsonValue spans = JsonValue::array();
  for (const SpanRollup& s : profile.spans) spans.push(span_json(s));
  prof.set("spans", std::move(spans));
  JsonValue counts = JsonValue::array();
  for (const EventCount& c : profile.counts) counts.push(count_json(c));
  prof.set("counts", std::move(counts));
  JsonValue counters = JsonValue::array();
  for (const CounterRollup& c : profile.counters)
    counters.push(counter_json(c));
  prof.set("counters", std::move(counters));
  prof.set("queue", queue_json(profile.queue));
  root.set("profile", std::move(prof));

  JsonValue rollup_arr = JsonValue::array();
  for (const SeriesRollup& r : rollups) rollup_arr.push(rollup_json(r));
  root.set("rollups", std::move(rollup_arr));

  root.set("metrics", metrics.to_json());
  if (!timeline.empty()) root.set("stream", timeline.to_json());
  if (!flight.empty() || flight.dropped() > 0) {
    root.set("flight", flight.to_json());
  }
  return root;
}

RunReport make_run_report(const Trace& trace, std::string title,
                          double interval_s,
                          const MetricsSnapshot* metrics) {
  require(interval_s > 0.0, "make_run_report: interval must be positive");
  RunReport report;
  report.title = std::move(title);
  report.profile = profile_trace(trace);
  for (const std::string& channel : counter_channels(trace)) {
    report.rollups.push_back(rollup_counter(trace, channel, interval_s));
  }
  if (metrics != nullptr) {
    report.metrics = *metrics;
  } else {
    // File-loaded traces have no live registry; the event census stands
    // in so Prometheus exposition still reflects the run.
    for (const EventCount& c : report.profile.counts) {
      report.metrics.counters.emplace_back(
          "trace.events." + c.category + "." + c.name + "." + c.phase,
          c.count);
    }
  }
  // Ring drops are silent data loss: surface them in the snapshot (and
  // thus the Prometheus exposition) whenever any occurred.
  if (report.profile.dropped > 0) {
    report.metrics.counters.emplace_back("trace.dropped_events",
                                         report.profile.dropped);
  }
  return report;
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + format_double(value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string prom = prometheus_name(h.name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.counts.size() ? h.counts[i] : 0;
      out += prom + "_bucket{le=\"" + format_double(h.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum " + format_double(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace hcep::obs
