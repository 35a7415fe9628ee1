#include "hcep/obs/metrics.hpp"

#include <algorithm>

#include "hcep/util/error.hpp"

namespace hcep::obs {

MetricId MetricsRegistry::find_or_register(std::string_view name, Kind kind,
                                           std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (m.name != name) continue;
    // Lookups are the common case (the pool makes two per observed
    // task), so the error text is built only on a mismatch.
    if (m.kind != kind) {
      throw PreconditionError("MetricsRegistry: metric '" +
                              std::string(name) +
                              "' re-registered with a different kind");
    }
    if (kind == Kind::kHistogram && m.bounds != bounds) {
      throw PreconditionError("MetricsRegistry: histogram '" +
                              std::string(name) +
                              "' re-registered with different bounds");
    }
    return static_cast<MetricId>(i);
  }

  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  if (kind == Kind::kHistogram) {
    require(!bounds.empty(), "MetricsRegistry: histogram without bounds");
    require(std::is_sorted(bounds.begin(), bounds.end()) &&
                std::adjacent_find(bounds.begin(), bounds.end()) ==
                    bounds.end(),
            "MetricsRegistry: histogram bounds must strictly ascend");
    m.buckets.assign(bounds.size() + 1, 0);
    m.bounds = std::move(bounds);
  }
  metrics_.push_back(std::move(m));
  return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return find_or_register(name, Kind::kCounter, {});
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return find_or_register(name, Kind::kGauge, {});
}

MetricId MetricsRegistry::histogram(std::string_view name,
                                    std::vector<double> bounds) {
  return find_or_register(name, Kind::kHistogram, std::move(bounds));
}

void MetricsRegistry::add(MetricId id, std::uint64_t n) {
  std::lock_guard lock(mutex_);
  metrics_[id].count += n;
}

void MetricsRegistry::set(MetricId id, double value) {
  std::lock_guard lock(mutex_);
  metrics_[id].value = value;
}

void MetricsRegistry::observe(MetricId id, double value) {
  std::lock_guard lock(mutex_);
  Metric& m = metrics_[id];
  const auto it = std::lower_bound(m.bounds.begin(), m.bounds.end(), value);
  ++m.buckets[static_cast<std::size_t>(it - m.bounds.begin())];
  ++m.count;
  m.value += value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  for (const Metric& m : metrics_) {
    switch (m.kind) {
      case Kind::kCounter:
        out.counters.emplace_back(m.name, m.count);
        break;
      case Kind::kGauge:
        out.gauges.emplace_back(m.name, m.value);
        break;
      case Kind::kHistogram:
        out.histograms.push_back(
            HistogramSnapshot{m.name, m.bounds, m.buckets, m.count, m.value});
        break;
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (Metric& m : metrics_) {
    m.count = 0;
    m.value = 0.0;
    std::fill(m.buckets.begin(), m.buckets.end(), 0);
  }
}

double HistogramSnapshot::quantile(double q) const {
  require(q >= 0.0 && q <= 1.0,
          "HistogramSnapshot::quantile: q outside [0, 1]");
  if (count == 0 || counts.empty()) return 0.0;
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank || i + 1 == counts.size()) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      if (i == 0) return bounds[0];  // no lower edge recorded
      const double lo = bounds[i - 1];
      const double hi = bounds[i];
      const double fraction =
          std::min(1.0, std::max(0.0, (rank - cumulative) / in_bucket));
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

JsonValue MetricsSnapshot::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue cs = JsonValue::object();
  for (const auto& [n, v] : counters)
    cs.set(n, JsonValue::number(static_cast<std::int64_t>(v)));
  root.set("counters", std::move(cs));
  JsonValue gs = JsonValue::object();
  for (const auto& [n, v] : gauges) gs.set(n, JsonValue::number(v));
  root.set("gauges", std::move(gs));
  JsonValue hs = JsonValue::object();
  for (const auto& h : histograms) {
    JsonValue one = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (double b : h.bounds) bounds.push(JsonValue::number(b));
    one.set("bounds", std::move(bounds));
    JsonValue counts = JsonValue::array();
    for (std::uint64_t c : h.counts)
      counts.push(JsonValue::number(static_cast<std::int64_t>(c)));
    one.set("counts", std::move(counts));
    // The +Inf remainder, spelled out so consumers need not know that
    // counts carries one more entry than bounds.
    one.set("overflow",
            JsonValue::number(static_cast<std::int64_t>(h.overflow())));
    one.set("count",
            JsonValue::number(static_cast<std::int64_t>(h.count)));
    one.set("sum", JsonValue::number(h.sum));
    hs.set(h.name, std::move(one));
  }
  root.set("histograms", std::move(hs));
  return root;
}

}  // namespace hcep::obs
