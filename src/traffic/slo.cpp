#include "hcep/traffic/slo.hpp"

#include <algorithm>
#include <utility>

namespace hcep::traffic {

LatencySummary LatencySummary::from_samples(
    std::span<const double> samples_s) {
  LatencySketch sketch;
  for (const double s : samples_s) sketch.add(s);
  return sketch.summary();
}

void LatencySketch::merge(const LatencySketch& other) {
  sketch_.merge(other.sketch_);
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

LatencySummary LatencySketch::summary() const {
  LatencySummary out;
  out.count = count();
  out.epsilon = sketch_.epsilon();
  if (out.count == 0) return out;
  out.mean = Seconds{sum_ / static_cast<double>(out.count)};
  // A bucket's representative may lie above every value it holds.
  const auto at = [&](double q) {
    return Seconds{std::min(sketch_.quantile(q), max_)};
  };
  out.p50 = at(0.50);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  out.max = Seconds{max_};
  return out;
}

JsonValue LatencySummary::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("count", JsonValue::number(static_cast<std::int64_t>(count)));
  o.set("mean_s", JsonValue::number(mean.value()));
  o.set("p50_s", JsonValue::number(p50.value()));
  o.set("p95_s", JsonValue::number(p95.value()));
  o.set("p99_s", JsonValue::number(p99.value()));
  o.set("max_s", JsonValue::number(max.value()));
  o.set("epsilon", JsonValue::number(epsilon));
  return o;
}

double ClassStats::violation_fraction() const {
  if (completed == 0) return 0.0;
  return static_cast<double>(slo_violations) /
         static_cast<double>(completed);
}

bool ClassStats::slo_met() const {
  if (!slo.enabled() || completed == 0) return true;
  // The nearest-rank target quantile sits at or below the latency
  // objective exactly when the violating fraction fits into
  // 1 - quantile, so this agrees with the summary's percentile within
  // its bound.
  return violation_fraction() <= (1.0 - slo.quantile) + 1e-12;
}

JsonValue ClassStats::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("offered", JsonValue::number(static_cast<std::int64_t>(offered)));
  o.set("admitted", JsonValue::number(static_cast<std::int64_t>(admitted)));
  o.set("shed", JsonValue::number(static_cast<std::int64_t>(shed)));
  o.set("retries", JsonValue::number(static_cast<std::int64_t>(retries)));
  o.set("completed",
        JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("slo_violations",
        JsonValue::number(static_cast<std::int64_t>(slo_violations)));
  if (slo.enabled()) {
    JsonValue s = JsonValue::object();
    s.set("latency_s", JsonValue::number(slo.latency.value()));
    s.set("quantile", JsonValue::number(slo.quantile));
    s.set("met", JsonValue::boolean(slo_met()));
    o.set("slo", std::move(s));
  }
  o.set("wait", wait.to_json());
  o.set("service", service.to_json());
  o.set("sojourn", sojourn.to_json());
  o.set("energy_per_request_j",
        JsonValue::number(energy_per_request.value()));
  return o;
}

}  // namespace hcep::traffic
