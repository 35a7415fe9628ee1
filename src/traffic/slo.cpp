#include "hcep/traffic/slo.hpp"

#include <algorithm>

#include "hcep/util/stats.hpp"

namespace hcep::traffic {

LatencySummary LatencySummary::from_samples(std::vector<double>& samples_s) {
  LatencySummary out;
  out.count = samples_s.size();
  if (samples_s.empty()) return out;
  if (!std::is_sorted(samples_s.begin(), samples_s.end()))
    std::sort(samples_s.begin(), samples_s.end());
  double sum = 0.0;
  for (const double s : samples_s) sum += s;
  out.mean = Seconds{sum / static_cast<double>(samples_s.size())};
  out.p50 = Seconds{percentile_sorted(samples_s, 50.0)};
  out.p95 = Seconds{percentile_sorted(samples_s, 95.0)};
  out.p99 = Seconds{percentile_sorted(samples_s, 99.0)};
  out.max = Seconds{samples_s.back()};
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
  return o;
}

double ClassStats::violation_fraction() const {
  if (completed == 0) return 0.0;
  return static_cast<double>(slo_violations) /
         static_cast<double>(completed);
}

bool ClassStats::slo_met() const {
  if (!slo.enabled() || completed == 0) return true;
  // The target quantile must sit at or below the latency objective:
  // equivalently, the violating fraction must fit into 1 - quantile.
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
