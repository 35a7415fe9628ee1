#include "hcep/traffic/slo.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "hcep/util/stats.hpp"

namespace hcep::traffic {

LatencySummary LatencySummary::from_samples(std::vector<double>& samples_s) {
  if (!std::is_sorted(samples_s.begin(), samples_s.end()))
    std::sort(samples_s.begin(), samples_s.end());
  const std::span<const double> run = samples_s;
  return from_sorted_runs({&run, 1});
}

LatencySummary LatencySummary::from_sorted_runs(
    std::span<const std::span<const double>> runs) {
  LatencySummary out;
  for (const std::span<const double> run : runs) out.count += run.size();
  if (out.count == 0) return out;

  // The merged ranks p50/p95/p99 read, ascending, each with the entry
  // of `at` that keeps the value found there.
  constexpr double kPercent[3] = {50.0, 95.0, 99.0};
  PercentileRank rank[3];
  std::array<std::pair<std::size_t, std::size_t>, 6> want;
  for (std::size_t p = 0; p < 3; ++p) {
    rank[p] = percentile_rank(out.count, kPercent[p]);
    want[2 * p] = {rank[p].lo, 2 * p};
    want[2 * p + 1] = {rank[p].hi, 2 * p + 1};
  }
  std::sort(want.begin(), want.end());
  double at[6] = {};
  std::size_t next = 0;  // first entry of `want` not yet reached
  std::size_t pos = 0;   // merged rank of the next value
  double sum = 0.0;

  // The non-empty runs: a cursor, an end and the value at the cursor
  // each, on the stack for up to kInlineRuns runs.
  constexpr std::size_t kInlineRuns = 64;
  struct Head {
    const double* at;
    const double* end;
    double value;
  };
  std::array<Head, kInlineRuns> inline_heads;
  std::vector<Head> spilled;
  std::span<Head> heads = inline_heads;
  if (runs.size() > kInlineRuns) {
    spilled.resize(runs.size());
    heads = spilled;
  }
  std::size_t live = 0;
  for (const std::span<const double> run : runs)
    if (!run.empty())
      heads[live++] = Head{run.data(), run.data() + run.size(), run.front()};
  while (live > 1) {
    // The run with the smallest head, picked without branches: runs
    // interleave value by value, so a branch on each comparison would
    // mispredict.
    std::size_t m = 0;
    double v = heads[0].value;
    for (std::size_t i = 1; i < live; ++i) {
      const bool less = heads[i].value < v;
      m = less ? i : m;
      v = less ? heads[i].value : v;
    }
    // That head and the values equal to it in its run come next: ties
    // are where a run stays ahead (zero waits, a two-valued service).
    Head& h = heads[m];
    const double* p = h.at;
    do {
      sum += v;
      ++p;
    } while (p != h.end && *p == v);
    pos += static_cast<std::size_t>(p - h.at);
    for (; next < 6 && want[next].first < pos; ++next)
      at[want[next].second] = v;
    h.at = p;
    if (p == h.end)
      h = heads[--live];
    else
      h.value = *p;
  }
  // The last run left, in one pass.
  const Head& tail = heads[0];
  for (const double* p = tail.at; p != tail.end; ++p) sum += *p;
  for (; next < 6; ++next)
    at[want[next].second] = tail.at[want[next].first - pos];

  out.mean = Seconds{sum / static_cast<double>(out.count)};
  Seconds* const fields[3] = {&out.p50, &out.p95, &out.p99};
  for (std::size_t p = 0; p < 3; ++p)
    *fields[p] = Seconds{out.count == 1 ? at[2 * p]
                                        : rank[p].interpolate(
                                              at[2 * p], at[2 * p + 1])};
  out.max = Seconds{*(tail.end - 1)};
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
