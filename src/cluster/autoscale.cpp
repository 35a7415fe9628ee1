#include "hcep/cluster/autoscale.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "hcep/obs/obs.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/stats.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::cluster {

namespace {

struct NodeKind {
  double rate;     ///< units/s serving
  double idle_w;   ///< W while up (booting or serving-idle)
  double dyn_w;    ///< extra W while executing work
};

/// Cluster state over a time segment.
struct Segment {
  double start = 0.0;
  double rate = 0.0;    ///< serving capacity
  double base_w = 0.0;  ///< power with no job running (sleep+idle mix)
  double dyn_w = 0.0;   ///< extra power when a job is executing
  double active = 0.0;  ///< serving node count
};

}  // namespace

AutoscaleResult autoscale_replay(const model::TimeEnergyModel& m,
                                 const LoadTrace& trace,
                                 const AutoscaleOptions& options) {
  require(options.control_period.value() > 0.0,
          "autoscale_replay: control period must be positive");
  require(options.headroom >= 0.0, "autoscale_replay: negative headroom");
  require(options.boot_delay.value() >= 0.0,
          "autoscale_replay: negative boot delay");
  require(options.min_active_fraction >= 0.0 &&
              options.min_active_fraction <= 1.0,
          "autoscale_replay: min_active_fraction outside [0, 1]");

  const auto& workload = m.workload();
  // Flatten the fleet, ordered by work-per-watt (greedy activation order).
  std::vector<NodeKind> nodes;
  for (const auto& g : m.cluster().groups) {
    if (g.count == 0) continue;
    const auto& d = workload.demand_for(g.spec.name);
    const double rate =
        workload::unit_throughput(d, g.spec, g.cores(), g.freq());
    const Watts busy = workload::busy_power(
        d, g.spec, g.cores(), g.freq(),
        workload.power_scale_for(g.spec.name));
    for (unsigned i = 0; i < g.count; ++i) {
      nodes.push_back(NodeKind{rate, g.spec.power.idle.value(),
                               (busy - g.spec.power.idle).value()});
    }
  }
  require(!nodes.empty(), "autoscale_replay: empty fleet");
  std::sort(nodes.begin(), nodes.end(), [](const NodeKind& a,
                                           const NodeKind& b) {
    return a.rate / (a.idle_w + a.dyn_w) > b.rate / (b.idle_w + b.dyn_w);
  });

  double fleet_capacity = 0.0;
  for (const auto& n : nodes) fleet_capacity += n.rate;
  const auto min_active = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.min_active_fraction *
                                  static_cast<double>(nodes.size())));

  const double horizon = trace.horizon().value();
  const double dt = options.control_period.value();
  const double boot = options.boot_delay.value();
  const double sleep_w = options.sleep_power.value();

  // Controller sweep: per step decide the active prefix size; build the
  // (rate, power) timeline with boot transitions.
  std::vector<Segment> segments;
  std::size_t serving = nodes.size();  // start fully on (warm fleet)
  std::size_t committed = nodes.size();
  std::vector<double> serve_from(nodes.size(), 0.0);

  const auto aggregate = [&](double t) {
    Segment s;
    s.start = t;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i < committed) {
        if (serve_from[i] <= t) {
          s.rate += nodes[i].rate;
          s.dyn_w += nodes[i].dyn_w;
          s.active += 1.0;
          s.base_w += nodes[i].idle_w;
        } else {
          s.base_w += nodes[i].idle_w;  // booting: idle power, no work
        }
      } else {
        s.base_w += sleep_w;
      }
    }
    return s;
  };

  obs::Observer* o = obs::current();
  obs::StringId cat_s = 0, up_s = 0, down_s = 0, delta_s = 0, commit_s = 0;
  obs::MetricId decisions_m = 0;
  std::uint64_t decisions = 0;  // added to decisions_m once, after the loop
  if (o != nullptr) {
    cat_s = o->tracer.intern("autoscale");
    up_s = o->tracer.intern("scale_up");
    down_s = o->tracer.intern("scale_down");
    delta_s = o->tracer.intern("delta");
    commit_s = o->tracer.intern("committed_nodes");
    decisions_m = o->metrics.counter("autoscale.decisions");
    o->tracer.counter(0.0, cat_s, commit_s,
                      static_cast<double>(committed));
  }
  for (double t = 0.0; t < horizon; t += dt) {
    const double demand = trace.at(Seconds{t}) * fleet_capacity;
    const double target = demand * (1.0 + options.headroom);
    std::size_t want = 0;
    double cap = 0.0;
    while (want < nodes.size() && (cap < target || want < min_active)) {
      cap += nodes[want].rate;
      ++want;
    }
    if (want > committed) {
      for (std::size_t i = committed; i < want; ++i)
        serve_from[i] = t + boot;  // wake
    } else if (want < committed) {
      // Park immediately (LIFO within the efficiency order).
    }
    if (o != nullptr && want != committed) {
      ++decisions;
      o->tracer.instant(t, cat_s, want > committed ? up_s : down_s, delta_s,
                        static_cast<double>(want) -
                            static_cast<double>(committed));
      o->tracer.counter(t, cat_s, commit_s, static_cast<double>(want));
    }
    committed = want;
    segments.push_back(aggregate(t));
    // A boot completing mid-step changes the aggregates: add an edge.
    if (boot > 0.0 && boot < dt) {
      segments.push_back(aggregate(t + boot));
    }
    serving = committed;
  }
  (void)serving;
  if (o != nullptr) o->metrics.add(decisions_m, decisions);

  const auto segment_at = [&](double t) -> std::size_t {
    std::size_t lo = 0, hi = segments.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (segments[mid].start <= t) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const auto integrate = [&](double a, double b, auto field) {
    double acc = 0.0;
    std::size_t si = segment_at(a);
    double t = a;
    while (t < b && si < segments.size()) {
      const double seg_end =
          si + 1 < segments.size() ? segments[si + 1].start : b;
      const double edge = std::min(b, seg_end);
      acc += field(segments[si]) * (edge - t);
      t = edge;
      ++si;
    }
    return acc;
  };
  const auto finish_time = [&](double start, double work) {
    std::size_t si = segment_at(start);
    double t = start;
    double remaining = work;
    while (true) {
      const double seg_end = si + 1 < segments.size()
                                 ? segments[si + 1].start
                                 : horizon * 2.0;
      const double rate = segments[si].rate;
      if (rate > 0.0) {
        const double can_do = rate * (seg_end - t);
        if (can_do >= remaining) return t + remaining / rate;
        remaining -= can_do;
      }
      t = seg_end;
      if (si + 1 < segments.size()) {
        ++si;
      } else {
        require(segments[si].rate > 0.0,
                "autoscale_replay: fleet parked with work outstanding");
        return t + remaining / segments[si].rate;
      }
    }
  };

  // Job stream: non-homogeneous Poisson via thinning, served FIFO.
  Rng rng(options.seed);
  const Seconds unit_service{workload.units_per_job / fleet_capacity};
  const double lambda_max = trace.peak() / unit_service.value();

  const std::size_t n_buckets = 24;
  const double bucket_w = horizon / static_cast<double>(n_buckets);
  std::vector<AutoscaleBucket> buckets(n_buckets);
  std::vector<std::vector<double>> responses(n_buckets);
  std::vector<double> work_in_bucket(n_buckets, 0.0);
  std::vector<std::pair<double, double>> serving_ivals;

  double t = 0.0;
  double server_free = 0.0;
  std::uint64_t completed = 0;
  if (lambda_max > 0.0) {
    while (true) {
      t += rng.exponential(lambda_max);
      if (t >= horizon) break;
      if (rng.uniform01() * lambda_max >
          trace.at(Seconds{t}) / unit_service.value()) {
        continue;
      }
      const double start = std::max(t, server_free);
      const double done = finish_time(start, workload.units_per_job);
      server_free = done;
      ++completed;
      serving_ivals.emplace_back(start, done);
      const auto bi = std::min(n_buckets - 1,
                               static_cast<std::size_t>(t / bucket_w));
      responses[bi].push_back(done - t);
      work_in_bucket[bi] += workload.units_per_job;
    }
  }

  // Per-bucket accounting.
  std::vector<double> bucket_dyn(n_buckets, 0.0);
  for (const auto& [a, b] : serving_ivals) {
    double lo = std::min(a, horizon);
    const double hi = std::min(b, horizon);
    while (lo < hi) {
      const auto bi = std::min(n_buckets - 1,
                               static_cast<std::size_t>(lo / bucket_w));
      const double edge =
          std::min(hi, (static_cast<double>(bi) + 1.0) * bucket_w);
      bucket_dyn[bi] +=
          integrate(lo, edge, [](const Segment& s) { return s.dyn_w; });
      lo = edge;
    }
  }

  Joules energy{0.0};
  Seconds worst_p95{0.0};
  std::map<double, RunningStats> profile;  // fleet utilization -> power
  for (std::size_t i = 0; i < n_buckets; ++i) {
    AutoscaleBucket& b = buckets[i];
    b.start = Seconds{bucket_w * static_cast<double>(i)};
    b.target_utilization = trace.at(b.start + Seconds{bucket_w / 2});
    const double base = integrate(b.start.value(),
                                  b.start.value() + bucket_w,
                                  [](const Segment& s) { return s.base_w; });
    const double active = integrate(
        b.start.value(), b.start.value() + bucket_w,
        [](const Segment& s) { return s.active; });
    b.active_fraction =
        active / (bucket_w * static_cast<double>(nodes.size()));
    b.average_power = Watts{(base + bucket_dyn[i]) / bucket_w};
    b.jobs = responses[i].size();
    if (!responses[i].empty()) {
      b.p95_response = Seconds{percentile_inplace(responses[i], 95.0)};
      worst_p95 = std::max(worst_p95, b.p95_response);
    }
    energy += b.average_power * Seconds{bucket_w};

    const double fleet_util =
        work_in_bucket[i] / (fleet_capacity * bucket_w);
    profile[std::round(fleet_util * 50.0) / 50.0].add(
        b.average_power.value());
  }
  // Effective power profile: averaged bucket samples, anchored at the
  // parked floor (u = 0) and the full-fleet busy power (u = 1).
  const double parked_floor =
      static_cast<double>(nodes.size() - min_active) * sleep_w +
      [&] {
        double idle = 0.0;
        for (std::size_t i = 0; i < min_active; ++i) idle += nodes[i].idle_w;
        return idle;
      }();
  PiecewiseLinear samples;
  samples.add(0.0, parked_floor);
  for (const auto& [u, stats] : profile) {
    if (u <= 0.0 || u >= 1.0) continue;
    samples.add(u, stats.mean());
  }
  samples.add(1.0, m.busy_power().value());
  power::PowerCurve effective =
      power::PowerCurve::sampled(std::move(samples));
  metrics::ProportionalityReport effective_report =
      metrics::analyze(effective);
  metrics::ProportionalityReport static_report =
      metrics::analyze(m.power_curve());

  return AutoscaleResult{
      .buckets = std::move(buckets),
      .total_energy = energy,
      .average_power = energy / trace.horizon(),
      .jobs_completed = completed,
      .worst_p95 = worst_p95,
      .effective_curve = std::move(effective),
      .effective_report = effective_report,
      .static_report = static_report,
  };
}

}  // namespace hcep::cluster
