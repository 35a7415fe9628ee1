#include "hcep/cluster/failures.hpp"

#include <algorithm>
#include <vector>

#include "hcep/obs/obs.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/stats.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::cluster {

namespace {

/// Aggregate cluster state over a time segment.
struct Segment {
  double start = 0.0;
  double rate = 0.0;      ///< units/s of the up nodes
  double idle_w = 0.0;    ///< idle power of the up nodes
  double dyn_w = 0.0;     ///< dynamic power of the up nodes when serving
  double nodes_up = 0.0;
};

}  // namespace

FailureResult simulate_with_failures(const model::TimeEnergyModel& m,
                                     const FailureOptions& options) {
  require(options.utilization >= 0.0 && options.utilization < 1.0,
          "simulate_with_failures: utilization must lie in [0, 1)");
  require(options.min_jobs > 0, "simulate_with_failures: min_jobs > 0");
  require(options.node_mtbf.value() > 0.0,
          "simulate_with_failures: MTBF must be positive");
  require(options.repair_time.value() >= 0.0,
          "simulate_with_failures: negative repair time");

  const auto& workload = m.workload();
  const Seconds healthy_service =
      m.execution_time(workload.units_per_job).t_p;
  const double u = options.utilization;
  const double window =
      (u > 0.0 ? healthy_service.value() *
                     static_cast<double>(options.min_jobs) / u
               : healthy_service.value() *
                     static_cast<double>(options.min_jobs));
  // Failures can push service past the window; simulate the timeline with
  // headroom so jobs can drain.
  const double horizon = window * 4.0 + 100.0 * healthy_service.value();

  // Per-node static characteristics.
  struct NodeKind {
    double rate;
    double idle;
    double dyn;
  };
  std::vector<NodeKind> nodes;
  for (const auto& g : m.cluster().groups) {
    if (g.count == 0) continue;
    const auto& d = workload.demand_for(g.spec.name);
    const double rate =
        workload::unit_throughput(d, g.spec, g.cores(), g.freq());
    const Watts busy =
        workload::busy_power(d, g.spec, g.cores(), g.freq(),
                             workload.power_scale_for(g.spec.name));
    for (unsigned i = 0; i < g.count; ++i) {
      nodes.push_back(NodeKind{rate, g.spec.power.idle.value(),
                               (busy - g.spec.power.idle).value()});
    }
  }
  require(!nodes.empty(), "simulate_with_failures: empty cluster");

  // Per-node up/down renewal processes -> change events.
  Rng rng(options.seed);
  struct Change {
    double t;
    std::size_t node;
    bool up;
  };
  std::vector<Change> changes;
  std::uint64_t failures = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    double t = rng.exponential(1.0 / options.node_mtbf.value());
    while (t < horizon) {
      changes.push_back(Change{t, n, false});
      ++failures;
      t += options.repair_time.value();
      if (t >= horizon) break;
      changes.push_back(Change{t, n, true});
      t += rng.exponential(1.0 / options.node_mtbf.value());
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) { return a.t < b.t; });

  // Failure/repair instants plus a nodes_up counter track, so the fleet
  // timeline renders alongside the power tracks in chrome://tracing.
  if (obs::Observer* o = obs::current(); o != nullptr) {
    o->metrics.add(o->metrics.counter("failures.node_failures"), failures);
    const obs::StringId cat = o->tracer.intern("failures");
    const obs::StringId fail_s = o->tracer.intern("node_failure");
    const obs::StringId repair_s = o->tracer.intern("node_repair");
    const obs::StringId node_s = o->tracer.intern("node");
    const obs::StringId up_s = o->tracer.intern("nodes_up");
    double up = static_cast<double>(nodes.size());
    o->tracer.counter(0.0, cat, up_s, up);
    for (const auto& ch : changes) {
      o->tracer.instant(ch.t, cat, ch.up ? repair_s : fail_s, node_s,
                        static_cast<double>(ch.node));
      up += ch.up ? 1.0 : -1.0;
      o->tracer.counter(ch.t, cat, up_s, up);
    }
  }

  // Build aggregate segments.
  std::vector<Segment> segments;
  {
    Segment cur;
    cur.start = 0.0;
    for (const auto& n : nodes) {
      cur.rate += n.rate;
      cur.idle_w += n.idle;
      cur.dyn_w += n.dyn;
      cur.nodes_up += 1.0;
    }
    segments.push_back(cur);
    for (const auto& ch : changes) {
      Segment next = segments.back();
      next.start = ch.t;
      const double sign = ch.up ? 1.0 : -1.0;
      next.rate += sign * nodes[ch.node].rate;
      next.idle_w += sign * nodes[ch.node].idle;
      next.dyn_w += sign * nodes[ch.node].dyn;
      next.nodes_up += sign;
      segments.push_back(next);
    }
  }
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

  // Integrate a quantity selected by `field` over [a, b).
  const auto integrate = [&](double a, double b, auto field) {
    double acc = 0.0;
    std::size_t si = segment_at(a);
    double t = a;
    while (t < b) {
      const double seg_end =
          si + 1 < segments.size() ? segments[si + 1].start : horizon;
      const double edge = std::min(b, seg_end);
      acc += field(segments[si]) * (edge - t);
      t = edge;
      ++si;
      if (si >= segments.size()) break;
    }
    return acc;
  };

  // Serve Poisson arrivals FIFO; a job's service integrates the surviving
  // capacity from its start until its work is done.
  const double lambda = u > 0.0 ? u / healthy_service.value() : 0.0;
  const auto finish_time = [&](double start, double work) {
    std::size_t si = segment_at(start);
    double t = start;
    double remaining = work;
    while (true) {
      const double seg_end =
          si + 1 < segments.size() ? segments[si + 1].start : horizon;
      const double rate = segments[si].rate;
      if (rate > 0.0) {
        const double can_do = rate * (seg_end - t);
        if (can_do >= remaining) return t + remaining / rate;
        remaining -= can_do;
      }
      t = seg_end;
      ++si;
      require(si < segments.size(),
              "simulate_with_failures: work ran past the horizon (raise "
              "MTBF or shorten the window)");
    }
  };

  FailureResult out;
  RunningStats response_stats;
  RunningStats service_stats;
  std::vector<double> responses;
  std::vector<std::pair<double, double>> serving;  // busy intervals

  double clock = 0.0;
  double server_free = 0.0;
  if (lambda > 0.0) {
    while (true) {
      clock += rng.exponential(lambda);
      if (clock >= window) break;
      const double start = std::max(clock, server_free);
      const double done = finish_time(start, workload.units_per_job);
      server_free = done;
      ++out.jobs_completed;
      serving.emplace_back(start, done);
      service_stats.add(done - start);
      response_stats.add(done - clock);
      responses.push_back(done - clock);
    }
  }

  out.window = Seconds{window};
  out.failures = failures;
  out.availability =
      integrate(0.0, window, [](const Segment& s) { return s.nodes_up; }) /
      (window * static_cast<double>(nodes.size()));

  // Energy: idle floor of up nodes over the window, plus dynamic power of
  // up nodes during (clipped) serving intervals.
  double energy =
      integrate(0.0, window, [](const Segment& s) { return s.idle_w; });
  for (const auto& [a, b] : serving) {
    const double lo = std::min(a, window);
    const double hi = std::min(b, window);
    if (hi > lo) {
      energy +=
          integrate(lo, hi, [](const Segment& s) { return s.dyn_w; });
    }
  }
  out.energy = Joules{energy};
  out.average_power = out.energy / out.window;

  if (out.jobs_completed > 0) {
    out.mean_response = Seconds{response_stats.mean()};
    out.p95_response = Seconds{percentile_inplace(responses, 95.0)};
    out.service_inflation =
        service_stats.mean() / healthy_service.value();
  }
  return out;
}

}  // namespace hcep::cluster
