#include "scenarios.hpp"

#include <algorithm>
#include <stdexcept>

#include "hcep/control/controllers.hpp"
#include "hcep/fed/curves.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace hcep_bench {

using namespace hcep;

const workload::Workload& Catalog::get(std::string_view name) const {
  for (const auto& w : programs)
    if (w.name == name) return w;
  throw std::runtime_error("missing paper workload " + std::string(name));
}

Catalog make_catalog() { return Catalog{workload::paper_workloads()}; }

// 2^20: a power of two, so every per-request vector the library grows by
// doubling ends at the same capacity whatever the seed — bytes/request
// is then an exact count.
std::uint64_t scaled_requests(unsigned div) { return (1u << 20) / div; }

traffic::TrafficResult TrafficScenario::run() const {
  return traffic::simulate_traffic(cluster, classes, *arrivals, options);
}

fed::FleetReport FleetScenario::run() const {
  return fed::simulate_fleet(sites, network, classes, options);
}

namespace {

TrafficScenario single_class(const Catalog& catalog, unsigned a9,
                             unsigned k10, std::uint64_t seed, unsigned div) {
  TrafficScenario s;
  s.cluster = model::make_a9_k10_cluster(a9, k10);
  s.classes = {traffic::TrafficClass{catalog.get("EP"), 1.0, {}}};
  s.capacity = traffic::cluster_capacity_per_s(s.cluster, s.classes);
  s.options.requests = scaled_requests(div);
  s.options.seed = seed;
  return s;
}

/// Mean per-node service time of one class on `cluster`.
Seconds mean_service(const model::ClusterSpec& cluster,
                     const traffic::TrafficClass& c) {
  return Seconds{static_cast<double>(cluster.total_nodes()) /
                 traffic::cluster_capacity_per_s(cluster, {c})};
}

}  // namespace

TrafficScenario open_loop(const Catalog& catalog, std::uint64_t seed,
                          unsigned div) {
  TrafficScenario s = single_class(catalog, 4, 2, seed, div);
  s.rate = 0.7 * s.capacity;
  s.arrivals = traffic::make_poisson(s.rate);
  return s;
}

TrafficScenario overload_retry(const Catalog& catalog, std::uint64_t seed,
                               unsigned div) {
  TrafficScenario s = single_class(catalog, 4, 2, seed, div);
  s.classes = {traffic::TrafficClass{catalog.get("EP"), 0.7, {}},
               traffic::TrafficClass{catalog.get("x264"), 0.3, {}}};
  for (auto& c : s.classes)
    c.slo = traffic::SloTarget{
        Seconds{20.0 * mean_service(s.cluster, c).value()}, 0.95};
  s.capacity = traffic::cluster_capacity_per_s(s.cluster, s.classes);
  s.rate = 1.05 * s.capacity;
  s.arrivals = traffic::make_poisson(s.rate);
  s.options.admission.bucket_rate_per_s = 0.95 * s.capacity;
  s.options.admission.bucket_burst = 64.0;
  s.options.admission.max_queue_depth = 128;
  s.options.retry.max_attempts = 3;
  s.options.retry.base_backoff = Seconds{2.0 / s.capacity};
  return s;
}

TrafficScenario power_gated_observed(const Catalog& catalog,
                                     std::uint64_t seed, unsigned div) {
  TrafficScenario s = single_class(catalog, 4, 2, seed, div);
  s.rate = 0.6 * s.capacity;
  const double span = static_cast<double>(s.options.requests) / s.rate;
  s.arrivals = traffic::make_diurnal(s.rate, 0.8, Seconds{span / 4.0});
  s.options.control.controller = control::make_power_gate();
  s.options.control.period = Seconds{50.0 / s.rate};
  s.options.stream.window = Seconds{span / 256.0};
  s.options.record_requests = true;
  return s;
}

TrafficScenario sharded_scaling(const Catalog& catalog, std::uint64_t seed,
                                unsigned div) {
  TrafficScenario s = single_class(catalog, 8, 4, seed, div);
  s.rate = 0.7 * s.capacity;
  s.arrivals = traffic::make_poisson(s.rate);
  s.options.shards = 4;
  return s;
}

FleetScenario fleet_hybrid(const Catalog& catalog, std::uint64_t seed,
                           unsigned div) {
  // The tests/test_fed.cpp keystone shape: interactive memcached cannot
  // afford the WAN (10 ms > 0.25 x its SLO) and stays local; batch x264
  // can, so the hybrid moves it towards cheap, idle sites.
  const unsigned k10[] = {4, 2, 2};
  const char* names[] = {"alpha", "beta", "gamma"};
  FleetScenario f;
  const auto probe = model::make_a9_k10_cluster(0, 1);
  const traffic::TrafficClass mc{catalog.get("memcached"), 0.8, {}};
  const traffic::TrafficClass x264{catalog.get("x264"), 0.2, {}};
  const Seconds s_i = mean_service(probe, mc);
  const Seconds s_b = mean_service(probe, x264);
  f.classes = {mc, x264};
  f.classes[0].slo = traffic::SloTarget{Seconds{12.0 * s_i.value()}, 0.95};
  f.classes[1].slo = traffic::SloTarget{Seconds{40.0 * s_b.value()}, 0.95};
  f.network = hw::InterSiteNetwork::uniform(3, Seconds{0.010},
                                            BytesPerSecond{0.0});

  double fleet_capacity = 0.0;
  for (const unsigned n : k10)
    fleet_capacity += traffic::cluster_capacity_per_s(
        model::make_a9_k10_cluster(0, n), f.classes);
  const double site_rate = 0.55 * fleet_capacity / 3.0;
  f.options.requests_per_site = scaled_requests(div) / 3;
  const Seconds period{static_cast<double>(f.options.requests_per_site) /
                       site_rate};
  for (std::size_t s = 0; s < 3; ++s) {
    fed::Site site;
    site.name = names[s];
    site.cluster = model::make_a9_k10_cluster(0, k10[s]);
    site.rack_budget = site.cluster.nameplate_power();
    const Seconds offset{period.value() * static_cast<double>(s) / 3.0};
    site.arrivals = traffic::make_diurnal(site_rate, 0.85, period, offset);
    const Seconds peak{offset.value() + 0.25 * period.value()};
    site.price = fed::make_diurnal_curve(0.10, 0.8, period, peak, 100 + s,
                                         0.03);
    site.carbon = fed::make_diurnal_curve(420.0, 0.6, period, peak, 200 + s,
                                          0.03);
    f.sites.push_back(std::move(site));
  }
  f.options.seed = seed;
  f.options.shards = 3;
  f.options.router.policy = fed::RoutePolicy::kSloHybrid;
  f.options.router.headroom = 0.60;
  f.options.router.transit_slack = 0.25;
  f.options.router.load_window = Seconds{6.0 * s_b.value()};
  return f;
}

FleetScenario single_site(const TrafficScenario& s) {
  FleetScenario f;
  fed::Site site;
  site.name = "solo";
  site.cluster = s.cluster;
  site.arrivals = s.arrivals->clone();
  site.rack_budget = s.cluster.nameplate_power();
  site.price = fed::EnergyPriceCurve::flat(0.10);
  site.carbon = fed::CarbonCurve::flat(420.0);
  site.control = s.options.control;
  f.sites.push_back(std::move(site));
  f.network = hw::InterSiteNetwork(1);
  f.classes = s.classes;
  f.options.requests_per_site = s.options.requests;
  f.options.seed = s.options.seed;
  f.options.router.policy = fed::RoutePolicy::kNearest;
  f.options.policy = s.options.policy;
  f.options.admission = s.options.admission;
  f.options.retry = s.options.retry;
  f.options.stream = s.options.stream;
  return f;
}

SweepScenario sweep_pareto(const Catalog& catalog, std::uint64_t seed,
                           unsigned div) {
  // 64x64 at full scale (1,476,992 configurations); each factor 4 of
  // `div` halves both node-count axes.
  unsigned nodes = 64;
  for (unsigned d = div; d >= 4 && nodes > 1; d /= 4) nodes /= 2;
  SweepScenario s{config::make_a9_k10_space(nodes, nodes), {}, {}};
  Rng rng(seed);
  for (const auto& w : catalog.programs) {
    s.programs.push_back(
        workload::with_input_scale(w, 0.5 + 1.5 * rng.uniform01()));
    s.deadline_factor.push_back(1.5 + 2.5 * rng.uniform01());
  }
  return s;
}

// ---------------------------------------------------------- correctness

Verdict check(const traffic::TrafficResult& r, std::uint64_t offered) {
  Verdict v;
  v.require(r.offered == offered, "offered != requests");
  v.require(r.completed + r.failed == r.offered,
            "completed + failed != offered");
  v.require(r.sojourn.count == r.completed, "sojourn samples != completed");
  std::uint64_t off = 0, adm = 0, shed = 0, ret = 0, done = 0, fail = 0;
  for (const auto& c : r.classes) {
    off += c.offered;
    adm += c.admitted;
    shed += c.shed;
    ret += c.retries;
    done += c.completed;
    fail += c.failed;
  }
  v.require(off == r.offered && adm == r.admitted &&
                shed == r.shed_bucket + r.shed_queue && ret == r.retries &&
                done == r.completed && fail == r.failed,
            "per-class ledgers do not sum to the totals");
  if (!r.requests.empty()) {
    v.require(r.requests.size() == r.offered, "request records != offered");
    std::uint64_t failed_records = 0;
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
      failed_records += r.requests[i].failed;
      if (i > 0 && r.requests[i - 1].index >= r.requests[i].index) {
        v.require(false, "request records not sorted by index");
        break;
      }
    }
    v.require(failed_records == r.failed, "failed records != failed");
  }
  return v;
}

Verdict check(const fed::FleetReport& r, std::uint64_t offered) {
  Verdict v;
  v.require(r.offered == offered, "fleet offered != requests");
  v.require(r.completed + r.failed == r.offered,
            "fleet completed + failed != offered");
  std::uint64_t routed = 0, done = 0, fail = 0;
  for (const auto& s : r.sites) {
    routed += s.routed;
    done += s.result.completed;
    fail += s.result.failed;
    v.merge(check(s.result, s.routed));
  }
  v.require(routed == r.offered && done == r.completed && fail == r.failed,
            "site ledgers do not sum to the fleet totals");
  std::uint64_t cls_done = 0, cls_fail = 0;
  for (const auto& c : r.classes) {
    cls_done += c.completed;
    cls_fail += c.failed;
  }
  v.require(cls_done == r.completed && cls_fail == r.failed,
            "class ledgers do not sum to the fleet totals");
  std::uint64_t moved = 0, cross = 0;
  for (std::size_t o = 0; o < r.routes.size(); ++o)
    for (std::size_t t = 0; t < r.routes[o].size(); ++t) {
      moved += r.routes[o][t];
      if (o != t) cross += r.routes[o][t];
    }
  v.require(moved == r.offered && cross == r.cross_site,
            "route matrix does not match the totals");
  return v;
}

Verdict check(const SweepResult& r) {
  Verdict v;
  const auto& front = r.front;
  v.require(!front.empty(), "empty Pareto front");
  for (std::size_t i = 1; i < front.size(); ++i)
    v.require(front[i - 1].time <= front[i].time &&
                  front[i - 1].energy > front[i].energy,
              "front not sorted by time with falling energy");
  // p dominates some member iff it dominates the first member at or
  // after its own time (that member has the largest energy of them).
  const auto& times = r.set.times();
  const auto& energies = r.set.energies();
  for (std::size_t i = 0; i < times.size() && v.ok; ++i) {
    const auto it = std::lower_bound(
        front.begin(), front.end(), times[i],
        [](const config::Evaluation& e, double t) {
          return e.time.value() < t;
        });
    if (it == front.end()) continue;
    const double ft = it->time.value(), fe = it->energy.value();
    v.require(!(energies[i] <= fe && (times[i] < ft || energies[i] < fe)),
              "a Pareto-front member is dominated");
  }
  v.require(r.pick.has_value() && r.pick->time <= r.deadline,
            "no min-energy pick within the deadline");
  if (r.pick) {
    double best = r.pick->energy.value();
    for (std::size_t i = 0; i < times.size(); ++i)
      if (times[i] <= r.deadline.value()) best = std::min(best, energies[i]);
    v.require(best == r.pick->energy.value(),
              "deadline pick is not the minimum energy");
  }
  return v;
}

std::uint64_t fingerprint(const traffic::TrafficResult& r) {
  std::uint64_t h = fnv1a(r.to_json().dump());
  if (r.control.enabled) {
    for (const std::uint64_t n : {r.control.ticks, r.control.event_ticks,
                                  r.control.sleeps, r.control.wakes,
                                  r.control.point_changes})
      h = fnv1a(h, n);
    h = fnv1a(h, r.control.gating_savings.value());
  }
  if (!r.timeline.empty()) h = fnv1a(r.timeline.to_json().dump(), h);
  // Every 64th record (and the count): enough to catch a changed join.
  h = fnv1a(h, static_cast<std::uint64_t>(r.requests.size()));
  for (std::size_t i = 0; i < r.requests.size(); i += 64) {
    h = fnv1a(h, r.requests[i].index);
    h = fnv1a(h, r.requests[i].sojourn.value());
  }
  return h;
}

std::uint64_t fingerprint(const fed::FleetReport& r) {
  return fnv1a(r.to_json().dump());
}

std::uint64_t fingerprint(const SweepResult& r, std::uint64_t h) {
  h = fnv1a(h, static_cast<std::uint64_t>(r.front.size()));
  for (const auto& e : r.front) {
    h = fnv1a(h, e.index);
    h = fnv1a(h, e.time.value());
    h = fnv1a(h, e.energy.value());
  }
  return fnv1a(h, r.pick ? r.pick->index : ~std::uint64_t{0});
}

}  // namespace hcep_bench
