#include "hcep/fed/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <utility>

#include "hcep/obs/obs.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"

namespace hcep::fed {

namespace {

constexpr double kJoulesPerKwh = 3.6e6;

/// Runs f(i) for i in [0, n): as tasks on the global pool when `pooled`,
/// else in index order on the calling thread.
void for_each_index(std::size_t n, bool pooled,
                    const std::function<void(std::size_t)>& f) {
  if (pooled) {
    parallel_for(0, n, f, 1);
  } else {
    for (std::size_t i = 0; i < n; ++i) f(i);
  }
}

/// Per-origin generation: clone the site's process, drive it with the
/// origin's split of the fleet seed, draw the arrival instant first and
/// the class coin second (a fixed draw order is part of the determinism
/// contract). Each origin owns its clone and its seed split, so its
/// stream does not depend on the thread that builds it.
std::vector<std::vector<traffic::Arrival>> generate_arrivals(
    const std::vector<Site>& sites,
    const std::vector<traffic::TrafficClass>& classes,
    const FleetOptions& options, bool pooled) {
  double total_weight = 0.0;
  for (const auto& c : classes) {
    require(c.weight > 0.0, "simulate_fleet: class weights must be positive");
    total_weight += c.weight;
  }
  std::vector<std::vector<traffic::Arrival>> streams(sites.size());
  for_each_index(sites.size(), pooled, [&](std::size_t o) {
    auto gen = sites[o].arrivals->clone();
    Rng rng = Rng(options.seed).split(static_cast<unsigned>(o));
    std::vector<traffic::Arrival>& stream = streams[o];
    stream.reserve(options.requests_per_site);
    Seconds t{0.0};
    for (std::uint64_t k = 0; k < options.requests_per_site; ++k) {
      const Seconds next = gen->next(t, rng);
      if (!std::isfinite(next.value())) break;  // exhausted replay trace
      require(next >= t, "simulate_fleet: an origin's arrival process "
                         "returned an instant before the previous one");
      t = next;
      double coin = rng.uniform01() * total_weight;
      std::uint32_t cls = 0;
      for (std::size_t c = 0; c + 1 < classes.size(); ++c) {
        coin -= classes[c].weight;
        if (coin < 0.0) break;
        ++cls;
      }
      stream.push_back(traffic::Arrival{t, cls});
    }
  });
  return streams;
}

/// Phase A's output: every site's landings, sorted by landing time,
/// with each landing's WAN transit in a column beside them (the join
/// key between a site's request records and the end-to-end ledgers),
/// plus the routes matrix.
struct Routed {
  std::vector<std::vector<traffic::Arrival>> landings;
  std::vector<std::vector<Seconds>> transit;
  std::vector<std::vector<std::uint64_t>> routes;
  std::uint64_t offered = 0;
  std::uint64_t cross_site = 0;
};

/// Merges the origin streams into the router and deals the placements
/// to their sites. The router and its decision log live only here, and
/// go once the log is split into the sites' runs.
Routed route_fleet(std::vector<std::vector<traffic::Arrival>> streams,
                   const std::vector<Site>& sites,
                   const hw::InterSiteNetwork& network,
                   const std::vector<traffic::TrafficClass>& classes,
                   const RouterOptions& options) {
  const std::size_t n = sites.size();
  std::optional<GlobalRouter> router(std::in_place, sites, network, classes,
                                     options);
  Routed out;
  out.landings.resize(n);
  out.transit.resize(n);
  out.routes.assign(n, std::vector<std::uint64_t>(n, 0));
  for (const auto& stream : streams) out.offered += stream.size();
  if (n == 1) {  // every placement is local, every transit zero
    out.landings[0] = std::move(streams[0]);
    out.routes[0][0] = out.offered;
    return out;
  }
  router->reserve(out.offered);
  // k-way merge by time; ties go to the lower origin. Each origin
  // stream is nondecreasing, so this is the stable sort of their
  // concatenation.
  std::vector<std::size_t> head(n, 0);
  for (std::uint64_t k = 0; k < out.offered; ++k) {
    std::size_t o = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (head[j] == streams[j].size()) continue;
      if (o == n || streams[j][head[j]].t < streams[o][head[o]].t) o = j;
    }
    const traffic::Arrival& a = streams[o][head[o]++];
    const std::uint32_t target = router->route(o, a.cls, a.t).target;
    ++out.routes[o][target];
    if (o != target) ++out.cross_site;
  }
  streams = {};  // routed: release the origin streams

  // Deal each site its placements, each landing at t + transit, in
  // landing-time order. One pass over the decision log splits it into
  // runs, one per (site, origin) pair, of the pair's placements (instant
  // and class) in fleet order. A run shares the router's one transit for
  // its pair and its instants ascend, so it is already sorted, and a
  // site's landings are the merge of its runs. Equal landings keep fleet
  // order, as a stable sort would: the fleet orders placements by
  // instant, then origin. This runs on the calling thread, so its memory
  // peak does not depend on thread timing; each site's runs are freed
  // once merged. Runs and their transits sit at site * n + origin.
  std::vector<std::vector<traffic::Arrival>> runs(n * n);
  std::vector<Seconds> transit(n * n);
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t o = 0; o < n; ++o)
      runs[s * n + o].reserve(out.routes[o][s]);
  for (const Assignment& a : router->assignments()) {
    const std::size_t r = a.target * n + a.origin;
    runs[r].push_back(traffic::Arrival{a.t, a.cls});
    transit[r] = a.transit;
  }
  router.reset();  // split: release the decision log
  std::vector<std::size_t> at(n);  // each run's cursor
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<traffic::Arrival>* const run = &runs[s * n];
    const Seconds* const tr = &transit[s * n];
    std::uint64_t count = 0;
    for (std::size_t o = 0; o < n; ++o) count += run[o].size();
    out.landings[s].reserve(count);
    out.transit[s].reserve(count);
    std::fill(at.begin(), at.end(), 0);
    for (;;) {
      std::size_t o = n;  // the run with the earliest next landing
      Seconds landing{}, t{};
      for (std::size_t j = 0; j < n; ++j) {
        if (at[j] == run[j].size()) continue;
        const Seconds tj = run[j][at[j]].t;
        const Seconds lj = tj + tr[j];
        if (o == n || lj < landing || (lj == landing && tj < t)) {
          o = j;
          landing = lj;
          t = tj;
        }
      }
      if (o == n) break;
      out.landings[s].push_back(
          traffic::Arrival{landing, run[o][at[o]++].cls});
      out.transit[s].push_back(tr[o]);
    }
    for (std::size_t o = 0; o < n; ++o) run[o] = {};
  }
  return out;
}

}  // namespace

double FleetClassLedger::violation_fraction() const {
  if (completed == 0) return 0.0;
  return static_cast<double>(slo_violations) / static_cast<double>(completed);
}

JsonValue CostWindow::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("t0_s", JsonValue::number(t0.value()));
  o.set("t1_s", JsonValue::number(t1.value()));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("cost_usd", JsonValue::number(cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  return o;
}

JsonValue SiteReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("routed", JsonValue::number(static_cast<std::int64_t>(routed)));
  o.set("local", JsonValue::number(static_cast<std::int64_t>(local)));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("energy_cost_usd", JsonValue::number(energy_cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  o.set("traffic", result.to_json());
  return o;
}

JsonValue FleetClassLedger::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("name", JsonValue::string(name));
  o.set("slo_latency_s", JsonValue::number(slo.latency.value()));
  o.set("completed", JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("slo_violations",
        JsonValue::number(static_cast<std::int64_t>(slo_violations)));
  o.set("violation_fraction", JsonValue::number(violation_fraction()));
  o.set("mean_transit_s", JsonValue::number(mean_transit.value()));
  o.set("e2e", e2e.to_json());
  return o;
}

JsonValue FleetReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("schema_version", JsonValue::number(std::int64_t{2}));
  o.set("router_policy", JsonValue::string(router_policy));
  o.set("seed", JsonValue::number(static_cast<std::int64_t>(seed)));
  o.set("horizon_s", JsonValue::number(horizon.value()));
  o.set("offered", JsonValue::number(static_cast<std::int64_t>(offered)));
  o.set("completed", JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("cross_site",
        JsonValue::number(static_cast<std::int64_t>(cross_site)));
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("energy_cost_usd", JsonValue::number(energy_cost));
  o.set("carbon_g", JsonValue::number(carbon_g));
  JsonValue site_array = JsonValue::array();
  for (const auto& s : sites) site_array.push(s.to_json());
  o.set("sites", std::move(site_array));
  JsonValue class_array = JsonValue::array();
  for (const auto& c : classes) class_array.push(c.to_json());
  o.set("classes", std::move(class_array));
  JsonValue route_rows = JsonValue::array();
  for (const auto& row : routes) {
    JsonValue r = JsonValue::array();
    for (const std::uint64_t count : row)
      r.push(JsonValue::number(static_cast<std::int64_t>(count)));
    route_rows.push(std::move(r));
  }
  o.set("routes", std::move(route_rows));
  JsonValue window_array = JsonValue::array();
  for (const auto& w : cost_windows) window_array.push(w.to_json());
  o.set("cost_windows", std::move(window_array));
  return o;
}

FleetReport simulate_fleet(const std::vector<Site>& sites,
                           const hw::InterSiteNetwork& network,
                           const std::vector<traffic::TrafficClass>& classes,
                           const FleetOptions& options) {
  require(!sites.empty(), "simulate_fleet: need at least one site");
  require(network.size() == sites.size(),
          "simulate_fleet: network size must match site count");
  require(!classes.empty(), "simulate_fleet: need at least one class");
  require(options.requests_per_site > 0,
          "simulate_fleet: requests_per_site must be positive");
  require(options.shards > 0, "simulate_fleet: shards must be positive");
  for (const Site& site : sites)
    require(site.arrivals != nullptr,
            "simulate_fleet: every site needs an arrival process");

  const std::size_t n = sites.size();
  // A single-site federation is exactly a cluster run: every placement
  // is local, every transit zero. The fast path skips routing, the
  // request records and the end-to-end join — the origin stream is the
  // site's stream, and the ledgers fold directly from the site's
  // per-class stats.
  const bool solo = n == 1;
  // One switch for every per-origin and per-site phase: the tasks run on
  // the pool or serially, with byte-identical results either way.
  const bool pooled = options.shards > 1 && n > 1;

  // Phase A: generate the origin streams, merge them into the router,
  // deal each site its landings.
  Routed routed =
      route_fleet(generate_arrivals(sites, classes, options, pooled), sites,
                  network, classes, options.router);

  // Phase B: one task per site replays the site's landings on its own
  // cluster, a deterministic single-shard simulation.
  std::vector<traffic::TrafficResult> results(n);
  const auto run_site = [&](std::size_t s) {
    traffic::TrafficOptions site_options;
    site_options.policy = options.policy;
    site_options.admission = options.admission;
    site_options.retry = options.retry;
    site_options.seed =
        options.seed + 0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(s) + 1);
    site_options.shards = 1;
    site_options.control = sites[s].control;
    site_options.stream = options.stream;
    site_options.record_requests = !solo;  // solo folds from class stats
    // Site runs report nowhere: not into a caller's observer, and not
    // into the global fallback from a pool thread.
    const obs::ScopedObserver unobserved(nullptr);
    results[s] = traffic::simulate_traffic(
        sites[s].cluster, classes, routed.landings[s], site_options);
    routed.landings[s] = {};
  };
  for_each_index(n, pooled, run_site);

  // Phase C: fold the per-site ledgers into the fleet report.
  FleetReport report;
  report.router_policy = route_policy_name(options.router.policy);
  report.seed = options.seed;
  report.offered = routed.offered;
  report.cross_site = routed.cross_site;
  report.routes = std::move(routed.routes);
  for (std::size_t s = 0; s < n; ++s)
    report.horizon = std::max(report.horizon, results[s].makespan);

  const bool streamed = options.stream.enabled();
  report.sites.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const traffic::TrafficResult& r = results[s];
    SiteReport site;
    site.name = sites[s].name;
    site.routed = r.offered;
    site.local = report.routes[s][s];
    report.completed += r.completed;
    report.failed += r.failed;

    // Early finishers keep drawing their idle floor until the fleet
    // horizon; charge that tail into both the energy and cost ledgers.
    const Watts floor = sites[s].idle_floor();
    const Seconds tail = report.horizon - r.makespan;
    const Joules tail_energy = floor * tail;
    site.energy = r.energy + tail_energy;
    const double tail_cost = floor.value() / kJoulesPerKwh *
                             sites[s].price.integral(r.makespan,
                                                     report.horizon);
    const double tail_carbon = floor.value() / kJoulesPerKwh *
                               sites[s].carbon.integral(r.makespan,
                                                        report.horizon);
    if (streamed && !r.timeline.windows.empty()) {
      // Exact per-window integration: each window's energy priced at
      // the tariff at the window midpoint (clipped to the makespan the
      // integrator itself clipped to).
      double cost = 0.0;
      double carbon = 0.0;
      for (const auto& w : r.timeline.windows) {
        const double t1 = std::min(w.t1.value(), r.makespan.value());
        const Seconds mid{0.5 * (w.t0.value() + t1)};
        cost += w.energy.value() / kJoulesPerKwh * sites[s].price.at(mid);
        carbon += w.energy.value() / kJoulesPerKwh * sites[s].carbon.at(mid);
      }
      site.energy_cost = cost + tail_cost;
      site.carbon_g = carbon + tail_carbon;
    } else {
      // No timeline: price the run's energy at the period-mean tariff.
      site.energy_cost =
          r.energy.value() / kJoulesPerKwh * sites[s].price.mean() +
          tail_cost;
      site.carbon_g =
          r.energy.value() / kJoulesPerKwh * sites[s].carbon.mean() +
          tail_carbon;
    }
    report.energy += site.energy;
    report.energy_cost += site.energy_cost;
    report.carbon_g += site.carbon_g;
    site.result = std::move(results[s]);
    report.sites.push_back(std::move(site));
  }

  // Fleet cost windows: windows align across sites (all timelines start
  // at 0 with the shared width), so summing by index is well-defined.
  // The post-makespan idle tails are NOT in the windows — the window
  // sum plus the tails equals the fleet totals.
  if (streamed) {
    std::size_t max_windows = 0;
    for (const auto& site : report.sites)
      max_windows =
          std::max(max_windows, site.result.timeline.windows.size());
    report.cost_windows.resize(max_windows);
    for (std::size_t s = 0; s < n; ++s) {
      const SiteReport& site = report.sites[s];
      for (const auto& w : site.result.timeline.windows) {
        CostWindow& fleet_window = report.cost_windows[w.index];
        fleet_window.t0 = w.t0;
        fleet_window.t1 = w.t1;
        fleet_window.energy += w.energy;
        const double t1 =
            std::min(w.t1.value(), site.result.makespan.value());
        const Seconds mid{0.5 * (w.t0.value() + t1)};
        fleet_window.cost +=
            w.energy.value() / kJoulesPerKwh * sites[s].price.at(mid);
        fleet_window.carbon_g +=
            w.energy.value() / kJoulesPerKwh * sites[s].carbon.at(mid);
      }
    }
  }

  // Per-class end-to-end ledgers: each site's terminal request records,
  // joined to the site's transit column, judged on transit + sojourn.
  // Sites are folded in index order, records in arrival order — a fixed
  // fold order, so the transit sums and the latency sketches are
  // deterministic.
  report.classes.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    FleetClassLedger& ledger = report.classes[c];
    ledger.name = report.sites.front().result.classes.size() > c
                      ? report.sites.front().result.classes[c].name
                      : "class" + std::to_string(c);
    ledger.slo = classes[c].slo;
  }
  if (solo) {
    // Zero transit everywhere: the end-to-end ledger IS the site's
    // per-class sojourn ledger.
    const auto& stats = report.sites.front().result.classes;
    for (std::size_t c = 0; c < classes.size() && c < stats.size(); ++c) {
      FleetClassLedger& ledger = report.classes[c];
      ledger.completed = stats[c].completed;
      ledger.failed = stats[c].failed;
      ledger.slo_violations = stats[c].slo_violations;
      ledger.e2e = stats[c].sojourn;
    }
  } else {
    std::vector<Seconds> transit_sum(classes.size());
    std::vector<traffic::LatencySketch> e2e(classes.size());
    for (std::size_t s = 0; s < n; ++s) {
      for (const traffic::RequestRecord& rec :
           report.sites[s].result.requests) {
        FleetClassLedger& ledger = report.classes[rec.cls];
        if (rec.failed != 0) {
          ++ledger.failed;
          continue;
        }
        ++ledger.completed;
        const Seconds tr = routed.transit[s][rec.index];
        transit_sum[rec.cls] += tr;
        e2e[rec.cls].add((tr + rec.sojourn).value());
        if (ledger.slo.enabled() && tr + rec.sojourn > ledger.slo.latency)
          ++ledger.slo_violations;
      }
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      FleetClassLedger& ledger = report.classes[c];
      if (ledger.completed > 0)
        ledger.mean_transit =
            Seconds{transit_sum[c].value() /
                    static_cast<double>(ledger.completed)};
      ledger.e2e = e2e[c].summary();
    }
  }

  return report;
}

}  // namespace hcep::fed
