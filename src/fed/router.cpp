#include "hcep/fed/router.hpp"

#include <limits>

#include "hcep/util/error.hpp"

namespace hcep::fed {

const char* route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kNearest: return "nearest";
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kPinned: return "pinned";
    case RoutePolicy::kCheapestEnergy: return "cheapest-energy";
    case RoutePolicy::kLowestCarbon: return "lowest-carbon";
    case RoutePolicy::kSloHybrid: return "slo-hybrid";
  }
  return "unknown";
}

RoutePolicy parse_route_policy(std::string_view name) {
  if (name == "nearest") return RoutePolicy::kNearest;
  if (name == "round-robin") return RoutePolicy::kRoundRobin;
  if (name == "pinned") return RoutePolicy::kPinned;
  if (name == "cheapest-energy") return RoutePolicy::kCheapestEnergy;
  if (name == "lowest-carbon") return RoutePolicy::kLowestCarbon;
  if (name == "slo-hybrid") return RoutePolicy::kSloHybrid;
  require(false, "unknown route policy (expected nearest, round-robin, "
                 "pinned, cheapest-energy, lowest-carbon or slo-hybrid)");
  return RoutePolicy::kNearest;
}

GlobalRouter::GlobalRouter(const std::vector<Site>& sites,
                           const hw::InterSiteNetwork& network,
                           const std::vector<traffic::TrafficClass>& classes,
                           const RouterOptions& options)
    : sites_(&sites),
      network_(&network),
      classes_(&classes),
      options_(options),
      recent_(sites.size()),
      window_work_(sites.size(), 0.0) {
  require(!sites.empty(), "GlobalRouter: need at least one site");
  require(network.size() == sites.size(),
          "GlobalRouter: network size must match site count");
  require(!classes.empty(), "GlobalRouter: need at least one class");
  require(options_.pinned_site < sites.size(),
          "GlobalRouter: pinned_site out of range");
  require(options_.headroom > 0.0, "GlobalRouter: headroom must be positive");
  require(options_.transit_slack >= 0.0,
          "GlobalRouter: negative transit_slack");
  require(options_.load_window.value() > 0.0,
          "GlobalRouter: load_window must be positive");
  work_.reserve(sites.size());
  for (const Site& site : sites) {
    std::vector<double> per_class;
    per_class.reserve(classes.size());
    for (const traffic::TrafficClass& c : classes)
      per_class.push_back(
          1.0 / traffic::cluster_capacity_per_s(site.cluster, {c}));
    work_.push_back(std::move(per_class));
  }
  const std::size_t n = sites.size();
  transit_.resize(n * n);
  nearest_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = i;  // the diagonal is free; ties stay local
    for (std::size_t j = 0; j < n; ++j) {
      transit_[i * n + j] = network.transit(i, j, options_.request_payload);
      if (transit_[i * n + j] < transit_[i * n + best]) best = j;
    }
    nearest_[i] = best;
  }
}

Assignment GlobalRouter::route(std::size_t origin, std::uint32_t cls,
                               Seconds t) {
  require(origin < sites_->size(), "GlobalRouter: origin out of range");
  require(cls < classes_->size(), "GlobalRouter: class out of range");
  const std::size_t target = pick(origin, cls, t);
  if (options_.policy == RoutePolicy::kSloHybrid) {
    // Only the hybrid's headroom gate reads the sliding window; the
    // static policies skip the bookkeeping entirely.
    recent_[target].push_back(Placement{t.value(), work_[target][cls]});
    window_work_[target] += work_[target][cls];
  }
  Assignment a;
  a.index = static_cast<std::uint64_t>(log_.size());
  a.origin = static_cast<std::uint32_t>(origin);
  a.target = static_cast<std::uint32_t>(target);
  a.cls = cls;
  a.t = t;
  a.transit = transit_[origin * sites_->size() + target];
  log_.push_back(a);
  return a;
}

double GlobalRouter::load(std::size_t site, Seconds t) {
  std::deque<Placement>& window = recent_[site];
  const double cutoff = t.value() - options_.load_window.value();
  while (!window.empty() && window.front().t < cutoff) {
    window_work_[site] -= window.front().work;
    window.pop_front();
  }
  if (window.empty()) window_work_[site] = 0.0;  // flush rounding dust
  return window_work_[site];
}

std::size_t GlobalRouter::pick(std::size_t origin, std::uint32_t cls,
                               Seconds t) {
  const std::size_t n = sites_->size();
  switch (options_.policy) {
    case RoutePolicy::kPinned:
      return options_.pinned_site;
    case RoutePolicy::kRoundRobin: {
      const std::size_t target =
          static_cast<std::size_t>(rr_ % static_cast<std::uint64_t>(n));
      ++rr_;
      return target;
    }
    case RoutePolicy::kNearest:
      // Precomputed argmin over the cached transit row (the diagonal is
      // free, so this is "stay local" on every topology with transit
      // >= 0; asymmetric topologies still behave).
      return nearest_[origin];
    case RoutePolicy::kCheapestEnergy:
    case RoutePolicy::kLowestCarbon: {
      // Lexicographic argmin of (tariff at the landing instant, transit,
      // index) — price-greedy, SLO- and load-blind by design (the
      // keystone uses these as the "chase the tariff" baselines).
      std::size_t best = 0;
      double best_value = std::numeric_limits<double>::infinity();
      Seconds best_transit{std::numeric_limits<double>::infinity()};
      for (std::size_t j = 0; j < n; ++j) {
        const Seconds tr = transit_[origin * n + j];
        const PiecewiseCurve& curve =
            options_.policy == RoutePolicy::kCheapestEnergy
                ? (*sites_)[j].price
                : (*sites_)[j].carbon;
        const double value = curve.at(t + tr);
        if (value < best_value ||
            (value == best_value && tr < best_transit)) {
          best = j;
          best_value = value;
          best_transit = tr;
        }
      }
      return best;
    }
    case RoutePolicy::kSloHybrid:
      break;
  }

  // kSloHybrid: three gates, folded into one pass in site order.
  // Gate 1, SLO transit feasibility: a remote site only qualifies while
  // the WAN detour leaves most of the class's latency budget for actual
  // service. The origin always qualifies (transit 0).
  // Gate 2, load headroom: a qualifying site is feasible while its
  // sliding window stays under headroom * capacity. load() prunes the
  // site's window, so it runs for exactly the qualifying sites.
  // Gate 3: among feasible sites, the lexicographic argmin of (price at
  // the landing instant, transit, index) — spend the slack the SLO
  // affords on the cheapest energy available right now.
  // If no qualifying site is feasible, the least-loaded one (relative
  // to its own capacity) wins rather than violating the transit gate;
  // if none qualifies (degenerate slack), the request stays local.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const traffic::SloTarget& slo = (*classes_)[cls].slo;
  std::size_t least_loaded = kNone;
  double least_load = kInf;
  std::size_t best = kNone;
  double best_price = kInf;
  Seconds best_transit{kInf};
  for (std::size_t j = 0; j < n; ++j) {
    const Seconds tr = transit_[origin * n + j];
    if (slo.enabled() &&
        tr.value() > options_.transit_slack * slo.latency.value())
      continue;
    const double in_window = load(j, t) + work_[j][cls];
    const double utilization = in_window / options_.load_window.value();
    if (least_loaded == kNone) least_loaded = j;
    if (utilization < least_load) {
      least_load = utilization;
      least_loaded = j;
    }
    if (utilization <= options_.headroom) {
      if (best == kNone) best = j;
      const double price = (*sites_)[j].price.at(t + tr);
      if (price < best_price || (price == best_price && tr < best_transit)) {
        best = j;
        best_price = price;
        best_transit = tr;
      }
    }
  }
  if (least_loaded == kNone) return origin;
  return best == kNone ? least_loaded : best;
}

}  // namespace hcep::fed
