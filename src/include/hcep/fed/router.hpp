// Global request routing across federation sites.
//
// The tier above per-cluster dispatch: each request originates at a
// site (its region's front-end) and the GlobalRouter decides which
// site's cluster executes it, trading WAN transit time against the
// destination's time-of-use energy price, carbon intensity and current
// load. Placement is strictly deterministic — every policy breaks ties
// lexicographically on the site index, consults no RNG and iterates
// only index-ordered state — so a fixed (seed, scenario) fleet run is
// byte-reproducible (hcep-lint's site-id-determinism rule guards the
// header against address-based site identity creeping in).
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "hcep/fed/site.hpp"
#include "hcep/hw/network.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/units.hpp"

namespace hcep::fed {

enum class RoutePolicy : std::uint8_t {
  kNearest,         ///< lowest transit (ties to origin: stay local)
  kRoundRobin,      ///< static rotation, load- and price-blind
  kPinned,          ///< everything to RouterOptions::pinned_site
  kCheapestEnergy,  ///< lowest $/kWh at the landing instant
  kLowestCarbon,    ///< lowest gCO2e/kWh at the landing instant
  kSloHybrid,       ///< SLO-transit filter, then headroom, then price
};

[[nodiscard]] const char* route_policy_name(RoutePolicy policy);
/// Inverse of route_policy_name; throws PreconditionError on unknown
/// names (CLI surface).
[[nodiscard]] RoutePolicy parse_route_policy(std::string_view name);

struct RouterOptions {
  RoutePolicy policy = RoutePolicy::kSloHybrid;
  /// Target of kPinned (the single-site baselines of the keystone).
  std::size_t pinned_site = 0;
  /// kSloHybrid load gate: a site is load-feasible while the expected
  /// utilization of its recent placements (work-aware — each request
  /// weighed by its class's service share on that site) stays below
  /// this fraction of capacity.
  double headroom = 0.85;
  /// kSloHybrid transit gate: a remote site is SLO-feasible for a class
  /// only while transit <= transit_slack * slo.latency (the origin is
  /// always feasible at zero transit).
  double transit_slack = 0.25;
  /// Sliding window over which recent placements count as load.
  Seconds load_window{5.0};
  /// WAN payload per request (zero = latency-only transit).
  Bytes request_payload{};
};

/// One routing decision. `index` is the fleet-wide arrival index in
/// merged time order; `t` the origin-side arrival instant; the request
/// reaches `target`'s cluster at t + transit.
struct Assignment {
  std::uint64_t index = 0;
  std::uint32_t origin = 0;
  std::uint32_t target = 0;
  std::uint32_t cls = 0;
  Seconds t{};
  Seconds transit{};
};

class GlobalRouter {
 public:
  /// Views over the caller's scenario (not copied; must outlive the
  /// router). Capacities are precomputed per site via
  /// traffic::cluster_capacity_per_s under the shared class mix.
  GlobalRouter(const std::vector<Site>& sites,
               const hw::InterSiteNetwork& network,
               const std::vector<traffic::TrafficClass>& classes,
               const RouterOptions& options);

  /// Places one arrival. Must be called in nondecreasing `t` order
  /// (merged fleet time); records the decision in assignments().
  Assignment route(std::size_t origin, std::uint32_t cls, Seconds t);

  /// Pre-sizes the decision log (the caller knows the fleet volume).
  void reserve(std::size_t expected) { log_.reserve(expected); }

  /// Every decision in call order (fleet arrival index order).
  [[nodiscard]] const std::vector<Assignment>& assignments() const {
    return log_;
  }

 private:
  /// One placement in the sliding window: routing instant plus the
  /// request's expected work, normalized to site capacity (class-aware:
  /// a batch job weighs its full service share, not "one request").
  struct Placement {
    double t = 0.0;
    double work = 0.0;  ///< site-seconds: 1 / single-class capacity
  };

  [[nodiscard]] std::size_t pick(std::size_t origin, std::uint32_t cls,
                                 Seconds t);
  /// Prunes placements older than t - load_window, returns the summed
  /// normalized work still inside the window.
  double load(std::size_t site, Seconds t);

  const std::vector<Site>* sites_;
  const hw::InterSiteNetwork* network_;
  const std::vector<traffic::TrafficClass>* classes_;
  RouterOptions options_;
  /// Pairwise transit at the configured payload, row-major n x n — the
  /// topology is time-invariant, so it is sampled once at construction
  /// and the per-request path never re-derives it.
  std::vector<Seconds> transit_;
  std::vector<std::size_t> nearest_;  ///< per-origin argmin of transit_
  /// work_[site][cls]: expected site-seconds one class-`cls` request
  /// costs `site` (the inverse of the site's single-class capacity), so
  /// window work / window width is directly a utilization estimate.
  std::vector<std::vector<double>> work_;
  std::vector<std::deque<Placement>> recent_;  ///< sorted by instant
  std::vector<double> window_work_;            ///< running sum per site
  std::uint64_t rr_ = 0;
  std::vector<Assignment> log_;
};

}  // namespace hcep::fed
