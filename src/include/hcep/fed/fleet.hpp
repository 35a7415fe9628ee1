// Fleet simulation: route globally, simulate per site, merge the ledgers.
//
// simulate_fleet is the federation counterpart of
// traffic::simulate_traffic. It generates each site's regional arrival
// stream from a per-origin split of one fleet seed (one task per
// origin) and merges the origin streams in time order straight into a
// GlobalRouter. One task per site takes its placements from the
// router's decision log and sorts them by landing time; then one task
// per site replays them through the assigned-arrival simulate_traffic
// overload (one event loop per site — the fleet tier owns all
// cross-site parallelism). A serial fold turns the per-site results into
// one FleetReport: fleet totals, a routes matrix, per-class END-TO-END
// latency ledgers that include WAN transit, and time-of-use energy cost
// and carbon ledgers integrated against each site's curves. Site runs are unobserved: they
// report into neither the caller's obs::Observer nor the global one.
//
// Determinism contract: for a fixed (scenario, FleetOptions::seed) the
// FleetReport JSON is byte-identical across runs and across
// FleetOptions::shards values — shards only controls whether the
// per-origin and per-site tasks run on the thread pool; every origin
// stream and every site simulation is an independent deterministic
// computation either way (tests/test_fed.cpp and the `hcep selftest
// fed` smoke pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hcep/fed/router.hpp"
#include "hcep/fed/site.hpp"
#include "hcep/hw/network.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/json.hpp"
#include "hcep/util/units.hpp"

namespace hcep::fed {

struct FleetOptions {
  /// First-attempt arrivals generated per ORIGIN site (the regional
  /// demand volume, before routing moves any of it).
  std::uint64_t requests_per_site = 10000;
  std::uint64_t seed = 1;
  /// Above 1 (with more than one site), origin generation and the site
  /// runs fan out onto the thread pool, one task per origin or site; 1
  /// runs every phase serially. Results are byte-identical for every
  /// value — unlike TrafficOptions::shards this knob never partitions
  /// an event loop.
  std::size_t shards = 1;
  RouterOptions router{};
  /// Per-site dispatch/admission/retry, shared across the fleet (the
  /// per-site control plane lives on Site::control).
  cluster::DispatchPolicy policy =
      cluster::DispatchPolicy::kJoinShortestQueue;
  traffic::AdmissionOptions admission{};
  traffic::RetryPolicy retry{};
  /// Streaming telemetry per site. Enabling it also switches the cost
  /// ledgers from mean-tariff pricing to exact per-window integration
  /// and fills FleetReport::cost_windows.
  obs::stream::StreamOptions stream{};
};

/// One tumbling window of the fleet cost ledger (streaming runs only):
/// energy, $ and gCO2e summed across sites, each site's window energy
/// priced at that site's tariff at the window midpoint. Windows align
/// across sites (every site's timeline starts at 0 with the shared
/// width), so the sum is well-defined.
struct CostWindow {
  Seconds t0{};
  Seconds t1{};
  Joules energy{};
  double cost = 0.0;      ///< $
  double carbon_g = 0.0;  ///< gCO2e

  [[nodiscard]] JsonValue to_json() const;
};

/// One site's share of the fleet run.
struct SiteReport {
  std::string name;
  std::uint64_t routed = 0;  ///< requests this site executed
  std::uint64_t local = 0;   ///< of those, originated here
  /// Site cluster energy including the idle-floor tail from its own
  /// makespan to the fleet horizon (early finishers keep drawing their
  /// idle floor until the fleet is done).
  Joules energy{};
  double energy_cost = 0.0;  ///< $, integrated against Site::price
  double carbon_g = 0.0;     ///< gCO2e, integrated against Site::carbon
  /// Full per-cluster result of the assigned-arrival replay.
  traffic::TrafficResult result;

  [[nodiscard]] JsonValue to_json() const;
};

/// Fleet-wide per-class ledger over END-TO-END latency: WAN transit to
/// the chosen site plus the site-local sojourn. SLO violations are
/// judged on that sum — a placement that saves energy but blows the
/// latency budget in transit shows up here.
struct FleetClassLedger {
  std::string name;
  traffic::SloTarget slo{};
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_violations = 0;  ///< completions with e2e above SLO
  Seconds mean_transit{};
  traffic::LatencySummary e2e;  ///< transit + sojourn, completions only

  /// Fraction of completions that individually exceeded the SLO.
  [[nodiscard]] double violation_fraction() const;

  [[nodiscard]] JsonValue to_json() const;
};

struct FleetReport {
  std::string router_policy;
  std::uint64_t seed = 0;
  Seconds horizon{};  ///< max site makespan
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cross_site = 0;  ///< requests routed away from origin

  Joules energy{};           ///< sum of site energies incl. idle tails
  double energy_cost = 0.0;  ///< $ fleet total
  double carbon_g = 0.0;     ///< gCO2e fleet total

  std::vector<SiteReport> sites;
  std::vector<FleetClassLedger> classes;
  /// routes[origin][target] = requests moved origin -> target.
  std::vector<std::vector<std::uint64_t>> routes;
  /// Streaming runs only; see CostWindow. Window sums plus the
  /// post-makespan idle tails equal the fleet totals above.
  std::vector<CostWindow> cost_windows;

  /// Deterministic JSON (insertion-ordered keys; same (scenario, seed)
  /// runs are byte-identical, for every FleetOptions::shards).
  [[nodiscard]] JsonValue to_json() const;
};

/// Runs the full federation pipeline described in the header comment.
/// Requires: at least one site, network.size() == sites.size(), every
/// site carrying an arrival process, a non-empty class mix.
[[nodiscard]] FleetReport simulate_fleet(
    const std::vector<Site>& sites, const hw::InterSiteNetwork& network,
    const std::vector<traffic::TrafficClass>& classes,
    const FleetOptions& options);

}  // namespace hcep::fed
