// The six workloads' inputs, built from (seed, scale) only, plus the
// correctness checks and fingerprints every rep is held to.
//
// Scale: `div` divides the work — 1 is the benchmark scale (2^20
// requests, the 64x64 configuration space), the traced run measures the
// ledger rows of the other workloads at 1/16 and the selftest runs
// everything at 1/64.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/config/space.hpp"
#include "hcep/fed/fleet.hpp"
#include "hcep/fed/site.hpp"
#include "hcep/hw/network.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/workload/demand.hpp"

namespace hcep_bench {

/// The six paper workloads (workload::paper_workloads(), the expensive
/// part of set-up: it runs the instrumented kernels).
struct Catalog {
  std::vector<hcep::workload::Workload> programs;

  [[nodiscard]] const hcep::workload::Workload& get(
      std::string_view name) const;
};
[[nodiscard]] Catalog make_catalog();

/// First-attempt requests of one traffic run at scale `div`.
[[nodiscard]] std::uint64_t scaled_requests(unsigned div);

/// One single-cluster traffic run: everything simulate_traffic takes.
struct TrafficScenario {
  hcep::model::ClusterSpec cluster;
  std::vector<hcep::traffic::TrafficClass> classes;
  std::unique_ptr<hcep::traffic::ArrivalProcess> arrivals;
  hcep::traffic::TrafficOptions options;
  double rate = 0.0;      ///< offered first-attempt rate, requests/s
  double capacity = 0.0;  ///< cluster_capacity_per_s of the class mix

  [[nodiscard]] hcep::traffic::TrafficResult run() const;
};

/// 4 A9 + 2 K10, EP, Poisson at 0.7x capacity, JSQ.
[[nodiscard]] TrafficScenario open_loop(const Catalog& catalog,
                                        std::uint64_t seed, unsigned div);
/// The same cluster, EP 0.7 + x264 0.3 with SLOs of 20x mean service,
/// Poisson at 1.05x capacity, token bucket at 0.95x (burst 64), queue
/// depth 128, 3 attempts with backoff 2/capacity.
[[nodiscard]] TrafficScenario overload_retry(const Catalog& catalog,
                                             std::uint64_t seed,
                                             unsigned div);
/// The same cluster, EP, diurnal arrivals (mean 0.6x capacity, swing
/// 0.8, period span/4), power gating ticking every 50 requests' worth
/// of time, stream windows of span/256, request records on.
[[nodiscard]] TrafficScenario power_gated_observed(const Catalog& catalog,
                                                   std::uint64_t seed,
                                                   unsigned div);
/// 8 A9 + 4 K10, EP, Poisson at 0.7x capacity, 4 event-loop shards.
[[nodiscard]] TrafficScenario sharded_scaling(const Catalog& catalog,
                                              std::uint64_t seed,
                                              unsigned div);

/// Everything simulate_fleet takes.
struct FleetScenario {
  std::vector<hcep::fed::Site> sites;
  hcep::hw::InterSiteNetwork network;
  std::vector<hcep::traffic::TrafficClass> classes;
  hcep::fed::FleetOptions options;

  [[nodiscard]] hcep::fed::FleetReport run() const;
};

/// 3 K10 sites (4/2/2 nodes), phase-shifted diurnal demand, memcached
/// (tight SLO) + x264 (loose SLO), slo-hybrid router, 10 ms WAN, the
/// site simulations fanned out onto the pool (shards = 3).
[[nodiscard]] FleetScenario fleet_hybrid(const Catalog& catalog,
                                         std::uint64_t seed, unsigned div);
/// `s`'s demand, cluster, control and stream settings as a one-site
/// fleet (nearest routing: every placement local).
[[nodiscard]] FleetScenario single_site(const TrafficScenario& s);

/// The paper's configuration sweep at 40x the footnote-4 space.
struct SweepScenario {
  hcep::config::ConfigSpace space;
  /// The six paper programs, each at a seed-drawn input scale.
  std::vector<hcep::workload::Workload> programs;
  /// Per program: deadline of the min-energy pick, as a multiple of the
  /// fastest configuration's time (seed-drawn).
  std::vector<double> deadline_factor;
};
[[nodiscard]] SweepScenario sweep_pareto(const Catalog& catalog,
                                         std::uint64_t seed, unsigned div);

/// One program's sweep output.
struct SweepResult {
  hcep::config::EvaluationSet set;
  std::vector<hcep::config::Evaluation> front;
  std::optional<hcep::config::Evaluation> pick;
  hcep::Seconds deadline{};
};

// ---- correctness ------------------------------------------------------

/// Ledger conservation: completed + failed == offered == `offered`, and
/// the per-class ledgers sum to the totals.
[[nodiscard]] Verdict check(const hcep::traffic::TrafficResult& r,
                            std::uint64_t offered);
/// Fleet conservation: totals, per-site and per-class sums, routes.
[[nodiscard]] Verdict check(const hcep::fed::FleetReport& r,
                            std::uint64_t offered);
/// Front sorted by time with strictly falling energy, no member
/// dominated by any evaluated configuration, pick within its deadline.
[[nodiscard]] Verdict check(const SweepResult& r);

/// FNV-1a of the deterministic result documents.
[[nodiscard]] std::uint64_t fingerprint(const hcep::traffic::TrafficResult& r);
[[nodiscard]] std::uint64_t fingerprint(const hcep::fed::FleetReport& r);
[[nodiscard]] std::uint64_t fingerprint(const SweepResult& r,
                                        std::uint64_t h);

}  // namespace hcep_bench
