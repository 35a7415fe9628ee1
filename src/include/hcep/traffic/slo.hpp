// Service-level-objective accounting for request-level runs.
//
// An SloTarget states the contract ("the 95th percentile of sojourn time
// stays below 200 ms"); LatencySummary condenses exact per-request
// samples into order-statistic percentiles (no streaming estimator —
// the simulator records every request, so p50/p95/p99 are exact); and
// ClassStats carries the full per-class ledger: offered vs admitted vs
// shed vs completed, retries, and per-request SLO violations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hcep/util/json.hpp"
#include "hcep/util/units.hpp"

namespace hcep::traffic {

/// One latency objective: quantile `quantile` of the sojourn time must
/// not exceed `latency`. Default-constructed (latency 0) means "no SLO".
struct SloTarget {
  Seconds latency{};
  double quantile = 0.95;

  [[nodiscard]] bool enabled() const { return latency.value() > 0.0; }
};

/// Order-statistic condensation of a latency sample set.
struct LatencySummary {
  std::uint64_t count = 0;
  Seconds mean{};
  Seconds p50{};
  Seconds p95{};
  Seconds p99{};
  Seconds max{};

  /// Exact percentiles of `samples_s` (seconds). Sorts the vector in
  /// place, once (not at all when it is already ascending), then takes
  /// from_sorted_runs of that one run.
  [[nodiscard]] static LatencySummary from_samples(
      std::vector<double>& samples_s);

  /// Exact summary of the union of ascending `runs` (seconds), streamed
  /// from their k-way merge: sums in merged order and keeps only the six
  /// order statistics p50/p95/p99 interpolate between, plus the last
  /// value. No buffer, and no allocation for up to 64 runs.
  /// The bytes depend only on the multiset of samples: a sorted sequence
  /// is unique up to equal values, which are bit-equal unless one is
  /// -0.0, so a tie may be taken from any run.
  [[nodiscard]] static LatencySummary from_sorted_runs(
      std::span<const std::span<const double>> runs);

  [[nodiscard]] JsonValue to_json() const;
};

/// Per-class request ledger. Conservation: offered = completed + failed +
/// in-flight-at-horizon; every shed event is either retried or counted
/// into `failed`.
struct ClassStats {
  std::string name;
  std::uint64_t offered = 0;    ///< first-attempt arrivals
  std::uint64_t admitted = 0;   ///< attempts that passed admission
  std::uint64_t shed = 0;       ///< rejected attempts (bucket or queue)
  std::uint64_t retries = 0;    ///< re-attempts scheduled after shedding
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< permanently rejected requests
  std::uint64_t slo_violations = 0;  ///< completions above the SLO latency

  SloTarget slo{};
  LatencySummary wait;
  LatencySummary service;
  LatencySummary sojourn;
  Joules energy_per_request{};  ///< cluster energy share per completion

  /// Fraction of completions that individually exceeded the SLO latency.
  [[nodiscard]] double violation_fraction() const;
  /// Whether the target quantile of the sojourn distribution met the SLO
  /// (vacuously true when the SLO is disabled or nothing completed).
  [[nodiscard]] bool slo_met() const;

  [[nodiscard]] JsonValue to_json() const;
};

}  // namespace hcep::traffic
