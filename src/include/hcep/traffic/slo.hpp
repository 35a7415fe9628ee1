// Service-level-objective accounting for request-level runs.
//
// An SloTarget states the contract ("the 95th percentile of sojourn time
// stays below 200 ms"); a LatencySketch condenses latencies as requests
// complete, in bounded memory, and LatencySummary is what it reports:
// the exact count, sum-based mean and max plus nearest-rank
// p50/p95/p99, each within the sketch's proven relative bound `epsilon`
// of the exact order statistic; and ClassStats carries the full
// per-class ledger: offered vs admitted vs shed vs completed, retries,
// and per-request SLO violations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "hcep/obs/stream.hpp"
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

/// Condensation of a latency sample set. `count` and `max` are exact and
/// `mean` is the plain sum over the count. p50/p95/p99 follow the
/// nearest-rank convention: for the order statistic x at rank
/// ceil(q * count), each lies within epsilon * x of x, and none exceeds
/// `max`.
struct LatencySummary {
  std::uint64_t count = 0;
  Seconds mean{};
  Seconds p50{};
  Seconds p95{};
  Seconds p99{};
  Seconds max{};
  /// Proven relative bound of the percentiles (0 when default-built).
  double epsilon = 0.0;

  /// Summary of `samples_s` (seconds): adds them to a LatencySketch in
  /// order, then summarizes it.
  [[nodiscard]] static LatencySummary from_samples(
      std::span<const double> samples_s);

  [[nodiscard]] JsonValue to_json() const;
};

/// Latencies folded in as they arrive: a QuantileSketch at its default
/// bound (2^-8, raised only if the values span more octaves than its
/// bucket cap holds) plus the exact sum and max. Memory stays bounded
/// however many values are added, and merging sketches gives the
/// percentiles, count and max of adding their union to one sketch; only
/// the mean moves, with the order of the sum.
class LatencySketch {
 public:
  void add(double seconds) {
    sketch_.insert(seconds);
    sum_ += seconds;
    max_ = std::max(max_, seconds);
  }
  void merge(const LatencySketch& other);

  [[nodiscard]] std::uint64_t count() const { return sketch_.count(); }
  [[nodiscard]] LatencySummary summary() const;

 private:
  obs::stream::QuantileSketch sketch_;
  double sum_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
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
