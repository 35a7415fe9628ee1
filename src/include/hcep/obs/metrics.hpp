// Metrics: counters, gauges and fixed-bucket histograms.
//
// The paper's methodology is measurement-first: perf counters plus a
// sampling wattmeter over every run. The simulated substrate needs the
// same discipline, but instrumentation must not perturb what it measures.
// So no hot loop writes here: the DES kernel, the cluster simulator and
// the traffic engine count their own events and add the totals once,
// when a run ends. What remains are a handful of writes per run and one
// per pool task or sweep chunk, so the registry is one mutex over one
// vector of metrics, and snapshot() copies it under that mutex: exact at
// any time.
//
// Registration (name -> id) looks the name up under the same mutex;
// call sites that write often cache the returned MetricId.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hcep/util/json.hpp"

namespace hcep::obs {

/// Handle to a registered metric; stable for the registry's lifetime.
using MetricId = std::uint32_t;

/// Copy of one histogram: `counts` has bounds.size() + 1 entries,
/// the last being the overflow bucket (values > bounds.back()).
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;  ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Count in the implicit overflow bucket — observations above
  /// bounds.back(), i.e. the Prometheus `le="+Inf"` remainder.
  [[nodiscard]] std::uint64_t overflow() const {
    return counts.empty() ? 0 : counts.back();
  }

  /// Quantile estimate for q in [0, 1], linearly interpolated within the
  /// bucket holding rank q*count. The first bucket collapses to its upper
  /// bound (no lower edge is recorded) and ranks landing in the overflow
  /// bucket return bounds.back() — both conservative, both deterministic.
  /// Returns 0 for an empty histogram. The rollup engine's p95 and the
  /// run-report latency summaries use this estimator.
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time copy of every metric, in registration order per kind.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a named counter (zero when absent).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Value of a named gauge (zero when absent).
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Named histogram, or nullptr when absent.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;

  [[nodiscard]] JsonValue to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register-or-lookup by name (locked; cache the id).
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  /// `bounds` are inclusive upper bucket edges, strictly ascending; an
  /// overflow bucket is added implicitly. Re-registration with different
  /// bounds throws.
  MetricId histogram(std::string_view name, std::vector<double> bounds);

  /// Adds `n` to a counter.
  void add(MetricId id, std::uint64_t n = 1);
  /// Last-writer-wins gauge store.
  void set(MetricId id, double value);
  /// Buckets `value` into a histogram.
  void observe(MetricId id, double value);

  /// Copies every metric under the lock; safe while writers are active.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every counter, gauge and histogram.
  void reset();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    std::uint64_t count = 0;  ///< counter value; histogram observations
    double value = 0.0;       ///< gauge value; histogram sum
    std::vector<double> bounds;          ///< histogram upper edges
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1, overflow last
  };

  MetricId find_or_register(std::string_view name, Kind kind,
                            std::vector<double> bounds);

  mutable std::mutex mutex_;
  std::vector<Metric> metrics_;  ///< indexed by MetricId
};

}  // namespace hcep::obs
