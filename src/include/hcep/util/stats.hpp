// Online and batch statistics used by the simulator's measurement layer:
// Welford running moments, exact percentiles from samples and the
// P-squared streaming quantile estimator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hcep {

/// Numerically stable running mean/variance (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile (linear interpolation between closest ranks) of a
/// sample set; `p` in [0, 100]. Sorts a copy; use for batch analysis.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// In-place variant for callers that can afford mutating their buffer.
[[nodiscard]] double percentile_inplace(std::vector<double>& samples, double p);

/// The rank interpolation behind both of the above, on samples already
/// sorted ascending: no copy and no sort, so one sorted buffer serves
/// any number of percentiles.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

/// Where percentile `p` of `n` ascending samples falls: between the
/// samples at ranks `lo` and `hi`, `frac` of the way. The one formula
/// percentile_sorted and traffic::LatencySummary share, so a caller that
/// visits the samples without holding them reads the same two values.
struct PercentileRank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;

  [[nodiscard]] double interpolate(double at_lo, double at_hi) const {
    return at_lo + frac * (at_hi - at_lo);
  }
};

/// Rank of percentile `p` (in [0, 100]) among `n` > 0 samples.
[[nodiscard]] PercentileRank percentile_rank(std::size_t n, double p);

/// P-squared (P2) streaming quantile estimator (Jain & Chlamtac, 1985).
/// Tracks one quantile with O(1) memory; the cluster simulator uses it for
/// 95th-percentile response times over long runs.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.95 for the 95th percentile.
  explicit P2Quantile(double q);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Current estimate; exact until 5 samples have arrived.
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::size_t count_ = 0;
  double heights_[5] = {};
  double positions_[5] = {};
  double desired_[5] = {};
  double increments_[5] = {};
};

}  // namespace hcep
