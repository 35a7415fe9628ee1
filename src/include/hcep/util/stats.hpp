// Online and batch statistics used by the simulator's measurement layer:
// Welford running moments and exact percentiles from samples.
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

}  // namespace hcep
