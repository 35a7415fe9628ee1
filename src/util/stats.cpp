#include "hcep/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "hcep/util/error.hpp"

namespace hcep {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const {
  require(n_ > 0, "RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  require(n_ > 1, "RunningStats::variance: need at least two samples");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  require(n_ > 0, "RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  require(n_ > 0, "RunningStats::max: no samples");
  return max_;
}

double percentile(std::span<const double> samples, double p) {
  std::vector<double> copy(samples.begin(), samples.end());
  return percentile_inplace(copy, p);
}

double percentile_inplace(std::vector<double>& samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  require(!sorted.empty(), "percentile: no samples");
  require(p >= 0.0 && p <= 100.0, "percentile: p out of [0, 100]");
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace hcep
