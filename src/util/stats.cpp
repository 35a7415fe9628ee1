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
  const PercentileRank r = percentile_rank(sorted.size(), p);
  if (sorted.size() == 1) return sorted.front();
  return r.interpolate(sorted[r.lo], sorted[r.hi]);
}

PercentileRank percentile_rank(std::size_t n, double p) {
  require(n > 0, "percentile: no samples");
  require(p >= 0.0 && p <= 100.0, "percentile: p out of [0, 100]");
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  PercentileRank r;
  r.lo = static_cast<std::size_t>(rank);
  r.hi = std::min(r.lo + 1, n - 1);
  r.frac = rank - static_cast<double>(r.lo);
  return r;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  require(q > 0.0 && q < 1.0, "P2Quantile: q must be in (0, 1)");
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
      desired_[0] = 1;
      desired_[1] = 1 + 2 * q_;
      desired_[2] = 1 + 4 * q_;
      desired_[3] = 3 + 2 * q_;
      desired_[4] = 5;
      increments_[0] = 0;
      increments_[1] = q_ / 2;
      increments_[2] = q_;
      increments_[3] = (1 + q_) / 2;
      increments_[4] = 1;
    }
    return;
  }
  ++count_;

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust interior markers with the parabolic (fallback: linear) formula.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double np = positions_[i + 1] - positions_[i];
    const double nm = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && np > 1.0) || (d <= -1.0 && nm < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double hp = heights_[i + 1] - heights_[i];
      const double hm = heights_[i - 1] - heights_[i];
      double candidate =
          heights_[i] + sign / (np - nm) *
                            ((sign - nm) * hp / np + (np - sign) * hm / nm);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        // Parabolic prediction left the bracket; fall back to linear.
        const int j = sign > 0 ? i + 1 : i - 1;
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  require(count_ > 0, "P2Quantile::value: no samples");
  if (count_ < 5) {
    std::vector<double> tmp(heights_, heights_ + count_);
    return percentile_inplace(tmp, q_ * 100.0);
  }
  return heights_[2];
}

}  // namespace hcep
