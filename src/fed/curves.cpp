#include "hcep/fed/curves.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"

namespace hcep::fed {

namespace {

/// Trapezoid area of the linear segment (t0, v0) -> (t1, v1).
double segment_area(double t0, double v0, double t1, double v1) {
  return 0.5 * (v0 + v1) * (t1 - t0);
}

}  // namespace

PiecewiseCurve::PiecewiseCurve()
    : PiecewiseCurve(Seconds{86400.0}, {{Seconds{0.0}, 0.0}}) {}

PiecewiseCurve::PiecewiseCurve(
    Seconds period, std::vector<std::pair<Seconds, double>> knots)
    : period_(period), knots_(std::move(knots)) {
  require(period_.value() > 0.0, "PiecewiseCurve: period must be positive");
  require(!knots_.empty(), "PiecewiseCurve: need at least one knot");
  for (std::size_t i = 0; i < knots_.size(); ++i) {
    require(knots_[i].first.value() >= 0.0 &&
                knots_[i].first.value() < period_.value(),
            "PiecewiseCurve: knot time outside [0, period)");
    require(knots_[i].second >= 0.0, "PiecewiseCurve: negative knot value");
    if (i > 0)
      require(knots_[i - 1].first < knots_[i].first,
              "PiecewiseCurve: knot times must be strictly increasing");
  }
  // Area over one period: the segments between knots plus the wrap
  // segment from the last knot to the first knot one period later.
  for (std::size_t i = 0; i + 1 < knots_.size(); ++i) {
    period_area_ +=
        segment_area(knots_[i].first.value(), knots_[i].second,
                     knots_[i + 1].first.value(), knots_[i + 1].second);
  }
  period_area_ += segment_area(
      knots_.back().first.value(), knots_.back().second,
      knots_.front().first.value() + period_.value(), knots_.front().second);
}

PiecewiseCurve PiecewiseCurve::flat(double value, Seconds period) {
  return PiecewiseCurve(period, {{Seconds{0.0}, value}});
}

double PiecewiseCurve::at_phase(double u) const {
  // u in [0, period). Find the segment whose start knot is the last one
  // at or before u; before the first knot we are on the wrap segment.
  const double t0 = knots_.front().first.value();
  if (knots_.size() == 1) return knots_.front().second;
  if (u < t0) {
    // Wrap segment viewed from the left: (last - period) -> first.
    const double a = knots_.back().first.value() - period_.value();
    const double b = t0;
    const double va = knots_.back().second;
    const double vb = knots_.front().second;
    return va + (vb - va) * (u - a) / (b - a);
  }
  // The segment starts at the last knot at or before u; knot times are
  // strictly increasing, so a binary search finds it.
  const auto after = std::upper_bound(
      knots_.begin(), knots_.end(), u,
      [](double v, const std::pair<Seconds, double>& knot) {
        return v < knot.first.value();
      });
  const auto i = static_cast<std::size_t>(after - knots_.begin()) - 1;
  if (i + 1 == knots_.size()) {
    // Wrap segment to the right: last -> (first + period).
    const double a = knots_.back().first.value();
    const double b = knots_.front().first.value() + period_.value();
    const double va = knots_.back().second;
    const double vb = knots_.front().second;
    if (b == a) return va;
    return va + (vb - va) * (u - a) / (b - a);
  }
  const double a = knots_[i].first.value();
  const double b = knots_[i + 1].first.value();
  const double va = knots_[i].second;
  const double vb = knots_[i + 1].second;
  return va + (vb - va) * (u - a) / (b - a);
}

double PiecewiseCurve::at(Seconds t) const {
  require(t.value() >= 0.0, "PiecewiseCurve: negative time");
  const double u = std::fmod(t.value(), period_.value());
  return at_phase(u);
}

double PiecewiseCurve::mean() const { return period_area_ / period_.value(); }

double PiecewiseCurve::prefix_integral(double u) const {
  // Trapezoid sum over [0, u]; endpoints evaluated through at_phase so
  // the wrap segments integrate exactly (the integrand is linear
  // between consecutive knot times and at the wrap boundaries).
  double area = 0.0;
  double prev_t = 0.0;
  double prev_v = at_phase(0.0);
  for (const auto& [kt, kv] : knots_) {
    const double t = kt.value();
    if (t <= prev_t) continue;
    if (t >= u) break;
    area += segment_area(prev_t, prev_v, t, kv);
    prev_t = t;
    prev_v = kv;
  }
  area += segment_area(prev_t, prev_v, u, at_phase(u == period_.value()
                                                       ? 0.0
                                                       : u));
  // at_phase(period) wraps to phase 0 by periodicity; the value there is
  // the same as at_phase(0), which the ternary above makes explicit.
  return area;
}

double PiecewiseCurve::integral(Seconds a, Seconds b) const {
  require(a.value() >= 0.0 && b.value() >= a.value(),
          "PiecewiseCurve: integral bounds must satisfy 0 <= a <= b");
  const double p = period_.value();
  const auto accumulated = [&](double t) {
    const double full = std::floor(t / p);
    return full * period_area_ + prefix_integral(t - full * p);
  };
  return accumulated(b.value()) - accumulated(a.value());
}

JsonValue PiecewiseCurve::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("period_s", JsonValue::number(period_.value()));
  JsonValue ks = JsonValue::array();
  for (const auto& [t, v] : knots_) {
    JsonValue k = JsonValue::object();
    k.set("t_s", JsonValue::number(t.value()));
    k.set("value", JsonValue::number(v));
    ks.push(std::move(k));
  }
  o.set("knots", std::move(ks));
  return o;
}

PiecewiseCurve make_diurnal_curve(double base, double swing, Seconds period,
                                  Seconds peak_at, std::uint64_t seed,
                                  double jitter, std::size_t knots) {
  require(base >= 0.0, "make_diurnal_curve: negative base");
  require(swing >= 0.0 && swing <= 1.0,
          "make_diurnal_curve: swing must lie in [0, 1]");
  require(period.value() > 0.0, "make_diurnal_curve: non-positive period");
  require(jitter >= 0.0 && jitter < 1.0,
          "make_diurnal_curve: jitter must lie in [0, 1)");
  require(knots >= 2, "make_diurnal_curve: need at least two knots");
  Rng rng(seed);
  std::vector<std::pair<Seconds, double>> pts;
  pts.reserve(knots);
  for (std::size_t k = 0; k < knots; ++k) {
    const double t =
        static_cast<double>(k) * period.value() / static_cast<double>(knots);
    const double shape =
        base * (1.0 + swing * std::cos(2.0 * std::numbers::pi *
                                       (t - peak_at.value()) /
                                       period.value()));
    const double wobble =
        jitter > 0.0 ? 1.0 + jitter * (2.0 * rng.uniform01() - 1.0) : 1.0;
    pts.emplace_back(Seconds{t}, std::max(0.0, shape * wobble));
  }
  return PiecewiseCurve(period, std::move(pts));
}

}  // namespace hcep::fed
