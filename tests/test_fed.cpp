// hcep::fed — multi-site federation with energy/carbon-aware routing.
//
// Keystone: a 3-site fleet with phase-shifted diurnal demand, tariffs
// peaking with local load and a capacity-heterogeneous site mix. The
// SLO-aware hybrid router must beat every single-site (pinned) baseline
// AND the static round-robin baseline on BOTH total energy cost and
// per-class end-to-end p99 — the federation counterpart of the paper's
// claim that heterogeneity-aware placement dominates static policies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "hcep/fed/curves.hpp"
#include "hcep/fed/fleet.hpp"
#include "hcep/fed/router.hpp"
#include "hcep/fed/site.hpp"
#include "hcep/hw/network.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::fed;

const workload::Workload& wl(const std::string& name) {
  static const auto kCatalog = workload::paper_workloads();
  for (const auto& w : kCatalog)
    if (w.name == name) return w;
  throw std::runtime_error("missing workload " + name);
}

// ------------------------------------------------------------- curves

TEST(Curves, FlatCurveIsConstantEverywhere) {
  const auto c = PiecewiseCurve::flat(0.25);
  EXPECT_DOUBLE_EQ(c.at(Seconds{0.0}), 0.25);
  EXPECT_DOUBLE_EQ(c.at(Seconds{12345.0}), 0.25);
  EXPECT_DOUBLE_EQ(c.mean(), 0.25);
  EXPECT_NEAR(c.integral(Seconds{10.0}, Seconds{110.0}), 25.0, 1e-9);
}

TEST(Curves, InterpolatesAndWrapsPeriodically) {
  // Two knots on a 100 s period: 1.0 at t=10, 3.0 at t=60. Linear in
  // between, linear again across the wrap (60 -> 110==10).
  const PiecewiseCurve c(Seconds{100.0},
                         {{Seconds{10.0}, 1.0}, {Seconds{60.0}, 3.0}});
  EXPECT_DOUBLE_EQ(c.at(Seconds{10.0}), 1.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{35.0}), 2.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{60.0}), 3.0);
  EXPECT_DOUBLE_EQ(c.at(Seconds{85.0}), 2.0);  // halfway down the wrap
  // Periodicity: any t and t + period agree.
  for (const double t : {0.0, 7.5, 42.0, 99.0})
    EXPECT_DOUBLE_EQ(c.at(Seconds{t}), c.at(Seconds{t + 100.0})) << t;
}

TEST(Curves, IntegralIsAdditiveAndMatchesMeanOverFullPeriods) {
  const PiecewiseCurve c(Seconds{100.0},
                         {{Seconds{10.0}, 1.0}, {Seconds{60.0}, 3.0}});
  const double full = c.integral(Seconds{0.0}, Seconds{100.0});
  EXPECT_NEAR(full, c.mean() * 100.0, 1e-9);
  EXPECT_NEAR(c.integral(Seconds{0.0}, Seconds{300.0}), 3.0 * full, 1e-9);
  // Additivity over an awkward split straddling a wrap.
  const double a = c.integral(Seconds{35.0}, Seconds{95.0});
  const double b = c.integral(Seconds{95.0}, Seconds{135.0});
  EXPECT_NEAR(a + b, c.integral(Seconds{35.0}, Seconds{135.0}), 1e-9);
}

TEST(Curves, DiurnalCurveIsSeedDeterministicAndPeaksWhereAsked) {
  const Seconds period{86400.0};
  const auto a = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                    /*seed=*/7, /*jitter=*/0.05);
  const auto b = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                    /*seed=*/7, /*jitter=*/0.05);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const auto other = make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0},
                                        /*seed=*/8, /*jitter=*/0.05);
  EXPECT_NE(a.to_json().dump(), other.to_json().dump());
  // Without jitter the curve peaks at peak_at and troughs half a period
  // away.
  const auto clean =
      make_diurnal_curve(0.10, 0.8, period, Seconds{43200.0}, 7);
  EXPECT_NEAR(clean.at(Seconds{43200.0}), 0.18, 1e-9);
  EXPECT_NEAR(clean.at(Seconds{0.0}), 0.02, 1e-6);
  EXPECT_GT(clean.at(Seconds{43200.0}), clean.at(Seconds{20000.0}));
}

TEST(Curves, RejectsMalformedKnots) {
  EXPECT_THROW(PiecewiseCurve(Seconds{0.0}, {{Seconds{0.0}, 1.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {}), PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {{Seconds{12.0}, 1.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0},
                              {{Seconds{5.0}, 1.0}, {Seconds{5.0}, 2.0}}),
               PreconditionError);
  EXPECT_THROW(PiecewiseCurve(Seconds{10.0}, {{Seconds{1.0}, -0.5}}),
               PreconditionError);
}

// PiecewiseCurve::at finds its segment by binary search. The oracle
// finds it by a linear scan and interpolates with the same arithmetic,
// so the two agree exactly (==), not approximately.
double linear_scan_at(const PiecewiseCurve& c, double t) {
  const auto& k = c.knots();
  const double p = c.period().value();
  const double u = std::fmod(t, p);
  const auto lerp = [u](double a, double va, double b, double vb) {
    return va + (vb - va) * (u - a) / (b - a);
  };
  if (k.size() == 1) return k.front().second;
  if (u < k.front().first.value())
    return lerp(k.back().first.value() - p, k.back().second,
                k.front().first.value(), k.front().second);
  std::size_t i = 0;
  while (i + 1 < k.size() && k[i + 1].first.value() <= u) ++i;
  if (i + 1 == k.size())
    return lerp(k.back().first.value(), k.back().second,
                k.front().first.value() + p, k.front().second);
  return lerp(k[i].first.value(), k[i].second, k[i + 1].first.value(),
              k[i + 1].second);
}

TEST(Curves, AtMatchesALinearScanOracle) {
  // Irregular knots with the first one after 0, so both wrap segments
  // (before the first knot, after the last) are nonempty.
  const PiecewiseCurve c(Seconds{100.0}, {{Seconds{3.0}, 0.40},
                                          {Seconds{4.5}, 0.10},
                                          {Seconds{20.0}, 0.75},
                                          {Seconds{21.0}, 0.75},
                                          {Seconds{57.25}, 0.05},
                                          {Seconds{90.0}, 0.30}});
  std::vector<double> phases = {0.0, 1.5, 2.999, 95.0, 99.999};
  const auto& k = c.knots();
  for (std::size_t i = 0; i < k.size(); ++i) {
    const double a = k[i].first.value();
    phases.push_back(a);
    const double b = i + 1 < k.size() ? k[i + 1].first.value() : 100.0;
    for (const double f : {0.25, 0.5, 0.999}) phases.push_back(a + f * (b - a));
  }
  for (const double cycles : {0.0, 1.0, 2.0, 7.0})
    for (const double u : phases) {
      const double t = u + cycles * 100.0;
      EXPECT_EQ(c.at(Seconds{t}), linear_scan_at(c, t)) << "t = " << t;
    }
  const auto diurnal = make_diurnal_curve(0.10, 0.8, Seconds{86400.0},
                                          Seconds{43200.0}, 9, 0.05);
  for (double t = 0.0; t < 4.0 * 86400.0; t += 977.0)
    EXPECT_EQ(diurnal.at(Seconds{t}), linear_scan_at(diurnal, t))
        << "t = " << t;
}

// ------------------------------------------------------------ network

TEST(InterSiteNetwork, TransitIsZeroOnDiagonalAndLatencyPlusTransfer) {
  auto net = hw::InterSiteNetwork::uniform(3, Seconds{0.04},
                                           BytesPerSecond{1.0e6});
  EXPECT_DOUBLE_EQ(net.transit(1, 1, Bytes{1.0e6}).value(), 0.0);
  EXPECT_NEAR(net.transit(0, 2, Bytes{1.0e6}).value(), 1.04, 1e-12);
  // Zero bandwidth = unconstrained: latency only.
  auto flat = hw::InterSiteNetwork::uniform(3, Seconds{0.04},
                                            BytesPerSecond{0.0});
  EXPECT_NEAR(flat.transit(0, 2, Bytes{1.0e9}).value(), 0.04, 1e-12);
}

TEST(InterSiteNetwork, DirectedLinksAndValidation) {
  hw::InterSiteNetwork net(2);
  net.set_directed_link(0, 1, {Seconds{0.1}, BytesPerSecond{0.0}});
  EXPECT_NEAR(net.transit(0, 1, Bytes{0.0}).value(), 0.1, 1e-12);
  EXPECT_NEAR(net.transit(1, 0, Bytes{0.0}).value(), 0.0, 1e-12);
  EXPECT_THROW(net.set_link(0, 0, {}), PreconditionError);
  EXPECT_THROW((void)net.link(0, 5), PreconditionError);
  EXPECT_THROW(hw::InterSiteNetwork(0), PreconditionError);
}

// --------------------------------------------- diurnal phase offsets

// Satellite property: two diurnal processes whose peak offsets differ
// by half a period see anti-correlated windowed load; a full-period
// offset restores positive correlation.
double windowed_correlation(const traffic::ArrivalProcess& a,
                            const traffic::ArrivalProcess& b,
                            Seconds window, std::size_t windows) {
  const auto count = [&](const traffic::ArrivalProcess& p,
                         std::uint64_t seed) {
    auto gen = p.clone();
    Rng rng(seed);
    std::vector<double> counts(windows, 0.0);
    Seconds t{0.0};
    while (true) {
      t = gen->next(t, rng);
      const auto w =
          static_cast<std::size_t>(t.value() / window.value());
      if (!std::isfinite(t.value()) || w >= windows) break;
      counts[w] += 1.0;
    }
    return counts;
  };
  const auto xs = count(a, 11);
  const auto ys = count(b, 22);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < windows; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(windows);
  my /= static_cast<double>(windows);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < windows; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

TEST(DiurnalOffset, HalfPeriodOffsetAntiCorrelatesWindowedArrivals) {
  const Seconds period{240.0};
  const double rate = 40.0;
  const double swing = 0.9;
  const auto base = traffic::make_diurnal(rate, swing, period, Seconds{0.0});
  const auto shifted =
      traffic::make_diurnal(rate, swing, period, Seconds{120.0});
  const auto aligned =
      traffic::make_diurnal(rate, swing, period, Seconds{240.0});
  // 48 windows of 20 s = 4 full periods, ~800 arrivals per window set.
  const double anti =
      windowed_correlation(*base, *shifted, Seconds{20.0}, 48);
  const double pro =
      windowed_correlation(*base, *aligned, Seconds{20.0}, 48);
  EXPECT_LT(anti, -0.5) << "12h-offset sites should anti-correlate";
  EXPECT_GT(pro, 0.5) << "24h-offset sites should correlate";
}

TEST(DiurnalOffset, OffsetShiftsTheProfileLater) {
  // The Seconds overload is documented as rate(t) = unshifted(t - off):
  // the offset process at t == the base process at t - off. Compare
  // windowed counts of base vs shifted-by-quarter against each other
  // shifted by a quarter period.
  const Seconds period{200.0};
  const auto base =
      traffic::make_diurnal(30.0, 0.9, period, Seconds{0.0});
  const auto quarter =
      traffic::make_diurnal(30.0, 0.9, period, Seconds{50.0});
  auto count = [&](const traffic::ArrivalProcess& p) {
    auto gen = p.clone();
    Rng rng(5);
    std::vector<double> counts(40, 0.0);
    Seconds t{0.0};
    while (true) {
      t = gen->next(t, rng);
      const auto w = static_cast<std::size_t>(t.value() / 10.0);
      if (!std::isfinite(t.value()) || w >= counts.size()) break;
      counts[w] += 1.0;
    }
    return counts;
  };
  const auto b = count(*base);
  const auto q = count(*quarter);
  // windows are 10 s, the shift is 5 windows; correlate b[i] vs q[i+5].
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  double mb = 0.0, mq = 0.0;
  const std::size_t n = 35;
  for (std::size_t i = 0; i < n; ++i) {
    mb += b[i];
    mq += q[i + 5];
  }
  mb /= static_cast<double>(n);
  mq /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (b[i] - mb) * (q[i + 5] - mq);
    sxx += (b[i] - mb) * (b[i] - mb);
    syy += (q[i + 5] - mq) * (q[i + 5] - mq);
  }
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.5);
}

// ------------------------------------- assigned-arrival traffic path

TEST(AssignedArrivals, ReplaysExplicitStreamAndRecordsOutcomes) {
  const auto cluster = model::make_a9_k10_cluster(0, 2);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 1.0, traffic::SloTarget{}}};
  std::vector<traffic::Arrival> arrivals;
  for (std::uint64_t k = 0; k < 500; ++k)
    arrivals.push_back({Seconds{0.01 * static_cast<double>(k)}, 0});
  traffic::TrafficOptions options;
  options.record_requests = true;
  const auto r = simulate_traffic(cluster, classes, arrivals, options);
  EXPECT_EQ(r.arrival_process, "assigned");
  EXPECT_EQ(r.offered, 500u);
  EXPECT_EQ(r.completed, 500u);
  ASSERT_EQ(r.requests.size(), 500u);
  for (std::size_t k = 0; k < r.requests.size(); ++k) {
    EXPECT_EQ(r.requests[k].index, k);
    EXPECT_EQ(r.requests[k].failed, 0u);
    EXPECT_GT(r.requests[k].sojourn.value(), 0.0);
  }
}

TEST(AssignedArrivals, ValidatesShardsOrderAndClasses) {
  const auto cluster = model::make_a9_k10_cluster(0, 1);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("memcached"), 1.0, traffic::SloTarget{}}};
  traffic::TrafficOptions options;
  options.shards = 2;
  const std::vector<traffic::Arrival> ok = {{Seconds{0.0}, 0},
                                            {Seconds{1.0}, 0}};
  EXPECT_THROW((void)simulate_traffic(cluster, classes, ok, options),
               PreconditionError);
  options.shards = 1;
  const std::vector<traffic::Arrival> unsorted = {{Seconds{1.0}, 0},
                                                  {Seconds{0.0}, 0}};
  EXPECT_THROW((void)simulate_traffic(cluster, classes, unsorted, options),
               PreconditionError);
  const std::vector<traffic::Arrival> bad_class = {{Seconds{0.0}, 3}};
  EXPECT_THROW(
      (void)simulate_traffic(cluster, classes, bad_class, options),
      PreconditionError);
  // Empty streams are legal (a pinned fleet routes zero requests to
  // the non-pinned sites).
  const auto r = simulate_traffic(cluster, classes, {}, options);
  EXPECT_EQ(r.offered, 0u);
  EXPECT_EQ(r.completed, 0u);
}

TEST(AssignedArrivals, RecordingIsObservational) {
  // record_requests must not perturb the core result document.
  const auto cluster = model::make_a9_k10_cluster(0, 2);
  const std::vector<traffic::TrafficClass> classes = {
      {wl("EP"), 1.0, traffic::SloTarget{}}};
  traffic::TrafficOptions options;
  options.requests = 4000;
  options.seed = 99;
  const auto off =
      simulate_traffic(cluster, classes, *traffic::make_poisson(40.0),
                       options);
  options.record_requests = true;
  const auto on =
      simulate_traffic(cluster, classes, *traffic::make_poisson(40.0),
                       options);
  EXPECT_EQ(off.to_json().dump(), on.to_json().dump());
  EXPECT_TRUE(off.requests.empty());
  EXPECT_EQ(on.requests.size(), 4000u);
  // Records cover every request exactly once, sorted by arrival index.
  for (std::size_t k = 0; k < on.requests.size(); ++k)
    EXPECT_EQ(on.requests[k].index, k);
}

// ------------------------------------------------------------- router

struct RouterFixture {
  std::vector<Site> sites;
  hw::InterSiteNetwork network;
  std::vector<traffic::TrafficClass> classes;

  explicit RouterFixture(Seconds latency = Seconds{0.04}) {
    for (int s = 0; s < 3; ++s) {
      Site site;
      site.name = "site" + std::to_string(s);
      site.cluster = model::make_a9_k10_cluster(0, 2);
      site.arrivals = traffic::make_poisson(10.0);
      site.price = PiecewiseCurve::flat(0.10);
      site.carbon = PiecewiseCurve::flat(400.0);
      sites.push_back(std::move(site));
    }
    network = hw::InterSiteNetwork::uniform(3, latency,
                                            BytesPerSecond{0.0});
    classes = {{wl("memcached"), 1.0,
                traffic::SloTarget{Seconds{0.08}, 0.99}}};
  }
};

TEST(GlobalRouter, PinnedAndRoundRobinAreStatic) {
  RouterFixture fx;
  RouterOptions pinned;
  pinned.policy = RoutePolicy::kPinned;
  pinned.pinned_site = 2;
  GlobalRouter router(fx.sites, fx.network, fx.classes, pinned);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(router.route(0, 0, Seconds{0.1 * k}).target, 2u);

  RouterOptions rr;
  rr.policy = RoutePolicy::kRoundRobin;
  GlobalRouter rrr(fx.sites, fx.network, fx.classes, rr);
  for (int k = 0; k < 6; ++k)
    EXPECT_EQ(rrr.route(1, 0, Seconds{0.1 * k}).target,
              static_cast<std::uint32_t>(k % 3));
}

TEST(GlobalRouter, NearestStaysLocalAndHybridHonorsTransitGate) {
  RouterFixture fx;
  RouterOptions nearest;
  nearest.policy = RoutePolicy::kNearest;
  GlobalRouter router(fx.sites, fx.network, fx.classes, nearest);
  EXPECT_EQ(router.route(1, 0, Seconds{0.0}).target, 1u);
  EXPECT_DOUBLE_EQ(router.route(1, 0, Seconds{0.1}).transit.value(), 0.0);

  // Hybrid: SLO 0.08 s, slack 0.25 -> remote feasible only under 0.02 s
  // transit; the 0.04 s WAN excludes every remote site, so the class
  // stays local regardless of price.
  RouterOptions hybrid;
  hybrid.policy = RoutePolicy::kSloHybrid;
  hybrid.transit_slack = 0.25;
  GlobalRouter h(fx.sites, fx.network, fx.classes, hybrid);
  for (int k = 0; k < 10; ++k)
    EXPECT_EQ(h.route(2, 0, Seconds{0.01 * k}).target, 2u);
}

TEST(GlobalRouter, CheapestEnergyChasesTheTariffTrough) {
  RouterFixture fx;
  fx.sites[0].price = PiecewiseCurve::flat(0.30);
  fx.sites[1].price = PiecewiseCurve::flat(0.05);
  fx.sites[2].price = PiecewiseCurve::flat(0.20);
  RouterOptions cheap;
  cheap.policy = RoutePolicy::kCheapestEnergy;
  GlobalRouter router(fx.sites, fx.network, fx.classes, cheap);
  EXPECT_EQ(router.route(0, 0, Seconds{0.0}).target, 1u);
  fx.sites[1].carbon = PiecewiseCurve::flat(800.0);
  fx.sites[2].carbon = PiecewiseCurve::flat(100.0);
  RouterOptions green;
  green.policy = RoutePolicy::kLowestCarbon;
  GlobalRouter greener(fx.sites, fx.network, fx.classes, green);
  EXPECT_EQ(greener.route(0, 0, Seconds{0.0}).target, 2u);
}

TEST(GlobalRouter, HybridFallsBackToTheLeastLoadedSiteOverHeadroom) {
  // A 1 ms WAN passes the transit gate everywhere, and a headroom below
  // any single placement's load puts every site over it. Neither the
  // cheapest site (2) nor the origin (1) wins: the least-loaded site
  // does, the lowest index among equals.
  RouterFixture fx(Seconds{0.001});
  fx.sites[2].price = PiecewiseCurve::flat(0.01);
  RouterOptions hybrid;
  hybrid.policy = RoutePolicy::kSloHybrid;
  hybrid.headroom = 1e-9;
  GlobalRouter router(fx.sites, fx.network, fx.classes, hybrid);
  for (int k = 0; k < 6; ++k)
    EXPECT_EQ(router.route(1, 0, Seconds{0.001 * k}).target,
              static_cast<std::uint32_t>(k % 3))
        << "placement " << k;
}

TEST(GlobalRouter, HybridBreaksPriceTiesOnTransitThenIndex) {
  // The origin (0) is dearest; sites 1 and 2 share the cheap price, so
  // the lower transit decides, and on equal transit the lower index.
  RouterFixture fx;
  fx.sites[0].price = PiecewiseCurve::flat(0.30);
  RouterOptions hybrid;
  hybrid.policy = RoutePolicy::kSloHybrid;
  hw::InterSiteNetwork closer_two(3);
  closer_two.set_directed_link(0, 1, {Seconds{0.010}, BytesPerSecond{0.0}});
  closer_two.set_directed_link(0, 2, {Seconds{0.005}, BytesPerSecond{0.0}});
  GlobalRouter by_transit(fx.sites, closer_two, fx.classes, hybrid);
  EXPECT_EQ(by_transit.route(0, 0, Seconds{0.0}).target, 2u);

  hw::InterSiteNetwork equal(3);
  equal.set_directed_link(0, 1, {Seconds{0.005}, BytesPerSecond{0.0}});
  equal.set_directed_link(0, 2, {Seconds{0.005}, BytesPerSecond{0.0}});
  GlobalRouter by_index(fx.sites, equal, fx.classes, hybrid);
  EXPECT_EQ(by_index.route(0, 0, Seconds{0.0}).target, 1u);
}

TEST(GlobalRouter, HybridStaysAtTheOriginWhenTransitExcludesEveryRemote) {
  // 40 ms > 0.25 x the 80 ms SLO: no remote site qualifies. The origin
  // is the dearest site and over headroom, and still takes the request.
  RouterFixture fx;
  fx.sites[1].price = PiecewiseCurve::flat(0.80);
  fx.sites[0].price = PiecewiseCurve::flat(0.01);
  fx.sites[2].price = PiecewiseCurve::flat(0.01);
  RouterOptions hybrid;
  hybrid.policy = RoutePolicy::kSloHybrid;
  hybrid.headroom = 1e-9;
  GlobalRouter router(fx.sites, fx.network, fx.classes, hybrid);
  for (int k = 0; k < 4; ++k) {
    const Assignment a = router.route(1, 0, Seconds{0.01 * k});
    EXPECT_EQ(a.target, 1u);
    EXPECT_EQ(a.transit.value(), 0.0);
  }
}

TEST(GlobalRouter, ParsePolicyRoundTripsAndRejectsUnknown) {
  for (const RoutePolicy p :
       {RoutePolicy::kNearest, RoutePolicy::kRoundRobin, RoutePolicy::kPinned,
        RoutePolicy::kCheapestEnergy, RoutePolicy::kLowestCarbon,
        RoutePolicy::kSloHybrid})
    EXPECT_EQ(parse_route_policy(route_policy_name(p)), p);
  EXPECT_THROW((void)parse_route_policy("teleport"), PreconditionError);
}

// -------------------------------------------------------------- fleet

/// The keystone scenario: three time zones, one fleet.
///
/// Site "alpha" is a brawny region (4 K10 nodes); "beta" and "gamma"
/// are half its size. Each region's demand is diurnal with peaks a
/// third of a (compressed) day apart, and each region's tariff and
/// carbon curves peak with its local load — busy hours are expensive
/// hours. Interactive traffic (memcached, tight SLO) cannot afford the
/// WAN; batch (x264, loose SLO, energy-dominant) can.
struct FleetScenario {
  std::vector<Site> sites;
  hw::InterSiteNetwork network;
  std::vector<traffic::TrafficClass> classes;
  FleetOptions options;
  Seconds period{};

  explicit FleetScenario(std::uint64_t requests_per_site = 1500) {
    const std::vector<unsigned> k10 = {4, 2, 2};
    const char* names[] = {"alpha", "beta", "gamma"};

    // Services and SLOs derived from the catalog so the scenario stays
    // valid if the workload constants move.
    const auto probe = model::make_a9_k10_cluster(0, 1);
    const std::vector<traffic::TrafficClass> mc_only = {
        {wl("memcached"), 1.0, {}}};
    const std::vector<traffic::TrafficClass> x264_only = {
        {wl("x264"), 1.0, {}}};
    const Seconds s_i{1.0 / traffic::cluster_capacity_per_s(probe, mc_only)};
    const Seconds s_b{1.0 /
                      traffic::cluster_capacity_per_s(probe, x264_only)};

    const Seconds slo_i{12.0 * s_i.value()};
    const Seconds slo_b{40.0 * s_b.value()};
    classes = {{wl("memcached"), 0.80, traffic::SloTarget{slo_i, 0.95}},
               {wl("x264"), 0.20, traffic::SloTarget{slo_b, 0.95}}};

    // WAN: half the interactive SLO — the hybrid's transit gate
    // (slack 0.25) excludes remote sites for interactive traffic.
    network = hw::InterSiteNetwork::uniform(3, Seconds{0.5 * slo_i.value()},
                                            BytesPerSecond{0.0});

    // Demand: equal volume per region at ~55% of FLEET capacity, so
    // round-robin (capacity-blind) overdrives the half-size regions.
    double fleet_capacity = 0.0;
    for (const unsigned n : k10)
      fleet_capacity += traffic::cluster_capacity_per_s(
          model::make_a9_k10_cluster(0, n), classes);
    const double site_rate = 0.55 * fleet_capacity / 3.0;
    period = Seconds{static_cast<double>(requests_per_site) / site_rate};

    for (std::size_t s = 0; s < 3; ++s) {
      Site site;
      site.name = names[s];
      site.cluster = model::make_a9_k10_cluster(0, k10[s]);
      site.rack_budget = site.cluster.nameplate_power();
      const Seconds offset{period.value() * static_cast<double>(s) / 3.0};
      site.arrivals =
          traffic::make_diurnal(site_rate, 0.85, period, offset);
      // The sinusoidal load peaks a quarter period after its offset;
      // align the tariff peak with the load peak.
      const Seconds price_peak{offset.value() + 0.25 * period.value()};
      site.price = make_diurnal_curve(0.10, 0.8, period, price_peak,
                                      /*seed=*/100 + s, /*jitter=*/0.03);
      site.carbon = make_diurnal_curve(420.0, 0.6, period, price_peak,
                                       /*seed=*/200 + s, /*jitter=*/0.03);
      sites.push_back(std::move(site));
    }

    options.requests_per_site = requests_per_site;
    options.seed = 20260809;
    options.stream.window = Seconds{period.value() / 48.0};
    options.router.policy = RoutePolicy::kSloHybrid;
    options.router.headroom = 0.60;
    options.router.transit_slack = 0.25;
    // Short relative to the diurnal ramp: the router only sees arrivals
    // (placement is a pre-pass, no completion feedback), so a long
    // window lags the ramp and lets backlog build before the headroom
    // gate reacts.
    options.router.load_window = Seconds{6.0 * s_b.value()};
  }

  [[nodiscard]] FleetReport run(RoutePolicy policy,
                                std::size_t pinned = 0) const {
    FleetOptions o = options;
    o.router.policy = policy;
    o.router.pinned_site = pinned;
    return simulate_fleet(sites, network, classes, o);
  }
};

TEST(Fleet, KeystoneHybridBeatsPinnedAndRoundRobin) {
  const FleetScenario scenario;
  const FleetReport hybrid = scenario.run(RoutePolicy::kSloHybrid);

  ASSERT_EQ(hybrid.sites.size(), 3u);
  ASSERT_EQ(hybrid.classes.size(), 2u);
  EXPECT_EQ(hybrid.offered, 3u * scenario.options.requests_per_site);
  EXPECT_EQ(hybrid.completed + hybrid.failed, hybrid.offered);

  std::vector<std::pair<std::string, FleetReport>> baselines;
  baselines.emplace_back("round-robin",
                         scenario.run(RoutePolicy::kRoundRobin));
  for (std::size_t s = 0; s < 3; ++s)
    baselines.emplace_back("pinned:" + scenario.sites[s].name,
                           scenario.run(RoutePolicy::kPinned, s));

  for (const auto& [name, baseline] : baselines) {
    EXPECT_LT(hybrid.energy_cost, baseline.energy_cost)
        << "hybrid should be cheaper than " << name;
    for (std::size_t c = 0; c < hybrid.classes.size(); ++c) {
      EXPECT_LT(hybrid.classes[c].e2e.p99.value(),
                baseline.classes[c].e2e.p99.value())
          << "class " << hybrid.classes[c].name << " p99 vs " << name;
      EXPECT_LE(hybrid.classes[c].violation_fraction(),
                baseline.classes[c].violation_fraction())
          << "class " << hybrid.classes[c].name << " violations vs "
          << name;
    }
  }

  // The win comes from actually using the federation: the hybrid must
  // move batch work across sites, and interactive must stay local
  // (zero transit) under the SLO gate.
  EXPECT_GT(hybrid.cross_site, 0u);
  EXPECT_DOUBLE_EQ(hybrid.classes[0].mean_transit.value(), 0.0);
  EXPECT_GT(hybrid.classes[1].mean_transit.value(), 0.0);
}

TEST(Fleet, ReportIsByteDeterministicAcrossRunsAndShards) {
  const FleetScenario scenario(600);
  const FleetReport a = scenario.run(RoutePolicy::kSloHybrid);
  const FleetReport b = scenario.run(RoutePolicy::kSloHybrid);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());

  FleetOptions sharded = scenario.options;
  sharded.shards = 4;
  const FleetReport c = simulate_fleet(scenario.sites, scenario.network,
                                       scenario.classes, sharded);
  EXPECT_EQ(a.to_json().dump(), c.to_json().dump());
  // Per-site traffic results are unchanged 1 vs N shards.
  for (std::size_t s = 0; s < a.sites.size(); ++s)
    EXPECT_EQ(a.sites[s].result.to_json().dump(),
              c.sites[s].result.to_json().dump());
}

TEST(Fleet, SiteRunsReportToNoObserver) {
  // Sites run under the null sink: neither the caller's thread-local
  // observer nor the global fallback sees their traffic or DES
  // instrumentation, whether the sites run inline or on pool threads.
  const FleetScenario scenario(300);
  // Static: an idle pool worker keeps the global sink it read before it
  // began to wait (ThreadPool::worker_loop) and books its next wait to
  // it, so this observer must outlive every later pool task.
  static obs::Observer global;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    obs::Observer local;
    obs::set_global(&global);
    {
      const obs::ScopedObserver install(local);
      FleetOptions options = scenario.options;
      options.shards = shards;
      (void)simulate_fleet(scenario.sites, scenario.network,
                           scenario.classes, options);
    }
    obs::set_global(nullptr);
    for (const obs::Observer* o : {&local, &global}) {
      const obs::MetricsSnapshot snap = o->metrics.snapshot();
      for (const auto& [name, value] : snap.counters)
        EXPECT_FALSE(name.starts_with("traffic.") || name.starts_with("des."))
            << name << " at shards " << shards;
      for (const obs::TraceEvent& ev : o->tracer.events())
        EXPECT_NE(o->tracer.string_at(ev.category), "traffic")
            << "at shards " << shards;
    }
  }
}

TEST(Fleet, LedgersConserveAndCostWindowsSumToTotals) {
  const FleetScenario scenario(600);
  const FleetReport r = scenario.run(RoutePolicy::kSloHybrid);

  // Request conservation: routes row sums = per-origin demand; routed
  // column sums = per-site offered; class ledgers cover everything.
  std::uint64_t routed_total = 0;
  for (std::size_t o = 0; o < 3; ++o) {
    std::uint64_t row = 0;
    for (std::size_t t = 0; t < 3; ++t) row += r.routes[o][t];
    EXPECT_EQ(row, scenario.options.requests_per_site);
  }
  for (std::size_t t = 0; t < 3; ++t) {
    std::uint64_t col = 0;
    for (std::size_t o = 0; o < 3; ++o) col += r.routes[o][t];
    EXPECT_EQ(col, r.sites[t].routed);
    routed_total += col;
  }
  EXPECT_EQ(routed_total, r.offered);
  std::uint64_t class_total = 0;
  for (const auto& c : r.classes) class_total += c.completed + c.failed;
  EXPECT_EQ(class_total, r.completed + r.failed);

  // Fleet totals = site sums; window sums + idle tails = totals.
  double site_cost = 0.0, site_carbon = 0.0, site_energy = 0.0;
  for (const auto& s : r.sites) {
    site_cost += s.energy_cost;
    site_carbon += s.carbon_g;
    site_energy += s.energy.value();
  }
  EXPECT_NEAR(r.energy_cost, site_cost, 1e-9 * site_cost);
  EXPECT_NEAR(r.carbon_g, site_carbon, 1e-9 * site_carbon);
  EXPECT_NEAR(r.energy.value(), site_energy, 1e-9 * site_energy);
  ASSERT_FALSE(r.cost_windows.empty());
  double window_energy = 0.0;
  for (const auto& w : r.cost_windows) window_energy += w.energy.value();
  double tail_energy = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    const Seconds tail{r.horizon.value() -
                       r.sites[s].result.makespan.value()};
    tail_energy += (scenario.sites[s].idle_floor() * tail).value();
  }
  EXPECT_NEAR(window_energy + tail_energy, r.energy.value(),
              1e-6 * r.energy.value());
}

TEST(Fleet, SingleSiteFleetIsLocalOnly) {
  FleetScenario scenario(400);
  std::vector<Site> one = {scenario.sites[0]};
  hw::InterSiteNetwork net(1);
  FleetOptions o = scenario.options;
  o.router.policy = RoutePolicy::kNearest;
  const FleetReport r =
      simulate_fleet(one, net, scenario.classes, o);
  EXPECT_EQ(r.cross_site, 0u);
  EXPECT_EQ(r.offered, 400u);
  EXPECT_EQ(r.sites[0].routed, 400u);
  EXPECT_EQ(r.completed + r.failed, 400u);
  for (const auto& c : r.classes)
    EXPECT_DOUBLE_EQ(c.mean_transit.value(), 0.0);
}

/// An arrival process that breaks ArrivalProcess::next's contract: its
/// fourth instant lies before its third.
class BackInTime final : public traffic::ArrivalProcess {
 public:
  Seconds next(Seconds now, Rng&) override {
    return ++calls_ == 4 ? now - Seconds{0.5} : now + Seconds{1.0};
  }
  double mean_rate_per_s() const override { return 1.0; }
  std::string name() const override { return "back-in-time"; }
  std::unique_ptr<traffic::ArrivalProcess> clone() const override {
    return std::make_unique<BackInTime>();
  }

 private:
  int calls_ = 0;
};

TEST(Fleet, GeneratorGoingBackInTimeThrowsSerialAndPooled) {
  FleetScenario scenario(50);
  scenario.sites[1].arrivals = std::make_shared<BackInTime>();
  // Shards 1 generates the origins in order on this thread; shards 3
  // generates them as pool tasks, and parallel_for rethrows the task's
  // error here.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    FleetOptions o = scenario.options;
    o.shards = shards;
    try {
      (void)simulate_fleet(scenario.sites, scenario.network,
                           scenario.classes, o);
      ADD_FAILURE() << "no PreconditionError at shards " << shards;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("before the previous one"),
                std::string::npos)
          << e.what();
    }
  }
}

/// An origin with no demand at all: its stream is exhausted from the
/// start.
class NoArrivals final : public traffic::ArrivalProcess {
 public:
  Seconds next(Seconds, Rng&) override {
    return Seconds{std::numeric_limits<double>::infinity()};
  }
  double mean_rate_per_s() const override { return 0.0; }
  std::string name() const override { return "none"; }
  std::unique_ptr<traffic::ArrivalProcess> clone() const override {
    return std::make_unique<NoArrivals>();
  }
};

/// Ledger conservation of one fleet report: the routes matrix sums to
/// offered and its off-diagonal to cross_site, its columns are the
/// sites' routed counts, and the site and class ledgers sum to the
/// fleet totals.
void expect_conserved(const FleetReport& r, std::size_t n) {
  ASSERT_EQ(r.routes.size(), n);
  ASSERT_EQ(r.sites.size(), n);
  std::uint64_t routed = 0, off_diagonal = 0;
  for (std::size_t o = 0; o < n; ++o) {
    ASSERT_EQ(r.routes[o].size(), n);
    for (std::size_t t = 0; t < n; ++t) {
      routed += r.routes[o][t];
      if (o != t) off_diagonal += r.routes[o][t];
    }
  }
  EXPECT_EQ(routed, r.offered);
  EXPECT_EQ(off_diagonal, r.cross_site);
  std::uint64_t site_routed = 0, site_completed = 0, site_failed = 0;
  for (std::size_t t = 0; t < n; ++t) {
    std::uint64_t column = 0;
    for (std::size_t o = 0; o < n; ++o) column += r.routes[o][t];
    EXPECT_EQ(column, r.sites[t].routed) << "site " << t;
    EXPECT_EQ(r.sites[t].local, r.routes[t][t]) << "site " << t;
    site_routed += r.sites[t].routed;
    site_completed += r.sites[t].result.completed;
    site_failed += r.sites[t].result.failed;
  }
  EXPECT_EQ(site_routed, r.offered);
  EXPECT_EQ(site_completed, r.completed);
  EXPECT_EQ(site_failed, r.failed);
  EXPECT_EQ(r.completed + r.failed, r.offered);
  std::uint64_t class_completed = 0, class_failed = 0;
  for (const FleetClassLedger& c : r.classes) {
    class_completed += c.completed;
    class_failed += c.failed;
    EXPECT_EQ(c.e2e.count, c.completed) << c.name;
    EXPECT_LE(c.slo_violations, c.completed) << c.name;
  }
  EXPECT_EQ(class_completed, r.completed);
  EXPECT_EQ(class_failed, r.failed);
}

TEST(Fleet, RandomizedOptionsConserveLedgersOrFailCleanly) {
  Rng rng(20261017);
  const auto pick = [&rng](std::uint64_t n) { return rng.uniform_int(n); };
  int conserved = 0, rejected = 0;
  for (int iter = 0; iter < 48; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const std::size_t n = 1 + pick(4);
    const auto policy = static_cast<RoutePolicy>(iter % 6);
    try {
      std::vector<traffic::TrafficClass> classes = {
          {wl("memcached"), 0.7, traffic::SloTarget{Seconds{0.05}, 0.95}},
          {wl("EP"), 0.3, traffic::SloTarget{}}};  // no SLO
      if (pick(3) == 0) classes.pop_back();
      std::vector<Site> sites;
      for (std::size_t s = 0; s < n; ++s) {
        Site site;
        site.name = "s" + std::to_string(s);
        site.cluster = model::make_a9_k10_cluster(
            static_cast<unsigned>(pick(3)), 1 + static_cast<unsigned>(pick(2)));
        site.price = make_diurnal_curve(0.1, 0.5, Seconds{60.0},
                                        Seconds{10.0 * s}, 3 + s);
        site.carbon = PiecewiseCurve::flat(300.0 + 50.0 * s);
        switch (pick(6)) {
          case 0: site.arrivals = traffic::make_deterministic(40.0); break;
          case 1:
            site.arrivals = traffic::make_diurnal(60.0, 0.8, Seconds{60.0},
                                                  Seconds{20.0 * s});
            break;
          case 2:
            site.arrivals =
                traffic::make_bursty(20.0, Seconds{1.0}, 200.0, Seconds{0.2});
            break;
          case 3: {
            // Empty on some iterations: make_replay rejects that.
            std::vector<Seconds> trace;
            for (std::uint64_t k = 0, len = pick(4) * 5; k < len; ++k)
              trace.push_back(Seconds{0.05 * static_cast<double>(k)});
            site.arrivals = traffic::make_replay(std::move(trace));
            break;
          }
          case 4: site.arrivals = std::make_shared<NoArrivals>(); break;
          default: site.arrivals = traffic::make_poisson(50.0);
        }
        sites.push_back(std::move(site));
      }
      const hw::InterSiteNetwork network = hw::InterSiteNetwork::uniform(
          n, Seconds{0.01 * static_cast<double>(pick(4))},
          BytesPerSecond{0.0});
      FleetOptions options;
      options.requests_per_site = 1 + pick(120);
      options.seed = 1 + pick(1000);
      // Above the site count on most iterations.
      options.shards = 1 + pick(n + 3);
      options.router.policy = policy;
      options.router.pinned_site = pick(n);
      options.router.headroom = 0.2 + 0.2 * static_cast<double>(pick(4));
      if (pick(2) == 0) options.admission.max_queue_depth = 1 + pick(3);
      if (pick(2) == 0) {
        options.retry.max_attempts = 2;
        options.retry.base_backoff = Seconds{0.01};
      }
      if (pick(2) == 0) options.stream.window = Seconds{0.5};
      const FleetReport r =
          simulate_fleet(sites, network, classes, options);
      expect_conserved(r, n);
      if (policy == RoutePolicy::kPinned) {
        for (std::size_t t = 0; t < n; ++t) {
          if (t != options.router.pinned_site) {
            EXPECT_EQ(r.sites[t].routed, 0u) << "site " << t;
          }
        }
      }
      ++conserved;
    } catch (const PreconditionError&) {
      ++rejected;
    }
  }
  std::cout << "rejected " << rejected << " of 48 draws\n";
  // Both outcomes occur: empty replay traces are rejected, everything
  // else runs.
  EXPECT_GT(conserved, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Fleet, ValidatesScenario) {
  FleetScenario scenario(100);
  FleetOptions o = scenario.options;
  EXPECT_THROW((void)simulate_fleet({}, scenario.network, scenario.classes,
                                    o),
               PreconditionError);
  hw::InterSiteNetwork wrong(2);
  EXPECT_THROW((void)simulate_fleet(scenario.sites, wrong, scenario.classes,
                                    o),
               PreconditionError);
  std::vector<Site> missing = scenario.sites;
  missing[1].arrivals = nullptr;
  EXPECT_THROW(
      (void)simulate_fleet(missing, scenario.network, scenario.classes, o),
      PreconditionError);
  o.requests_per_site = 0;
  EXPECT_THROW((void)simulate_fleet(scenario.sites, scenario.network,
                                    scenario.classes, o),
               PreconditionError);
}

// ------------------------------------------------------- pinned bytes
//
// FNV-1a hashes of FleetReport::to_json() for small fixed fleets. The
// other byte-identity tests compare two runs of the same build; these
// compare against constants, so a change to the fleet tier that moves
// any result byte fails here. Update a constant only with a change that
// means to alter results.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FleetPinned, KeystoneHybridStreamedOnOneAndThreeShards) {
  const FleetScenario scenario(600);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    FleetOptions o = scenario.options;
    o.shards = shards;
    const FleetReport r = simulate_fleet(scenario.sites, scenario.network,
                                         scenario.classes, o);
    EXPECT_GT(r.cross_site, 0u);
    EXPECT_FALSE(r.cost_windows.empty());
    EXPECT_EQ(fnv1a(r.to_json().dump()), 0xdc1fe46396ccc5ecULL)
        << "shards " << shards;
  }
}

TEST(FleetPinned, LatticeTiesWithQueueSheddingAndRetries) {
  // Every origin emits the same lattice, so the origins tie at every
  // instant; the WAN latency is one lattice step, so a remote request
  // lands at a target at the instant a local one arrives there.
  const double rate = 40.0;
  std::vector<Site> sites;
  for (std::size_t s = 0; s < 3; ++s) {
    Site site;
    site.name = "lattice" + std::to_string(s);
    site.cluster = model::make_a9_k10_cluster(2, 1);
    site.arrivals = traffic::make_deterministic(rate);
    site.price = PiecewiseCurve::flat(0.10 + 0.01 * static_cast<double>(s));
    sites.push_back(std::move(site));
  }
  const auto network = hw::InterSiteNetwork::uniform(
      3, Seconds{1.0 / rate}, BytesPerSecond{0.0});
  const std::vector<traffic::TrafficClass> classes = {
      {wl("EP"), 3.0, traffic::SloTarget{Seconds{0.5}, 0.95}},
      {wl("memcached"), 1.0, traffic::SloTarget{Seconds{0.05}, 0.95}}};
  FleetOptions o;
  o.requests_per_site = 800;
  o.seed = 41;
  o.router.policy = RoutePolicy::kSloHybrid;
  o.router.headroom = 0.5;
  o.router.load_window = Seconds{1.0};
  o.admission.max_queue_depth = 2;
  o.retry.max_attempts = 2;
  o.retry.base_backoff = Seconds{0.02};
  const FleetReport r = simulate_fleet(sites, network, classes, o);
  EXPECT_GT(r.cross_site, 0u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(fnv1a(r.to_json().dump()), 0xe08cd77b060e8296ULL);
}

TEST(FleetPinned, CheapestEnergyWithAShortReplayOrigin) {
  // Four sites; origin 2 replays a 40-instant trace without looping, so
  // the origin streams have unequal lengths.
  const Seconds period{120.0};
  std::vector<Site> sites;
  for (std::size_t s = 0; s < 4; ++s) {
    Site site;
    site.name = "region" + std::to_string(s);
    site.cluster =
        model::make_a9_k10_cluster(2, 1 + static_cast<unsigned>(s % 2));
    site.arrivals = traffic::make_diurnal(
        30.0, 0.7, period,
        Seconds{period.value() * static_cast<double>(s) / 4.0});
    site.price = make_diurnal_curve(0.10, 0.8, period,
                                    Seconds{30.0 * static_cast<double>(s)},
                                    /*seed=*/300 + s, /*jitter=*/0.05);
    site.carbon = make_diurnal_curve(400.0, 0.5, period,
                                     Seconds{30.0 * static_cast<double>(s)},
                                     /*seed=*/400 + s, /*jitter=*/0.05);
    sites.push_back(std::move(site));
  }
  std::vector<Seconds> trace;
  for (int k = 0; k < 40; ++k) trace.push_back(Seconds{0.37 * k});
  sites[2].arrivals = traffic::make_replay(std::move(trace));
  const auto network = hw::InterSiteNetwork::uniform(4, Seconds{0.02},
                                                     BytesPerSecond{1.0e6});
  const std::vector<traffic::TrafficClass> classes = {
      {wl("x264"), 1.0, traffic::SloTarget{Seconds{30.0}, 0.95}},
      {wl("memcached"), 2.0, traffic::SloTarget{Seconds{0.05}, 0.95}}};
  FleetOptions o;
  o.requests_per_site = 700;
  o.seed = 7;
  o.shards = 2;
  o.router.policy = RoutePolicy::kCheapestEnergy;
  o.router.request_payload = Bytes{4096.0};
  const FleetReport r = simulate_fleet(sites, network, classes, o);
  EXPECT_EQ(r.offered, 3u * 700u + 40u);
  EXPECT_GT(r.cross_site, 0u);
  EXPECT_EQ(fnv1a(r.to_json().dump()), 0x514fbdc39e99e8eeULL);
}

TEST(FleetPinned, SingleSiteFleet) {
  const FleetScenario scenario(900);
  const std::vector<Site> one = {scenario.sites[1]};
  FleetOptions o = scenario.options;
  o.router.policy = RoutePolicy::kNearest;
  o.admission.max_queue_depth = 3;
  const FleetReport r =
      simulate_fleet(one, hw::InterSiteNetwork(1), scenario.classes, o);
  EXPECT_EQ(r.offered, 900u);
  EXPECT_EQ(fnv1a(r.to_json().dump()), 0xce2b25b052a73253ULL);
}

}  // namespace
