#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hcep/config/operating_points.hpp"
#include "hcep/control/controllers.hpp"
#include "hcep/des/simulator.hpp"
#include "hcep/fed/router.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/util/rng.hpp"

namespace hcep_bench {

using namespace hcep;

namespace {

struct Sample {
  double seconds = 0.0;
  std::int64_t bytes = 0;  ///< live-heap growth while it ran
};

template <class F>
Sample measure(std::string_view span, F&& body) {
  const ScopedSpan s(span);
  const HeapWindow heap;
  const auto t0 = Clock::now();
  body();
  return Sample{seconds_since(t0), heap.peak_growth()};
}

/// Runs `pass` at least once, and again (at most five times in all)
/// while another pass as long as the last still ends within the budget;
/// groups report medians over the passes.
template <class F>
void passes(double budget_s, F&& pass) {
  const auto t0 = Clock::now();
  for (int p = 0; p < 5; ++p) {
    const auto start = Clock::now();
    pass();
    if (seconds_since(t0) + seconds_since(start) > budget_s) break;
  }
}

/// Median-of-three seconds of `body`.
template <class F>
Quartiles three(std::string_view span, F&& body) {
  std::vector<double> s;
  for (int i = 0; i < 3; ++i) s.push_back(measure(span, body).seconds);
  return quartiles(std::move(s));
}

/// Quartiles of `samples`, each multiplied by `factor` (unit change).
Quartiles scaled(std::vector<double> samples, double factor) {
  for (double& x : samples) x *= factor;
  return quartiles(std::move(samples));
}

Quartiles scaled(const Quartiles& q, double factor) {
  return Quartiles{q.q1 * factor, q.median * factor, q.q3 * factor, q.n};
}

/// The open-loop pump into a null sink: `n` arrivals from the scenario's
/// process and seed (simulate_traffic's draw order for one class), each
/// offered to `bucket` when given.
void generate(const TrafficScenario& s, std::uint64_t n,
              traffic::TokenBucket* bucket) {
  const auto gen = s.arrivals->clone();
  Rng rng(s.options.seed);
  Seconds t{0.0};
  double sum = 0.0;
  std::uint64_t admitted = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    t = gen->next(t, rng);
    if (bucket != nullptr && bucket->try_acquire(t)) ++admitted;
    if ((k & 1023) == 0) sum += t.value();
  }
  consume(fnv1a(admitted, sum));
}

/// Arrival instants with the class coin drawn after each, as the
/// library's up-front generation does.
std::vector<double> arrival_times(const TrafficScenario& s, std::uint64_t n) {
  const auto gen = s.arrivals->clone();
  Rng rng(s.options.seed);
  std::vector<double> times;
  times.reserve(n);
  Seconds t{0.0};
  for (std::uint64_t k = 0; k < n; ++k) {
    t = gen->next(t, rng);
    if (s.classes.size() > 1) consume(rng.uniform01() < 0.5);
    times.push_back(t.value());
  }
  return times;
}

/// DES replay of one run: the generator and token bucket feed arrival
/// events, each of which schedules the next arrival and the request's
/// terminal event at arrival + sojourn. Callbacks do nothing else, so
/// the time over the admission step is the kernel's own cost.
struct Replay {
  Replay(const TrafficScenario& s, const std::vector<double>& sojourn_s,
         double bucket_rate)
      : gen(s.arrivals->clone()),
        rng(s.options.seed),
        bucket(bucket_rate, 64.0),
        sojourn(&sojourn_s) {}

  des::Simulator sim;
  std::unique_ptr<traffic::ArrivalProcess> gen;
  Rng rng;
  traffic::TokenBucket bucket;
  const std::vector<double>* sojourn;
  std::size_t next = 0;
  std::uint64_t admitted = 0;
  std::uint64_t terminal = 0;
};

struct Terminal {
  Replay* r;
  void operator()() const { ++r->terminal; }
};

struct Arrive {
  Replay* r;
  void operator()() const {
    const Seconds now = r->sim.now();
    if (r->bucket.try_acquire(now)) ++r->admitted;
    r->sim.schedule_at(now + Seconds{(*r->sojourn)[r->next]}, Terminal{r});
    if (++r->next < r->sojourn->size())
      r->sim.schedule_at(r->gen->next(now, r->rng), Arrive{r});
  }
};

/// Returns the events executed.
std::uint64_t des_replay(const TrafficScenario& s,
                         const std::vector<double>& sojourn,
                         double bucket_rate) {
  Replay r(s, sojourn, bucket_rate);
  r.sim.schedule_at(r.gen->next(Seconds{0.0}, r.rng), Arrive{&r});
  r.sim.run();
  consume(r.admitted + r.terminal);
  return r.sim.events_processed();
}

// ------------------------------------------------------------- ladder

/// open_loop: ROADMAP item 1's cumulative ladder plus the rows derived
/// from it (overhead ratios of the observational layers, traffic core,
/// des, slo).
void ladder_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const TrafficScenario s = open_loop(c.catalog, c.seed, c.div);
  const std::uint64_t n = s.options.requests;
  const double dn = static_cast<double>(n);

  // Untimed: the run's sojourns (inputs of the des replay and the slo
  // row) and its exact des.events count.
  std::vector<double> sojourn;
  std::uint64_t events = 0;
  {
    traffic::TrafficOptions o = s.options;
    o.record_requests = true;
    obs::Observer observer;
    const obs::ScopedObserver install(observer);
    const traffic::TrafficResult r =
        traffic::simulate_traffic(s.cluster, s.classes, *s.arrivals, o);
    v.merge(check(r, n));
    sojourn.reserve(n);
    for (const auto& rec : r.requests) sojourn.push_back(rec.sojourn.value());
    events = observer.metrics.snapshot().counter("des.events");
  }

  traffic::TrafficOptions frozen = s.options;
  frozen.control.controller = control::make_frozen();
  frozen.control.period = Seconds{50.0 / s.rate};
  traffic::TrafficOptions streamed = frozen;
  streamed.stream.window = Seconds{dn / s.rate / 256.0};
  traffic::TrafficOptions recorded = streamed;
  recorded.record_requests = true;
  TrafficScenario solo_demand = open_loop(c.catalog, c.seed, c.div);
  solo_demand.options = streamed;
  const FleetScenario solo = single_site(solo_demand);
  // Four times the offered rate: every request takes the accept path.
  const double bucket_rate = 4.0 * s.rate;

  std::optional<traffic::TrafficResult> result;
  std::optional<fed::FleetReport> fleet;
  std::uint64_t replay_events = 0;
  const auto simulate = [&](const traffic::TrafficOptions& o) {
    result = traffic::simulate_traffic(s.cluster, s.classes, *s.arrivals, o);
  };
  const std::array<std::pair<const char*, std::function<void()>>, 8> steps{{
      {"generate", [&] { generate(s, n, nullptr); }},
      {"admission",
       [&] {
         traffic::TokenBucket bucket(bucket_rate, 64.0);
         generate(s, n, &bucket);
       }},
      {"des_replay",
       [&] { replay_events = des_replay(s, sojourn, bucket_rate); }},
      {"simulate", [&] { simulate(s.options); }},
      {"frozen_control", [&] { simulate(frozen); }},
      {"stream", [&] { simulate(streamed); }},
      {"record", [&] { simulate(recorded); }},
      {"fed_single_site", [&] { fleet = solo.run(); }},
  }};

  std::array<std::vector<double>, 8> secs;
  std::array<std::int64_t, 8> bytes{};
  std::vector<double> control_r, stream_r, record_r, fed_r, core, des_ev;
  passes(c.budget_s, [&] {
    std::array<double, 8> t{};
    std::uint64_t reference = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Sample x =
          measure(std::string("ladder.") + steps[i].first, steps[i].second);
      t[i] = x.seconds;
      secs[i].push_back(x.seconds);
      bytes[i] = x.bytes;
      if (result) {
        // Frozen control, streaming and records are observational: the
        // core result document must not change along the ladder.
        const std::uint64_t fp = fnv1a(result->to_json().dump());
        if (reference == 0) reference = fp;
        v.require(fp == reference, "ladder: an observational layer changed "
                                   "the result document");
        v.merge(check(*result, n));
        result.reset();
      }
      if (fleet) {
        v.merge(check(*fleet, n));
        fleet.reset();
      }
    }
    v.require(replay_events == 2 * n, "des replay lost events");
    control_r.push_back(t[4] / t[3]);
    stream_r.push_back(t[5] / t[4]);
    record_r.push_back(t[6] / t[5]);
    fed_r.push_back(t[7] / t[5]);  // same layers, through the fleet tier
    core.push_back((t[3] - t[2]) / dn);
    des_ev.push_back((t[2] - t[1]) / static_cast<double>(replay_events));
  });

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const std::string name = std::string("ladder.") + steps[i].first;
    m.add(name + ".ns_per_req", scaled(secs[i], 1e9 / dn), "ns");
    m.add(name + ".bytes_per_req", static_cast<double>(bytes[i]) / dn,
          "B/req");
  }
  m.add("traffic.core.ns_per_req", scaled(core, 1e9), "ns");
  m.add("des.events_per_req", static_cast<double>(events) / dn, "events/req");
  m.add("des.ns_per_event", scaled(des_ev, 1e9), "ns");
  m.add("control.overhead_ratio", quartiles(control_r), "ratio");
  m.add("obs.stream.overhead_ratio", quartiles(stream_r), "ratio");
  m.add("obs.record.overhead_ratio", quartiles(record_r), "ratio");
  m.add("obs.record.bytes_per_req",
        static_cast<double>(bytes[6] - bytes[5]) / dn, "B/req");
  m.add("fed.single_site.overhead_ratio", quartiles(fed_r), "ratio");

  // from_samples sorts in place: each timing gets a fresh copy.
  std::vector<double> work;
  std::vector<double> slo;
  for (int i = 0; i < 3; ++i) {
    work = sojourn;
    slo.push_back(measure("LatencySummary::from_samples", [&] {
                    consume(traffic::LatencySummary::from_samples(work).count);
                  }).seconds);
  }
  m.add("traffic.slo.ns_per_sample", scaled(slo, 1e9 / dn), "ns");
}

// -------------------------------------------------------- power gating

/// Fixed-table actuator: answers the planning queries in O(1) and
/// accepts every command, so a tick costs only the controller's own
/// decision.
class TableActuator final : public control::Actuator {
 public:
  bool sleep_node(std::size_t) override { return true; }
  bool wake_node(std::size_t) override { return true; }
  bool set_operating_point(std::size_t, std::uint32_t) override {
    return true;
  }
  [[nodiscard]] std::size_t num_points(std::uint32_t) const override {
    return 10;
  }
  [[nodiscard]] Watts busy_power(std::size_t node,
                                 std::uint32_t point) const override {
    return Watts{5.0 + static_cast<double>(node % 3) +
                 0.5 * static_cast<double>(point)};
  }
  [[nodiscard]] Seconds mean_service(std::size_t node,
                                     std::uint32_t point) const override {
    return Seconds{0.2 / (1.0 + static_cast<double>(node % 3)) /
                   (1.0 + static_cast<double>(point))};
  }
  [[nodiscard]] double service_rate(std::size_t node,
                                    std::uint32_t point) const override {
    return 1.0 / mean_service(node, point).value();
  }
};

/// power_gated_observed: control ticks, the sojourn sketch and diurnal
/// arrival generation (thinning).
void power_gate_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const TrafficScenario s = power_gated_observed(c.catalog, c.seed, c.div);
  const std::uint64_t n = s.options.requests;
  const double dn = static_cast<double>(n);
  const traffic::TrafficResult r = [&] {
    const ScopedSpan span("simulate_traffic");
    return s.run();
  }();
  v.merge(check(r, n));
  m.add("control.ticks_per_kreq",
        1000.0 * static_cast<double>(r.control.ticks) / dn, "ticks/kreq");

  std::vector<control::NodeStatus> nodes;
  std::uint32_t type = 0;
  for (const auto& g : s.cluster.groups) {
    for (unsigned k = 0; k < g.count; ++k) {
      control::NodeStatus st;
      st.type = type;
      st.queued = nodes.size() % 5;
      st.utilization = 0.1 * static_cast<double>(nodes.size() % 10);
      st.idle_power = Watts{5.0};
      st.sleep_power = Watts{0.5};
      nodes.push_back(st);
    }
    ++type;
  }
  const std::uint64_t ticks = n / 16;
  const Quartiles tick = three("Controller::tick", [&] {
    TableActuator actuator;
    const auto controller = control::make_power_gate();
    control::TickContext ctx;
    ctx.period = s.options.control.period;
    ctx.window_arrivals_per_s = s.rate;
    ctx.nodes = nodes.data();
    ctx.num_nodes = nodes.size();
    for (std::uint64_t k = 0; k < ticks; ++k) {
      ctx.now = Seconds{ctx.period.value() * static_cast<double>(k)};
      controller->tick(ctx, actuator);
    }
  });
  m.add("control.tick_ns", scaled(tick, 1e9 / static_cast<double>(ticks)),
        "ns");

  std::vector<double> sojourn;
  sojourn.reserve(n);
  for (const auto& rec : r.requests) sojourn.push_back(rec.sojourn.value());
  const Quartiles sketch = three("QuantileSketch::insert", [&] {
    obs::stream::QuantileSketch sk(s.options.stream.sketch_epsilon);
    for (const double x : sojourn) sk.insert(x);
    consume(static_cast<std::uint64_t>(1e9 * sk.quantile(0.99)));
  });
  m.add("obs.sketch.ns_per_insert", scaled(sketch, 1e9 / dn), "ns");

  const Quartiles arrivals =
      three("ArrivalProcess::next", [&] { generate(s, n, nullptr); });
  m.add("traffic.arrivals.ns_per_call", scaled(arrivals, 1e9 / dn), "ns");
}

// ----------------------------------------------------------- admission

/// overload_retry: the admission ledger and the token bucket replayed on
/// the run's first-attempt instants.
void admission_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const TrafficScenario s = overload_retry(c.catalog, c.seed, c.div);
  const std::uint64_t n = s.options.requests;
  const traffic::TrafficResult r = [&] {
    const ScopedSpan span("simulate_traffic");
    return s.run();
  }();
  v.merge(check(r, n));
  const std::uint64_t attempts = r.admitted + r.shed_bucket + r.shed_queue;
  v.require(attempts == r.offered + r.retries,
            "every attempt is admitted or shed");
  m.add("traffic.admit_ratio",
        static_cast<double>(r.admitted) / static_cast<double>(attempts),
        "ratio");
  m.add("traffic.attempts_per_req",
        static_cast<double>(attempts) / static_cast<double>(r.offered),
        "attempts/req");

  const std::vector<double> times = arrival_times(s, n);
  const Quartiles bucket = three("TokenBucket::try_acquire", [&] {
    traffic::TokenBucket b(s.options.admission.bucket_rate_per_s,
                           s.options.admission.bucket_burst);
    std::uint64_t admitted = 0;
    for (const double t : times) admitted += b.try_acquire(Seconds{t});
    consume(admitted);
  });
  m.add("traffic.admission.ns_per_call",
        scaled(bucket, 1e9 / static_cast<double>(n)), "ns");
}

// ---------------------------------------------------------- federation

/// fleet_hybrid: the cross-site share and the router replayed on the
/// fleet's own merged arrival stream.
void fed_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const FleetScenario f = fleet_hybrid(c.catalog, c.seed, c.div);
  const std::uint64_t offered = f.options.requests_per_site * f.sites.size();
  const fed::FleetReport r = [&] {
    const ScopedSpan span("simulate_fleet");
    return f.run();
  }();
  v.merge(check(r, offered));
  m.add("fed.cross_site_frac",
        static_cast<double>(r.cross_site) / static_cast<double>(r.offered),
        "ratio");

  // The stream simulate_fleet routes: per-origin split of the seed,
  // instant first and class coin second, merged stably by time.
  struct Origin {
    double t;
    std::uint32_t origin;
    std::uint32_t cls;
  };
  std::vector<Origin> merged;
  double total_weight = 0.0;
  for (const auto& cl : f.classes) total_weight += cl.weight;
  for (std::size_t o = 0; o < f.sites.size(); ++o) {
    const auto gen = f.sites[o].arrivals->clone();
    Rng rng = Rng(f.options.seed).split(static_cast<unsigned>(o));
    Seconds t{0.0};
    for (std::uint64_t k = 0; k < f.options.requests_per_site; ++k) {
      t = gen->next(t, rng);
      double coin = rng.uniform01() * total_weight;
      std::uint32_t cls = 0;
      for (std::size_t i = 0; i + 1 < f.classes.size(); ++i) {
        coin -= f.classes[i].weight;
        if (coin < 0.0) break;
        ++cls;
      }
      merged.push_back(Origin{t.value(), static_cast<std::uint32_t>(o), cls});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Origin& a, const Origin& b) { return a.t < b.t; });

  std::vector<double> route;
  for (int i = 0; i < 3; ++i) {
    fed::GlobalRouter router(f.sites, f.network, f.classes, f.options.router);
    router.reserve(merged.size());
    std::uint64_t cross = 0;
    route.push_back(measure("GlobalRouter::route", [&] {
                      for (const Origin& a : merged)
                        cross += router.route(a.origin, a.cls, Seconds{a.t})
                                     .target != a.origin;
                    }).seconds);
    v.require(cross == r.cross_site,
              "router replay disagrees with the fleet run");
  }
  m.add("fed.route.ns_per_call",
        scaled(route, 1e9 / static_cast<double>(merged.size())), "ns");
}

// ------------------------------------------------------------ parallel

/// sharded_scaling: 1/2/4-shard speedups measured in the same pass, the
/// serial up-front generation and the pool's idle share.
void parallel_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const TrafficScenario s = sharded_scaling(c.catalog, c.seed, c.div);
  const std::uint64_t n = s.options.requests;
  const auto run = [&](std::size_t shards) {
    traffic::TrafficOptions o = s.options;
    o.shards = shards;
    return traffic::simulate_traffic(s.cluster, s.classes, *s.arrivals, o);
  };
  std::vector<double> sp2, sp4, eff, gen_frac;
  std::uint64_t two_shards = 0;  // fingerprint of the 2-shard run
  passes(c.budget_s, [&] {
    std::array<double, 3> t{};
    const std::array<std::size_t, 3> counts{1, 2, 4};
    for (std::size_t i = 0; i < counts.size(); ++i) {
      std::optional<traffic::TrafficResult> r;
      t[i] = measure("simulate_traffic",
                     [&] { r = run(counts[i]); }).seconds;
      v.merge(check(*r, n));
      if (counts[i] == 2) two_shards = fingerprint(*r);
    }
    // The serial part of a sharded run: the whole arrival stream is
    // generated up front and dealt round-robin to the shards.
    const double gen = measure("ArrivalProcess::next", [&] {
                         const auto g = s.arrivals->clone();
                         Rng rng(s.options.seed);
                         std::array<std::vector<double>, 4> shard;
                         Seconds at{0.0};
                         for (std::uint64_t k = 0; k < n; ++k) {
                           at = g->next(at, rng);
                           shard[k % 4].push_back(at.value());
                         }
                         consume(shard[0].size());
                       }).seconds;
    sp2.push_back(t[0] / t[1]);
    sp4.push_back(t[0] / t[2]);
    eff.push_back(t[0] / (4.0 * t[2]));
    gen_frac.push_back(gen / t[2]);
  });
  m.add("parallel.shard_speedup_2", quartiles(sp2), "x");
  m.add("parallel.shard_speedup_4", quartiles(sp4), "x");
  m.add("parallel.shard_efficiency_4", quartiles(eff), "ratio");
  m.add("parallel.serial_gen_frac", quartiles(gen_frac), "ratio");

  // Serial shards at 2 (the untraced run checks its own 4).
  traffic::TrafficOptions serial = s.options;
  serial.shards = 2;
  serial.parallel_shards = false;
  v.require(fingerprint(traffic::simulate_traffic(s.cluster, s.classes,
                                                  *s.arrivals, serial)) ==
                two_shards,
            "serial and parallel shards differ");

  // Idle waits are booked when a worker picks up its next task; the
  // install and removal of the observer hand every worker a task, so the
  // counter holds the workers' idle time over the 4-shard run.
  const std::size_t workers = ThreadPool::global().size();
  obs::Observer observer;
  double wall = 0.0;
  {
    const GlobalObserver install(observer);
    const auto t0 = Clock::now();
    const ScopedSpan span("simulate_traffic");
    v.merge(check(run(4), n));
    wall = seconds_since(t0);
  }
  m.add("parallel.pool_idle_frac",
        1e-9 *
            static_cast<double>(
                observer.metrics.snapshot().counter("pool.idle_ns")) /
            (static_cast<double>(workers) * wall),
        "ratio");
}

// -------------------------------------------------------------- config

/// sweep_pareto: the memoized table, the sweep on one thread and on the
/// pool, and the frontier extraction.
void config_group(const LedgerContext& c, Metrics& m, Verdict& v) {
  const SweepScenario s = sweep_pareto(c.catalog, c.seed, c.div);
  const double configs = static_cast<double>(s.space.size());
  const double programs = static_cast<double>(s.programs.size());
  std::vector<double> table, serial, pooled, pareto;
  std::uint64_t front_size = 0;
  passes(c.budget_s, [&] {
    double tb = 0.0, ts = 0.0, tp = 0.0, tf = 0.0;
    std::uint64_t fronts = 0;
    for (const auto& program : s.programs) {
      tb += measure("OperatingPointTable", [&] {
              const config::OperatingPointTable t(s.space, program);
              consume(t.num_types());
            }).seconds;
      // Nested parallel loops run inline on a pool worker: this is the
      // one-thread sweep, without creating a thread of its own.
      std::optional<config::EvaluationSet> one;
      ts += measure("evaluate_space.one_thread", [&] {
              one = ThreadPool::global()
                        .submit([&] {
                          return config::evaluate_space(s.space, program);
                        })
                        .get();
            }).seconds;
      std::optional<config::EvaluationSet> all;
      tp += measure("evaluate_space", [&] {
              all = config::evaluate_space(s.space, program);
            }).seconds;
      v.require(one->times() == all->times() &&
                    one->energies() == all->energies(),
                "one-thread and pooled sweeps differ");
      std::vector<config::Evaluation> front;
      tf += measure("pareto_front",
                    [&] { front = config::pareto_front(*all); }).seconds;
      fronts += front.size();
    }
    v.require(front_size == 0 || front_size == fronts,
              "Pareto front size changed between passes");
    front_size = fronts;
    table.push_back(tb / programs);
    serial.push_back(ts / (configs * programs));
    pooled.push_back(tp / (configs * programs));
    pareto.push_back(tf / (configs * programs));
  });
  m.add("config.table_build_us", scaled(table, 1e6), "us");
  m.add("config.evaluate.ns_per_config", scaled(serial, 1e9), "ns");
  m.add("config.evaluate_pool.ns_per_config", scaled(pooled, 1e9), "ns");
  m.add("config.pareto.ns_per_config", scaled(pareto, 1e9), "ns");
  m.add("config.front_size", static_cast<double>(front_size), "configs");
}

}  // namespace

const std::vector<LedgerGroup>& ledger_groups() {
  static const std::vector<LedgerGroup> groups = {
      {"ladder", "open_loop", ladder_group},
      {"admission", "overload_retry", admission_group},
      {"power_gate", "power_gated_observed", power_gate_group},
      {"fed", "fleet_hybrid", fed_group},
      {"parallel", "sharded_scaling", parallel_group},
      {"config", "sweep_pareto", config_group},
  };
  return groups;
}

}  // namespace hcep_bench
