#include "hcep/cluster/simulator.hpp"

#include <algorithm>
#include <deque>

#include "hcep/des/simulator.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/power_probe.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/stats.hpp"

namespace hcep::cluster {

namespace {

/// Static per-run description of the cluster/workload pair.
struct RunPlan {
  Seconds model_job_time{};
  Seconds expected_service{};      ///< with testbed overheads applied
  Watts idle_power{};              ///< cluster idle floor
  std::vector<Watts> group_dynamic;  ///< dyn power of each group (all nodes)
  std::vector<double> group_busy_fraction;  ///< t_i / T_P per group
  std::vector<double> group_units;          ///< units per group per job
  WorkloadOverheads ovh;
};

RunPlan make_plan(const model::TimeEnergyModel& m, bool use_overheads) {
  RunPlan plan;
  plan.ovh = use_overheads ? testbed_overheads(m.workload().name)
                           : ideal_overheads();

  const model::TimeResult time = m.execution_time(m.workload().units_per_job);
  plan.model_job_time = time.t_p;
  plan.expected_service =
      time.t_p * plan.ovh.time_factor + plan.ovh.dispatch;
  plan.idle_power = m.idle_power();

  const auto& groups = m.cluster().groups;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto& g = groups[i];
    Watts dyn{0.0};
    if (g.count > 0) {
      const Watts busy = workload::busy_power(
          m.workload().demand_for(g.spec.name), g.spec, g.cores(), g.freq(),
          m.workload().power_scale_for(g.spec.name));
      dyn = (busy - g.spec.power.idle) * static_cast<double>(g.count) *
            plan.ovh.power_factor;
    }
    plan.group_dynamic.push_back(dyn);
    plan.group_busy_fraction.push_back(
        time.t_p.value() > 0.0
            ? time.groups[i].per_node.total.value() / time.t_p.value()
            : 0.0);
    plan.group_units.push_back(time.groups[i].units_per_node *
                               static_cast<double>(g.count));
  }
  return plan;
}

/// Mutable run state shared by all event callbacks. Each callback
/// captures one SimCtx* plus a few value parameters, so every event fits
/// des::Callback's inline buffer (static_asserted at the schedule sites)
/// and the kernel hot path never allocates.
struct SimCtx {
  const model::TimeEnergyModel& m;
  const SimOptions& options;
  const RunPlan& plan;
  double lambda = 0.0;
  Seconds window{};
  Rng rng;
  obs::Observer* o = nullptr;
  obs::MetricId jobs_arrived_m = 0, jobs_completed_m = 0;
  obs::MetricId arrival_ev_m = 0, completion_ev_m = 0, power_ev_m = 0;
  std::uint64_t arrival_events = 0, power_events = 0;
  obs::StringId cat_s = 0, job_s = 0, wait_s = 0, arrival_s = 0, batch_s = 0;
  obs::StringId node_cat_s = 0, node_id_s = 0;
  std::vector<obs::StringId> group_name_s;
  des::Simulator sim;
  // The exact power timeline goes through the probe: same PowerTrace as
  // before, plus a "cluster_W" counter track on the active tracer.
  obs::PowerProbe probe;
  Watts level{};
  SimResult out;
  std::deque<Seconds> queue;  // arrival times of waiting jobs
  bool server_busy = false;
  RunningStats service_stats;
  RunningStats response_stats;
  obs::stream::QuantileSketch response_sketch;
  Seconds busy_time{};

  SimCtx(const model::TimeEnergyModel& model, const SimOptions& opts,
         const RunPlan& run_plan)
      : m(model),
        options(opts),
        plan(run_plan),
        rng(opts.seed),
        o(obs::current()),
        probe(o, "cluster_W"),
        level(run_plan.idle_power) {
    if (o != nullptr) {
      jobs_arrived_m = o->metrics.counter("sim.jobs_arrived");
      jobs_completed_m = o->metrics.counter("sim.jobs_completed");
      arrival_ev_m = o->metrics.counter("sim.arrival_events");
      completion_ev_m = o->metrics.counter("sim.completion_events");
      power_ev_m = o->metrics.counter("sim.power_events");
      cat_s = o->tracer.intern("cluster");
      job_s = o->tracer.intern("job");
      wait_s = o->tracer.intern("wait_s");
      arrival_s = o->tracer.intern("arrival");
      batch_s = o->tracer.intern("batch");
      // Per-node execution spans carry the group's name and the node id
      // the span executed on, so the profiler can attribute time per node.
      node_cat_s = o->tracer.intern("node");
      node_id_s = o->tracer.intern("node_id");
      group_name_s.reserve(m.cluster().groups.size());
      for (const auto& g : m.cluster().groups)
        group_name_s.push_back(o->tracer.intern(g.spec.name));
    }
    probe.step(Seconds{0.0}, level);
    out.counters.reserve(m.cluster().groups.size());
    for (const auto& g : m.cluster().groups)
      out.counters.push_back(GroupCounters{g.spec.name, 0, 0, 0, 0});
  }

  void adjust(Watts delta) {
    level += delta;
    probe.step(sim.now(), level);
    ++power_events;
  }

  void group_power_on(std::size_t i, Watts dyn) {
    adjust(dyn);
    if (o != nullptr) {
      o->tracer.begin(sim.now().value(), node_cat_s, group_name_s[i],
                      node_id_s, static_cast<double>(i));
    }
  }

  void group_power_off(std::size_t i, Watts dyn) {
    if (o != nullptr) {
      o->tracer.end(sim.now().value(), node_cat_s, group_name_s[i]);
    }
    adjust(-dyn);
  }

  void try_start_service() {
    if (server_busy || queue.empty()) return;
    server_busy = true;
    const Seconds arrival = queue.front();
    queue.pop_front();
    if (o != nullptr) {
      o->tracer.begin(sim.now().value(), cat_s, job_s, wait_s,
                      (sim.now() - arrival).value());
    }

    // Realized service time: model time x systematic factor x jitter.
    double jitter = 1.0;
    if (plan.ovh.service_noise_cv > 0.0) {
      jitter = std::max(0.2, rng.normal(1.0, plan.ovh.service_noise_cv));
    }
    const Seconds exec = plan.model_job_time * (plan.ovh.time_factor * jitter);
    const Seconds service = exec + plan.ovh.dispatch;
    const Seconds start_exec = sim.now() + plan.ovh.dispatch;
    const Seconds done = start_exec + exec;

    // Dispatch phase holds idle power; each group then draws its dynamic
    // power until its share completes.
    for (std::size_t i = 0; i < plan.group_dynamic.size(); ++i) {
      if (plan.group_dynamic[i].value() <= 0.0) continue;
      const Watts dyn = plan.group_dynamic[i];
      const Seconds group_end = start_exec + exec * plan.group_busy_fraction[i];
      // The node-span begin/end piggyback on the power-step callbacks
      // already scheduled here, so tracing adds no DES events (keeping
      // des.events == arrival + completion + power intact).
      auto on = [this, i, dyn] { group_power_on(i, dyn); };
      static_assert(des::Callback::stores_inline<decltype(on)>);
      sim.schedule_at(start_exec, std::move(on));
      auto off = [this, i, dyn] { group_power_off(i, dyn); };
      static_assert(des::Callback::stores_inline<decltype(off)>);
      sim.schedule_at(group_end, std::move(off));
    }

    const Seconds busy_from = sim.now();
    auto cb = [this, arrival, service, busy_from] {
      complete(arrival, service, busy_from);
    };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim.schedule_at(done, std::move(cb));
  }

  void complete(Seconds arrival, Seconds service, Seconds busy_from) {
    server_busy = false;
    if (o != nullptr) {
      o->tracer.end(sim.now().value(), cat_s, job_s);
    }
    ++out.jobs_completed;
    out.units_completed += m.workload().units_per_job;
    // Clip the busy interval to the observation window so the realized
    // utilization matches the window the energy is integrated over.
    const Seconds clipped_end = std::min(sim.now(), window);
    if (clipped_end > busy_from)
      busy_time += clipped_end - std::min(busy_from, window);
    service_stats.add(service.value());
    const double response = (sim.now() - arrival).value();
    response_stats.add(response);
    response_sketch.insert(response);
    const auto& demand_groups = m.cluster().groups;
    for (std::size_t i = 0; i < out.counters.size(); ++i) {
      const auto& d = m.workload().demand_for(demand_groups[i].spec.name);
      out.counters[i].work_cycles += plan.group_units[i] * d.cycles_core;
      out.counters[i].stall_cycles += plan.group_units[i] * d.cycles_mem;
      out.counters[i].io_bytes += plan.group_units[i] * d.io_bytes.value();
      out.counters[i].jobs_served += demand_groups[i].count > 0 ? 1 : 0;
    }
    try_start_service();
  }

  /// Poisson arrival process, stopped at the window edge.
  void schedule_next_arrival() {
    if (lambda <= 0.0) return;
    const Seconds next = sim.now() + Seconds{rng.exponential(lambda)};
    if (next > window) return;
    auto cb = [this] { on_arrival(); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim.schedule_at(next, std::move(cb));
  }

  void on_arrival() {
    ++arrival_events;
    if (o != nullptr) {
      o->tracer.instant(sim.now().value(), cat_s, arrival_s, batch_s,
                        static_cast<double>(options.batch_size));
    }
    for (unsigned b = 0; b < options.batch_size; ++b) {
      ++out.jobs_arrived;
      queue.push_back(sim.now());
    }
    try_start_service();
    schedule_next_arrival();
  }
};

}  // namespace

SimResult simulate(const model::TimeEnergyModel& m, const SimOptions& options) {
  require(options.utilization >= 0.0 && options.utilization < 1.0,
          "simulate: utilization must lie in [0, 1)");
  require(options.min_jobs > 0, "simulate: min_jobs must be positive");
  require(options.batch_size >= 1, "simulate: batch_size must be >= 1");

  const RunPlan plan = make_plan(m, options.use_testbed_overheads);
  const double u = options.utilization;

  SimCtx ctx(m, options, plan);
  // Batch arrivals: the batch rate carries batch_size jobs each, so it is
  // scaled down to keep the offered utilization at the target.
  ctx.lambda = u > 0.0 ? u / (plan.expected_service.value() *
                              static_cast<double>(options.batch_size))
                       : 0.0;
  ctx.window = options.window;
  if (ctx.window.value() <= 0.0) {
    ctx.window = u > 0.0 ? plan.expected_service *
                               (static_cast<double>(options.min_jobs) / u)
                         : plan.expected_service *
                               static_cast<double>(options.min_jobs);
  }

  ctx.schedule_next_arrival();
  // Run: process all events (in-flight jobs past the window drain too).
  ctx.sim.run();

  if (ctx.o != nullptr) {
    // The run's counts, added once: one completion event per job.
    ctx.o->metrics.add(ctx.jobs_arrived_m, ctx.out.jobs_arrived);
    ctx.o->metrics.add(ctx.jobs_completed_m, ctx.out.jobs_completed);
    ctx.o->metrics.add(ctx.arrival_ev_m, ctx.arrival_events);
    ctx.o->metrics.add(ctx.completion_ev_m, ctx.out.jobs_completed);
    ctx.o->metrics.add(ctx.power_ev_m, ctx.power_events);
    // Ring drops are silent data loss: surface the tally as a live gauge
    // so metric snapshots expose it without decoding the trace.
    ctx.o->metrics.set(ctx.o->metrics.gauge("obs.trace_dropped"),
                       static_cast<double>(ctx.o->tracer.dropped()));
  }

  SimResult out = std::move(ctx.out);
  out.window = ctx.window;
  out.energy_exact = ctx.probe.energy(ctx.window);
  power::PowerMeter meter(options.meter, options.seed ^ 0x5eedULL);
  out.energy_measured = meter.measure_energy(ctx.probe.trace(), ctx.window);
  out.average_power = out.energy_exact / ctx.window;
  out.measured_utilization =
      std::min(1.0, ctx.busy_time.value() / ctx.window.value());
  if (out.jobs_completed > 0) {
    out.mean_service = Seconds{ctx.service_stats.mean()};
    out.mean_response = Seconds{ctx.response_stats.mean()};
    out.p95_response = Seconds{ctx.response_sketch.quantile(0.95)};
  }
  return out;
}

JobMeasurement measure_batch(const model::TimeEnergyModel& m,
                             std::uint64_t jobs, std::uint64_t seed,
                             bool use_testbed_overheads) {
  require(jobs > 0, "measure_batch: need at least one job");
  const RunPlan plan = make_plan(m, use_testbed_overheads);
  Rng rng(seed);
  obs::PowerProbe probe(obs::current(), "batch_W");

  Seconds now{0.0};
  probe.step(now, plan.idle_power);
  for (std::uint64_t j = 0; j < jobs; ++j) {
    double jitter = 1.0;
    if (plan.ovh.service_noise_cv > 0.0)
      jitter = std::max(0.2, rng.normal(1.0, plan.ovh.service_noise_cv));
    const Seconds exec = plan.model_job_time * (plan.ovh.time_factor * jitter);
    const Seconds start_exec = now + plan.ovh.dispatch;

    // Group power steps within the job, merged into the trace in time
    // order: collect (time, delta) and apply.
    std::vector<std::pair<Seconds, Watts>> deltas;
    for (std::size_t i = 0; i < plan.group_dynamic.size(); ++i) {
      if (plan.group_dynamic[i].value() <= 0.0) continue;
      deltas.emplace_back(start_exec, plan.group_dynamic[i]);
      deltas.emplace_back(start_exec + exec * plan.group_busy_fraction[i],
                          -plan.group_dynamic[i]);
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Watts level = probe.trace().at(now);
    for (const auto& [t, dw] : deltas) {
      level += dw;
      probe.step(t, level);
    }
    now = start_exec + exec;
    probe.step(now, plan.idle_power);
  }

  power::PowerMeter meter({}, seed ^ 0xbeefULL);
  JobMeasurement out;
  out.time_per_job = now / static_cast<double>(jobs);
  out.energy_per_job =
      meter.measure_energy(probe.trace(), now) / static_cast<double>(jobs);
  return out;
}

}  // namespace hcep::cluster
