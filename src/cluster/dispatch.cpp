#include "hcep/cluster/dispatch.hpp"

#include <algorithm>
#include <functional>

#include "hcep/des/simulator.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/stats.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::cluster {

std::string to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kRandom: return "random";
    case DispatchPolicy::kJoinShortestQueue: return "join-shortest-queue";
    case DispatchPolicy::kFastestFirst: return "fastest-first";
    case DispatchPolicy::kLeastEnergy: return "least-energy";
  }
  return "unknown";
}

std::vector<DispatchPolicy> all_dispatch_policies() {
  return {DispatchPolicy::kRoundRobin, DispatchPolicy::kRandom,
          DispatchPolicy::kJoinShortestQueue, DispatchPolicy::kFastestFirst,
          DispatchPolicy::kLeastEnergy};
}

namespace {

/// One physical node: per-program service/dynamic-power tables plus live
/// queue state.
struct Node {
  std::string type;
  std::vector<Seconds> service;  ///< indexed by program
  std::vector<Watts> dynamic;    ///< extra power while serving, per program
  Watts idle{};
  std::size_t queued = 0;
  Seconds free_at{};
  std::uint64_t served = 0;
  Seconds busy_time{};
};

/// Shared engine for single- and mixed-stream dispatch.
MixedDispatchResult run_engine(const model::ClusterSpec& cluster,
                               const std::vector<MixedStream>& streams,
                               const DispatchOptions& options) {
  cluster.validate();
  require(options.utilization > 0.0 && options.utilization < 1.0,
          "simulate_dispatch: utilization must lie in (0, 1)");
  require(options.jobs > 0, "simulate_dispatch: need at least one job");
  require(!streams.empty(), "simulate_dispatch: no job streams");

  // Normalized stream weights and their cumulative distribution.
  double weight_total = 0.0;
  for (const auto& s : streams) {
    require(s.weight > 0.0, "simulate_dispatch: non-positive stream weight");
    weight_total += s.weight;
  }
  std::vector<double> cumulative;
  {
    double acc = 0.0;
    for (const auto& s : streams) {
      acc += s.weight / weight_total;
      cumulative.push_back(acc);
    }
    cumulative.back() = 1.0;
  }

  // Materialize nodes with per-program service/power tables.
  std::vector<Node> nodes;
  for (const auto& g : cluster.groups) {
    if (g.count == 0) continue;
    std::vector<Seconds> service;
    std::vector<Watts> dynamic;
    for (const auto& s : streams) {
      require(s.workload.has_node(g.spec.name),
              "simulate_dispatch: workload '" + s.workload.name +
                  "' lacks demand for '" + g.spec.name + "'");
      const auto& demand = s.workload.demand_for(g.spec.name);
      const double rate =
          workload::unit_throughput(demand, g.spec, g.cores(), g.freq());
      service.push_back(Seconds{s.workload.units_per_job / rate});
      const Watts busy = workload::busy_power(
          demand, g.spec, g.cores(), g.freq(),
          s.workload.power_scale_for(g.spec.name));
      dynamic.push_back(busy - g.spec.power.idle);
    }
    for (unsigned i = 0; i < g.count; ++i) {
      nodes.push_back(Node{.type = g.spec.name,
                           .service = service,
                           .dynamic = dynamic,
                           .idle = g.spec.power.idle,
                           .queued = 0,
                           .free_at = Seconds{0.0},
                           .served = 0,
                           .busy_time = Seconds{0.0}});
    }
  }
  require(!nodes.empty(), "simulate_dispatch: empty cluster");

  // Offered load: each node's sustainable job rate under the mixed diet,
  // summed; utilization scales it.
  double capacity_jobs = 0.0;
  for (const auto& n : nodes) {
    double mean_service = 0.0;
    for (std::size_t s = 0; s < streams.size(); ++s)
      mean_service += streams[s].weight / weight_total *
                      n.service[s].value();
    capacity_jobs += 1.0 / mean_service;
  }
  const double lambda = options.utilization * capacity_jobs;

  Rng rng(options.seed);
  des::Simulator sim;

#if HCEP_OBS
  obs::Observer* o = obs::current();
  obs::MetricId dispatched_m = 0, depth_m = 0;
  obs::StringId cat_s = 0, dispatch_s = 0, node_s = 0;
  if (o != nullptr) {
    dispatched_m = o->metrics.counter("dispatch.jobs");
    depth_m = o->metrics.histogram("dispatch.target_queue_depth",
                                   {0, 1, 2, 4, 8, 16, 32, 64});
    cat_s = o->tracer.intern("dispatch");
    dispatch_s = o->tracer.intern(to_string(options.policy));
    node_s = o->tracer.intern("node");
  }
#endif

  std::size_t rr_cursor = 0;
  const auto every_node = [](std::size_t) { return true; };

  RunningStats response_stats;
  std::vector<double> responses;
  responses.reserve(options.jobs);
  std::vector<RunningStats> stream_stats(streams.size());
  std::vector<std::vector<double>> stream_responses(streams.size());
  Joules dynamic_energy{0.0};
  Seconds makespan{0.0};
  std::uint64_t dispatched = 0;

  std::function<void()> arrive = [&]() {
    if (dispatched >= options.jobs) return;
    ++dispatched;
    const Seconds arrival = sim.now();

    // Sample the job's program by weight.
    const double coin = rng.uniform01();
    std::size_t program = 0;
    while (program + 1 < streams.size() && coin > cumulative[program])
      ++program;

    const std::size_t i =
        choose_node(options.policy, nodes, program, sim.now(), nodes.size(),
                    every_node, rr_cursor, rng);
    Node& n = nodes[i];
#if HCEP_OBS
    if (o != nullptr) {
      o->metrics.add(dispatched_m);
      o->metrics.observe(depth_m, static_cast<double>(n.queued));
      o->tracer.instant(sim.now().value(), cat_s, dispatch_s, node_s,
                        static_cast<double>(i));
    }
#endif
    ++n.queued;
    const Seconds start = std::max(arrival, n.free_at);
    const Seconds done = start + n.service[program];
    n.free_at = done;
    sim.schedule_at(done, [&, i, program, arrival]() {
      Node& node = nodes[i];
      --node.queued;
      ++node.served;
      node.busy_time += node.service[program];
      dynamic_energy += node.dynamic[program] * node.service[program];
      const double response = (sim.now() - arrival).value();
      response_stats.add(response);
      responses.push_back(response);
      stream_stats[program].add(response);
      stream_responses[program].push_back(response);
      makespan = std::max(makespan, sim.now());
    });
    sim.schedule_in(Seconds{rng.exponential(lambda)}, arrive);
  };
  sim.schedule_in(Seconds{rng.exponential(lambda)}, arrive);
  sim.run();

  MixedDispatchResult out;
  out.overall.jobs = options.jobs;
  out.overall.makespan = makespan;
  out.overall.mean_response = Seconds{response_stats.mean()};
  out.overall.p95_response = Seconds{percentile_inplace(responses, 95.0)};

  Watts idle_floor{0.0};
  for (const auto& n : nodes) idle_floor += n.idle;
  out.overall.energy = idle_floor * makespan + dynamic_energy;
  out.overall.average_power = out.overall.energy / makespan;
  out.overall.energy_per_job =
      out.overall.energy / static_cast<double>(options.jobs);

  // Per node type.
  for (const auto& n : nodes) {
    auto it = std::find_if(
        out.overall.nodes.begin(), out.overall.nodes.end(),
        [&](const NodeLoad& l) { return l.node_name == n.type; });
    if (it == out.overall.nodes.end()) {
      out.overall.nodes.push_back(NodeLoad{n.type, 0, 0.0});
      it = out.overall.nodes.end() - 1;
    }
    it->jobs_served += n.served;
    it->busy_fraction += n.busy_time.value();
  }
  for (auto& l : out.overall.nodes) {
    double count = 0;
    for (const auto& n : nodes)
      if (n.type == l.node_name) count += 1.0;
    l.busy_fraction /= std::max(1.0, count) * makespan.value();
  }

  // Per program.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamStats st;
    st.program = streams[s].workload.name;
    st.jobs = stream_stats[s].count();
    if (st.jobs > 0) {
      st.mean_response = Seconds{stream_stats[s].mean()};
      st.p95_response =
          Seconds{percentile_inplace(stream_responses[s], 95.0)};
    }
    out.per_program.push_back(std::move(st));
  }
  return out;
}

}  // namespace

DispatchResult simulate_dispatch(const model::ClusterSpec& cluster,
                                 const workload::Workload& workload,
                                 const DispatchOptions& options) {
  return run_engine(cluster, {MixedStream{workload, 1.0}}, options).overall;
}

MixedDispatchResult simulate_mixed_dispatch(
    const model::ClusterSpec& cluster, const std::vector<MixedStream>& streams,
    const DispatchOptions& options) {
  return run_engine(cluster, streams, options);
}

}  // namespace hcep::cluster
