// Heterogeneity-aware dispatching (extension).
//
// The paper's model splits every job across ALL nodes (scale-out with
// rate-matched shares) and defers "dynamic adaptation of the workload" to
// complementary work. This module holds that complement's policies: jobs
// are atomic and a front-end dispatcher assigns each to ONE node, so node
// choice matters on a heterogeneous floor. It defines the five policies
// and their chooser; traffic::simulate_traffic runs them on the DES with
// full power accounting, exposing the time-energy consequences of
// heterogeneity-blind vs -aware dispatch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/units.hpp"

namespace hcep::cluster {

enum class DispatchPolicy {
  kRoundRobin,        ///< cycle over nodes, blind to type and queues
  kRandom,            ///< uniform random node
  kJoinShortestQueue, ///< fewest queued jobs, ties to the faster node
  kFastestFirst,      ///< least expected completion time (queue + speed)
  kLeastEnergy,       ///< least added energy, queue-delay as tie-breaker
};

[[nodiscard]] std::string to_string(DispatchPolicy policy);
[[nodiscard]] std::vector<DispatchPolicy> all_dispatch_policies();

/// The node choice behind traffic::simulate_traffic's dispatcher: the
/// node `policy` picks for a job of `program` arriving at `now`, among
/// the nodes `eligible(i)` admits. `Node` exposes `queued`, `free_at`
/// and per-program `service` and `dynamic` tables. `eligible_count`
/// (>= 1) is how many nodes pass the filter — kRandom draws uniformly
/// among them and is the only policy that draws from `rng` — and
/// `rr_cursor` carries the round-robin position between calls. The
/// first eligible node wins ties.
template <class Node, class Eligible>
[[nodiscard]] std::size_t choose_node(DispatchPolicy policy,
                                      const std::vector<Node>& nodes,
                                      std::size_t program, Seconds now,
                                      std::size_t eligible_count,
                                      const Eligible& eligible,
                                      std::size_t& rr_cursor, Rng& rng) {
  require(eligible_count > 0, "choose_node: no eligible node");
  const std::size_t n = nodes.size();
  const auto backlog = [&](std::size_t i) {
    return std::max(0.0, (nodes[i].free_at - now).value());
  };
  std::size_t best = n;
  double best_score = 0.0;
  switch (policy) {
    case DispatchPolicy::kRoundRobin: {
      std::size_t i = rr_cursor;
      while (!eligible(i)) i = (i + 1) % n;
      rr_cursor = (i + 1) % n;
      return i;
    }
    case DispatchPolicy::kRandom: {
      std::uint64_t skip = rng.uniform_int(eligible_count);
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i)) continue;
        if (skip == 0) return i;
        --skip;
      }
      break;
    }
    case DispatchPolicy::kJoinShortestQueue:
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i)) continue;
        if (best == n || nodes[i].queued < nodes[best].queued ||
            (nodes[i].queued == nodes[best].queued &&
             nodes[i].service[program] < nodes[best].service[program])) {
          best = i;
        }
      }
      break;
    case DispatchPolicy::kFastestFirst:
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i)) continue;
        const double eta = backlog(i) + nodes[i].service[program].value();
        if (best == n || eta < best_score) {
          best_score = eta;
          best = i;
        }
      }
      break;
    case DispatchPolicy::kLeastEnergy:
      for (std::size_t i = 0; i < n; ++i) {
        if (!eligible(i)) continue;
        const Joules added =
            nodes[i].dynamic[program] * nodes[i].service[program];
        // Energy dominates; backlog breaks ties at the millijoule scale.
        const double score = added.value() + backlog(i) * 1e-3;
        if (best == n || score < best_score) {
          best_score = score;
          best = i;
        }
      }
      break;
  }
  if (best < n) return best;
  throw PreconditionError("choose_node: no eligible node");
}

/// One node type's share of a run's work (TrafficResult::nodes).
struct NodeLoad {
  std::string node_name;
  std::uint64_t jobs_served = 0;
  double busy_fraction = 0.0;  ///< busy time / makespan
};

}  // namespace hcep::cluster
