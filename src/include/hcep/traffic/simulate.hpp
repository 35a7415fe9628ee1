// Open-loop request-level cluster simulation.
//
// Generated arrivals (traffic::ArrivalProcess) flow through admission
// control (traffic::admission) into the heterogeneity-aware dispatcher
// policies of hcep::cluster, executing on the paper's node models over
// the hcep::des kernel. Every request's queue-wait, service and sojourn
// times are folded into bounded-memory latency sketches as it completes
// — exact count, sum and max; nearest-rank p50/p95/p99 within the
// sketch's proven relative bound — together with full energy accounting
// (idle floor + per-request dynamic energy) and per-class SLO ledgers.
//
// Each run builds one node table per node type: the group's DVFS ladder
// at its core count and, per operating point, every class's service
// time and dynamic power from workload::unit_throughput / busy_power.
// A node dispatches from its type's row at its current point; a request
// is charged the terms of the point it was dispatched at, whatever a
// controller does to the node while it is in flight.
//
// The keystone validation: with one node, one class and Poisson
// arrivals, this simulator IS an M/D/1 queue, and its measured mean wait
// and p95 response must match queueing::MD1's closed forms (Figures
// 11/12 reproduced from traffic rather than formula; see
// tests/test_traffic.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hcep/cluster/dispatch.hpp"
#include "hcep/control/controller.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/slo.hpp"
#include "hcep/util/json.hpp"
#include "hcep/util/units.hpp"
#include "hcep/workload/demand.hpp"

namespace hcep::traffic {

/// One request class: a workload (service demand per node type), its
/// share of the arrival stream, and an optional latency SLO.
struct TrafficClass {
  workload::Workload workload;
  double weight = 1.0;
  SloTarget slo{};
};

/// One pre-assigned arrival: absolute time plus the class drawn (or
/// chosen) upstream. Input to the assigned-arrival simulate_traffic
/// overload below, which a routing tier (hcep::fed) uses to replay the
/// exact stream it placed on a cluster.
struct Arrival {
  Seconds t{};
  std::uint32_t cls = 0;
};

/// Terminal outcome of one request, recorded when
/// TrafficOptions::record_requests is on. `index` is the request's
/// arrival index (the position in the assigned-arrival vector, or the
/// global generation index for generated streams), so an upstream
/// router can join records back to its own per-request bookkeeping.
/// `sojourn` spans first arrival to completion (or final rejection).
struct RequestRecord {
  std::uint64_t index = 0;
  std::uint32_t cls = 0;
  std::uint32_t failed = 0;  ///< 1 when the request exhausted attempts
  Seconds sojourn{};
};

struct TrafficOptions {
  /// First-attempt arrivals to generate (retries do not count).
  std::uint64_t requests = 10000;
  cluster::DispatchPolicy policy =
      cluster::DispatchPolicy::kJoinShortestQueue;
  AdmissionOptions admission{};
  RetryPolicy retry{};
  std::uint64_t seed = 1;
  /// Opt-in sharded execution, one des::Simulator per shard: nodes are
  /// partitioned round-robin into `shards` groups, arrivals are assigned
  /// round-robin by arrival index, and the token-bucket rate/burst are
  /// split evenly. 1 = the classic single-loop path (byte-identical to
  /// previous releases for a fixed seed). With shards > 1 the dispatch
  /// policy sees only the shard's nodes, so results differ from the
  /// single-shard run — but are byte-identical across repeated runs (and
  /// across serial/parallel execution) for a fixed (seed, shards) pair.
  std::size_t shards = 1;
  /// Run the shards' event loops concurrently on the global thread pool
  /// (identical results either way; turn off to debug under a
  /// deterministic stack).
  bool parallel_shards = true;
  /// Closed-loop control plane (hcep::control). Default-constructed =
  /// open loop: no controller, no ticks, the classic instruction stream.
  /// With a controller installed, ticks run as ordinary DES events and
  /// the run stays byte-deterministic for a fixed (seed, shards) pair; a
  /// control::make_frozen() controller reproduces the open-loop result
  /// byte-identically (the oracle property tests/test_control.cpp pins).
  control::ControlOptions control{};
  /// Streaming telemetry (hcep::obs::stream). Default-constructed =
  /// off: no collector, no hooks, zero hot-path cost. With a window > 0
  /// the run fills TrafficResult::timeline with tumbling-window
  /// aggregates computed online — purely observational (no RNG draws, no
  /// DES events), so enabling it leaves every other result byte-identical.
  obs::stream::StreamOptions stream{};
  /// Record one RequestRecord per request into TrafficResult::requests
  /// (terminal outcomes, sorted by arrival index). Purely observational:
  /// no RNG draws, no DES events, so every other result stays
  /// byte-identical with it on or off.
  bool record_requests = false;
};

/// Aggregate ledger plus latency summaries of one traffic run.
///
/// Timing semantics: `wait` is queue time of admitted attempts (service
/// start minus attempt arrival), `service` is execution time, and
/// `sojourn` is the user-visible latency — completion minus the
/// request's FIRST arrival, so retry backoff delays are included.
/// Without admission control, sojourn == wait + service exactly.
struct TrafficResult {
  std::string arrival_process;
  std::uint64_t shards = 1;  ///< event-loop shards the run executed on
  std::uint64_t offered = 0;      ///< first-attempt arrivals generated
  std::uint64_t admitted = 0;     ///< attempts that passed admission
  std::uint64_t shed_bucket = 0;  ///< attempts rejected by the token bucket
  std::uint64_t shed_queue = 0;   ///< attempts rejected by queue depth
  std::uint64_t retries = 0;      ///< re-attempts scheduled after shedding
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       ///< requests that exhausted attempts

  Seconds makespan{};
  LatencySummary wait;
  LatencySummary service;
  LatencySummary sojourn;

  Joules energy{};  ///< exact: idle floor over makespan + dynamic energy
  Watts average_power{};
  Joules energy_per_request{};  ///< per completed request

  std::vector<ClassStats> classes;
  std::vector<cluster::NodeLoad> nodes;

  /// Control-plane ledger (enabled == false for open-loop runs).
  /// Deliberately NOT part of to_json(): the core result document stays
  /// controller-agnostic so the frozen-controller oracle can require
  /// byte-identity against the open-loop document. Serialize it
  /// separately via control.to_json().
  control::ControlSummary control;

  /// Streamed tumbling-window timeline (empty unless
  /// TrafficOptions::stream enabled it). Like `control`, deliberately
  /// NOT part of to_json() — the core document stays byte-identical
  /// whether or not streaming was on; serialize it separately via
  /// timeline.to_json() / timeline.csv().
  obs::stream::StreamTimeline timeline;

  /// Per-request terminal outcomes, sorted by arrival index (empty
  /// unless TrafficOptions::record_requests). Like `control` and
  /// `timeline`, deliberately NOT part of to_json().
  std::vector<RequestRecord> requests;

  /// Deterministic JSON (insertion-ordered keys; same-seed runs are
  /// byte-identical).
  [[nodiscard]] JsonValue to_json() const;
};

/// Sustainable aggregate request rate (requests/s) of `cluster` under the
/// weight-averaged class mix — the denominator that turns a target
/// utilization into an arrival rate for the generators above. Sums, node
/// by node, the rate of the node tables simulate_traffic dispatches from
/// at each group's configured point; every class weight must be
/// positive, as for simulate_traffic.
[[nodiscard]] double cluster_capacity_per_s(
    const model::ClusterSpec& cluster,
    const std::vector<TrafficClass>& classes);

/// Simulates `options.requests` arrivals drawn from `arrivals` (cloned;
/// the passed process is not mutated) through admission, dispatch and
/// execution. Deterministic for a fixed seed. The result is the run's
/// ledger; an installed hcep::obs observer gets a copy of its counts
/// once, after the shards merge: `traffic.offered`, `admitted`, `shed`,
/// `retries`, `completed` and `failed`, plus `control.ticks`, `sleeps`,
/// `wakes` and `point_changes` for a controlled run. The engine records
/// no trace events; the DES kernel adds its `des.*` metrics.
[[nodiscard]] TrafficResult simulate_traffic(
    const model::ClusterSpec& cluster,
    const std::vector<TrafficClass>& classes, const ArrivalProcess& arrivals,
    const TrafficOptions& options);

/// Assigned-arrival overload: replays an explicit, time-sorted arrival
/// vector (class chosen upstream) instead of sampling a generator —
/// the entry point a global routing tier uses to hand each cluster
/// exactly the requests it placed there. `options.requests` is ignored
/// (the vector is the budget) and `options.shards` must be 1: the
/// upstream tier owns any parallelism, and a single event loop keeps
/// the replay byte-identical to the equivalent generated run. Arrivals
/// are scheduled lazily (one pending DES event at a time) by the same
/// replay feed each shard of a sharded generated run uses, so the
/// per-event cost matches the generator pump.
[[nodiscard]] TrafficResult simulate_traffic(
    const model::ClusterSpec& cluster,
    const std::vector<TrafficClass>& classes,
    const std::vector<Arrival>& arrivals, const TrafficOptions& options);

}  // namespace hcep::traffic
