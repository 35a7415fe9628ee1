// Closed-loop control plane: the Controller interface and its contract.
//
// The paper evaluates its energy levers — power gating, DVFS operating
// points, heterogeneous dispatch — as *static* configurations swept
// offline (Table 8). This module turns them into *online* controllers
// that react to the non-stationary arrival processes in hcep::traffic:
// a controller observes the cluster at fixed-interval (plus
// event-triggered) ticks driven by the DES clock inside
// traffic::simulate_traffic and actuates node sleep/wake transitions and
// per-node operating-point changes through an Actuator.
//
// Determinism contract:
//  - Ticks are DES events: a controller sees the exact simulated state at
//    its tick instant and its actions apply before the next event at the
//    same timestamp. Same-seed runs are byte-identical, including across
//    serial vs parallel shard execution for a fixed (seed, shards) pair.
//  - A controller that never actuates (see FrozenController) leaves the
//    run byte-identical to the open-loop simulation: the tick machinery
//    draws no RNG values, schedules no request-visible events and
//    contributes exactly-zero energy adjustments
//    (tests/test_control.cpp asserts this per controller).
//  - Controllers must be deterministic functions of (TickContext,
//    internal state); they are cloned per shard and must not share
//    mutable state across clones.
//
// All power/energy signals crossing this interface are hcep::units
// quantities — never raw doubles — so a W-vs-J slip in a controller is a
// compile error (enforced by hcep-lint's control-unit-double rule).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hcep/obs/stream.hpp"
#include "hcep/power/meter.hpp"
#include "hcep/util/json.hpp"
#include "hcep/util/units.hpp"

namespace hcep::control {

/// Node power-management state.
///
/// kDraining is the intermediate the cap enforcer and autoscaler use to
/// park a busy node: it stops receiving new work immediately, keeps
/// drawing active power while its queue drains, and transitions to
/// kSleeping (at the sleep floor) the moment it empties.
enum class PowerState : std::uint8_t { kActive, kDraining, kSleeping };

[[nodiscard]] const char* to_string(PowerState state);

/// Per-node observation at a tick instant.
struct NodeStatus {
  std::uint32_t type = 0;   ///< ordinal into the run's node-type tables
  std::uint32_t point = 0;  ///< current operating-point index (ascending f)
  PowerState state = PowerState::kActive;
  std::uint64_t queued = 0;    ///< requests queued or in service here
  Seconds backlog{};           ///< pending-work horizon (>= 0)
  double utilization = 0.0;    ///< busy fraction over the last window
  Watts idle_power{};          ///< non-gateable floor while powered
  Watts sleep_power{};         ///< draw while parked
};

/// Per-traffic-class feedback over the window since the previous tick.
struct ClassFeedback {
  Seconds slo_latency{};   ///< zero when the class has no SLO
  Seconds window_p99{};    ///< p99 sojourn this window (zero if none done)
  std::uint64_t window_completed = 0;
  std::uint64_t window_shed = 0;
};

/// Everything a controller may observe at one tick.
struct TickContext {
  Seconds now{};
  Seconds period{};  ///< nominal tick spacing
  /// First-attempt arrivals per second over the window (0 on the first
  /// tick, whose window is empty).
  double window_arrivals_per_s = 0.0;
  const NodeStatus* nodes = nullptr;
  std::size_t num_nodes = 0;
  const ClassFeedback* classes = nullptr;
  std::size_t num_classes = 0;
  /// Conservative rack draw at current states/points: sleeping nodes at
  /// their sleep floor, everything else at worst-case busy power.
  Watts worst_case_power{};
  /// Fraction of the fleet this engine controls (1.0 single-shard). A
  /// power-cap controller enforces cap * shard_share on its shard.
  double shard_share = 1.0;
};

/// Command surface a controller actuates through, plus the
/// operating-point model queries it plans with (entries of the run's
/// per-type node tables). Commands return false when refused (unknown
/// point, already in the requested state, or the fleet-availability
/// floor).
class Actuator {
 public:
  virtual ~Actuator() = default;

  /// Parks a node: immediately when idle, else via kDraining. Refused
  /// when it would leave no dispatchable node.
  virtual bool sleep_node(std::size_t node) = 0;
  /// Powers a node back up. A sleeping node serves again after the
  /// configured wake delay and charges the wake-energy penalty; a
  /// draining node is simply reactivated (no penalty).
  virtual bool wake_node(std::size_t node) = 0;
  /// Switches the node's operating point for future dispatches; a
  /// request in flight keeps the service time and power of the point it
  /// was dispatched at.
  virtual bool set_operating_point(std::size_t node, std::uint32_t point) = 0;

  [[nodiscard]] virtual std::size_t num_points(std::uint32_t type) const = 0;
  /// Worst-case draw of `node` while serving at `point` (idle floor plus
  /// the largest per-class dynamic power).
  [[nodiscard]] virtual Watts busy_power(std::size_t node,
                                         std::uint32_t point) const = 0;
  /// Class-weighted mean service time per request at `point`.
  [[nodiscard]] virtual Seconds mean_service(std::size_t node,
                                             std::uint32_t point) const = 0;
  /// Class-weighted service rate (requests/s) at `point`.
  [[nodiscard]] virtual double service_rate(std::size_t node,
                                            std::uint32_t point) const = 0;
};

/// A closed-loop policy. tick() is invoked by the simulation at every
/// fixed-interval and event-triggered tick; clone() must produce an
/// independent instance with pristine internal state (one per shard).
class Controller {
 public:
  virtual ~Controller() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void tick(const TickContext& ctx, Actuator& actuator) = 0;
  [[nodiscard]] virtual std::unique_ptr<Controller> clone() const = 0;
};

/// Closed-loop configuration carried by traffic::TrafficOptions. With a
/// null controller the simulation runs open-loop and none of the control
/// machinery is installed.
struct ControlOptions {
  /// Policy to drive (cloned per shard; the passed object is not
  /// mutated). Null disables control entirely.
  std::shared_ptr<const Controller> controller;
  /// Fixed tick interval.
  Seconds period{5.0};
  /// A shed request also triggers a tick, at most once per
  /// min_event_spacing: congestion feedback between periodic ticks.
  Seconds min_event_spacing{0.5};
  /// Wake latency: a woken node draws idle power but serves nothing for
  /// this long (autoscale.hpp boot-delay semantics).
  Seconds wake_delay{10.0};
  /// Energy penalty charged per sleeping->active transition.
  Joules wake_energy{10.0};
  /// Draw of a parked node (suspend-to-RAM class).
  Watts sleep_power{0.5};
  /// Record the exact piecewise-constant rack power trace into
  /// ControlSummary::trace (property tests re-integrate it against the
  /// energy ledger; costs two ledger entries per dispatch).
  bool record_power_trace = false;

  [[nodiscard]] bool enabled() const { return controller != nullptr; }
};

/// Decision ledger of one controlled run (merged across shards). Not
/// part of TrafficResult::to_json() — the core result document stays
/// byte-identical whether or not a controller was installed; serialize
/// this separately via its own to_json().
struct ControlSummary {
  bool enabled = false;
  std::string controller;  ///< Controller::name()
  std::uint64_t ticks = 0;
  std::uint64_t event_ticks = 0;  ///< subset of ticks triggered by sheds
  std::uint64_t sleeps = 0;  ///< park decisions (immediate or draining)
  std::uint64_t wakes = 0;   ///< sleeping->active transitions
  std::uint64_t point_changes = 0;
  /// Idle-minus-sleep energy recovered by gating, clipped to makespan.
  Joules gating_savings{};
  /// Total wake penalties charged (wakes * ControlOptions::wake_energy).
  Joules wake_energy{};
  /// False if any request was ever dispatched to a non-active node
  /// (property-test invariant; always true by construction).
  bool all_dispatches_available = true;
  /// Exact rack power trace when ControlOptions::record_power_trace:
  /// trace.energy(makespan) + wake_energy == TrafficResult::energy to
  /// 1e-9 (tests/test_properties.cpp).
  power::PowerTrace trace;
  /// Per-tick decision audit ledger: one obs::stream::DecisionRecord per
  /// tick (observed signals, actions, predicted vs realized effect one
  /// window later). Each shard keeps its latest
  /// FlightRecorder::kDefaultCapacity records; the shards merge in
  /// deterministic (time, shard, tick) order.
  obs::stream::FlightRecorder flight;

  [[nodiscard]] JsonValue to_json() const;
};

}  // namespace hcep::control
