// The three closed-loop policies of ROADMAP item 2, plus the frozen
// no-op controller the oracle tests pin the determinism contract with.
//
//   PowerGateController  sleeps/wakes whole nodes on queue-depth and
//                        utilization signals (DPR/EPM power gating made
//                        online; greedy most-work-per-watt ordering as in
//                        cluster::autoscale_replay)
//   DvfsGovernor         per-node operating-point selection against a
//                        latency-headroom target, planning with the
//                        node-table entries exposed through the Actuator
//   PowerCapController   rack power-cap enforcement for the paper's 1 kW
//                        budget: throttles operating points first, parks
//                        idle nodes second, sheds load never
//   FrozenController     observes ticks, actuates nothing — the oracle
//                        for "closed-loop machinery adds zero drift"
#pragma once

#include <memory>

#include "hcep/control/controller.hpp"

namespace hcep::control {

struct PowerGateOptions {
  /// Capacity headroom: keep awake enough nodes for
  /// demand * (1 + headroom).
  double headroom = 0.25;
  /// Never park below this fraction of the fleet (QoS floor, >= 1 node).
  double min_active_fraction = 0.05;
};

/// Sleeps and wakes whole nodes against the windowed arrival rate:
/// nodes are ranked by work-per-watt (service rate over worst-case busy
/// power) and the most efficient prefix covering the capacity target
/// stays awake; the rest park, if their window utilization is at most
/// 50%. A mean queue depth above 4 per active node wakes one more node
/// per tick.
[[nodiscard]] std::unique_ptr<Controller> make_power_gate(
    PowerGateOptions options = {});

struct DvfsGovernorOptions {
  /// Fraction of the tightest class SLO the predicted per-node sojourn
  /// must stay under; lower is more conservative (faster points).
  double latency_headroom = 0.5;
  /// Fallback target when no class carries an SLO.
  Seconds default_target{1.0};
};

/// Per-node DVFS: picks the lowest-power operating point whose predicted
/// sojourn (queue backlog plus one service at that point) meets the
/// latency-headroom target; escalates to the fastest point when even it
/// cannot.
[[nodiscard]] std::unique_ptr<Controller> make_dvfs_governor(
    DvfsGovernorOptions options = {});

struct PowerCapOptions {
  /// Rack budget (the paper's Table 8 racks are provisioned at 1 kW).
  /// Sharded runs enforce cap * shard_share per shard.
  Watts cap{1000.0};
};

/// Enforces worst-case rack draw <= cap: throttles the operating points
/// with the largest power reduction first, parks idle nodes only when
/// every node is already at its slowest point, and restores (wakes, then
/// upgrades cheapest-first) while the draw stays 2% below the cap, so
/// restores do not oscillate across it. Because enforcement
/// acts on worst-case busy power, the instantaneous rack draw never
/// exceeds the cap between ticks (tests/test_properties.cpp).
[[nodiscard]] std::unique_ptr<Controller> make_power_cap(
    PowerCapOptions options = {});

/// Ticks like any controller but never actuates: runs under it must be
/// byte-identical to open-loop runs (tests/test_control.cpp).
[[nodiscard]] std::unique_ptr<Controller> make_frozen();

}  // namespace hcep::control
