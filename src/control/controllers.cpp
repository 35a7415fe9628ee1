#include "hcep/control/controllers.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

namespace hcep::control {

namespace {

/// Node indices ranked most-work-per-watt first at current operating
/// points (the greedy order cluster::autoscale_replay powers the fleet
/// in), ties broken by index for determinism.
std::vector<std::size_t> efficiency_order(const TickContext& ctx,
                                          const Actuator& act) {
  std::vector<std::size_t> order(ctx.num_nodes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> score(ctx.num_nodes);
  for (std::size_t i = 0; i < ctx.num_nodes; ++i) {
    const NodeStatus& s = ctx.nodes[i];
    const Watts busy = act.busy_power(i, s.point);
    score[i] = busy.value() > 0.0
                   ? act.service_rate(i, s.point) / busy.value()
                   : 0.0;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] > score[b];
                   });
  return order;
}

/// Wake one more parked node when the mean queue depth per active node
/// exceeds this between ticks (congestion override of the rate signal).
constexpr double kWakeQueueDepth = 4.0;
/// Only park nodes whose window utilization fell to this or below.
constexpr double kParkUtilization = 0.5;

class PowerGateController final : public Controller {
 public:
  explicit PowerGateController(PowerGateOptions options)
      : options_(options) {}

  [[nodiscard]] std::string name() const override { return "power_gate"; }

  void tick(const TickContext& ctx, Actuator& act) override {
    const std::size_t n = ctx.num_nodes;
    // The first tick (t = 0) has an empty window: observe only.
    if (n == 0 || ctx.now.value() <= 0.0) return;

    const std::vector<std::size_t> order = efficiency_order(ctx, act);
    const std::size_t min_keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(options_.min_active_fraction *
                         static_cast<double>(n))));
    const double target =
        ctx.window_arrivals_per_s * (1.0 + options_.headroom);

    std::uint64_t total_queued = 0;
    std::size_t dispatchable = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total_queued += ctx.nodes[i].queued;
      if (ctx.nodes[i].state == PowerState::kActive) ++dispatchable;
    }
    const bool congested =
        static_cast<double>(total_queued) >
        kWakeQueueDepth *
            static_cast<double>(std::max<std::size_t>(1, dispatchable));

    // Keep the most efficient non-sleeping prefix covering the target.
    std::vector<bool> keep(n, false);
    double capacity = 0.0;
    std::size_t kept = 0;
    for (const std::size_t i : order) {
      if (ctx.nodes[i].state == PowerState::kSleeping) continue;
      if (kept < min_keep || capacity < target) {
        keep[i] = true;
        ++kept;
        capacity += act.service_rate(i, ctx.nodes[i].point);
      }
    }

    // Park the rest — but only nodes whose window stayed cool (a hot
    // node outside the keep set signals the rate estimate is lagging).
    for (const std::size_t i : order) {
      const NodeStatus& s = ctx.nodes[i];
      if (keep[i] || s.state != PowerState::kActive) continue;
      if (s.utilization <= kParkUtilization) act.sleep_node(i);
    }

    // Wake back: enough capacity for the rate target, plus one extra
    // node per congested tick (queue pressure beats the rate signal).
    bool woke_for_pressure = !congested;
    for (const std::size_t i : order) {
      if (ctx.nodes[i].state == PowerState::kActive) continue;
      const bool need_rate = capacity < target;
      if (!need_rate && woke_for_pressure) break;
      if (act.wake_node(i)) {
        capacity += act.service_rate(i, ctx.nodes[i].point);
        if (!need_rate) woke_for_pressure = true;
      }
    }
  }

  [[nodiscard]] std::unique_ptr<Controller> clone() const override {
    return std::make_unique<PowerGateController>(options_);
  }

 private:
  PowerGateOptions options_;
};

class DvfsGovernor final : public Controller {
 public:
  explicit DvfsGovernor(DvfsGovernorOptions options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "dvfs_governor"; }

  void tick(const TickContext& ctx, Actuator& act) override {
    Seconds slo = options_.default_target;
    bool any_slo = false;
    for (std::size_t c = 0; c < ctx.num_classes; ++c) {
      const Seconds lat = ctx.classes[c].slo_latency;
      if (lat.value() <= 0.0) continue;
      slo = any_slo ? std::min(slo, lat) : lat;
      any_slo = true;
    }
    const Seconds target = slo * options_.latency_headroom;

    for (std::size_t i = 0; i < ctx.num_nodes; ++i) {
      const NodeStatus& s = ctx.nodes[i];
      if (s.state == PowerState::kSleeping) continue;
      const std::size_t points = act.num_points(s.type);
      const double depth = static_cast<double>(s.queued) + 1.0;

      // Lowest-power point whose predicted sojourn (drain the queue plus
      // one service at that point) meets the headroom target; fastest
      // point when none does.
      bool found = false;
      std::uint32_t pick = 0;
      Watts pick_power{};
      double best_rate = -1.0;
      std::uint32_t fastest = 0;
      for (std::size_t p = 0; p < points; ++p) {
        const auto point = static_cast<std::uint32_t>(p);
        const double rate = act.service_rate(i, point);
        if (rate > best_rate) {
          best_rate = rate;
          fastest = point;
        }
        const Seconds predicted = act.mean_service(i, point) * depth;
        if (predicted <= target) {
          const Watts power = act.busy_power(i, point);
          if (!found || power < pick_power) {
            found = true;
            pick = point;
            pick_power = power;
          }
        }
      }
      if (!found) pick = fastest;
      if (pick != s.point) act.set_operating_point(i, pick);
    }
  }

  [[nodiscard]] std::unique_ptr<Controller> clone() const override {
    return std::make_unique<DvfsGovernor>(options_);
  }

 private:
  DvfsGovernorOptions options_;
};

/// Restores keep worst-case draw below cap * (1 - kRestoreGuard), so
/// they do not oscillate across the cap.
constexpr double kRestoreGuard = 0.02;

class PowerCapController final : public Controller {
 public:
  explicit PowerCapController(PowerCapOptions options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "power_cap"; }

  void tick(const TickContext& ctx, Actuator& act) override {
    const std::size_t n = ctx.num_nodes;
    if (n == 0) return;
    const Watts limit = options_.cap * ctx.shard_share;
    const Watts restore_limit = limit * (1.0 - kRestoreGuard);
    Watts worst = ctx.worst_case_power;

    // Local mirror of the fleet (ctx is a snapshot; our own actuations
    // must feed back into the accounting within this tick).
    std::vector<std::uint32_t> point(n);
    std::vector<bool> sleeping(n);
    for (std::size_t i = 0; i < n; ++i) {
      point[i] = ctx.nodes[i].point;
      sleeping[i] = ctx.nodes[i].state == PowerState::kSleeping;
    }

    const std::vector<std::size_t> order = efficiency_order(ctx, act);

    // Enforce: biggest single-step power reduction first.
    while (worst > limit) {
      std::size_t best = n;
      Watts best_delta{0.0};
      for (std::size_t i = 0; i < n; ++i) {
        if (sleeping[i] || point[i] == 0) continue;
        const Watts delta =
            act.busy_power(i, point[i]) - act.busy_power(i, point[i] - 1);
        if (delta > best_delta) {
          best_delta = delta;
          best = i;
        }
      }
      if (best < n) {
        act.set_operating_point(best, point[best] - 1);
        --point[best];
        worst -= best_delta;
        continue;
      }
      // Every node at its slowest point: park the least efficient idle
      // node (never sheds queued work — draining is not even needed
      // since only empty nodes are parked here).
      bool parked = false;
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t i = *it;
        const NodeStatus& s = ctx.nodes[i];
        if (sleeping[i] || s.state != PowerState::kActive || s.queued > 0 ||
            s.backlog.value() > 0.0) {
          continue;
        }
        if (act.sleep_node(i)) {
          sleeping[i] = true;
          worst -= act.busy_power(i, point[i]) - s.sleep_power;
          parked = true;
          break;
        }
      }
      if (!parked) break;  // cap infeasible this tick; retry next tick
    }

    if (worst > restore_limit) return;

    // Restore capacity under the guard band: wakes first (most efficient
    // first), then the cheapest point upgrades.
    for (const std::size_t i : order) {
      if (!sleeping[i]) continue;
      const Watts delta =
          act.busy_power(i, point[i]) - ctx.nodes[i].sleep_power;
      if (worst + delta > restore_limit) continue;
      if (act.wake_node(i)) {
        sleeping[i] = false;
        worst += delta;
      }
    }
    while (true) {
      std::size_t best = n;
      Watts best_delta{0.0};
      bool found = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (sleeping[i]) continue;
        if (static_cast<std::size_t>(point[i]) + 1 >=
            act.num_points(ctx.nodes[i].type)) {
          continue;
        }
        const Watts delta =
            act.busy_power(i, point[i] + 1) - act.busy_power(i, point[i]);
        if (worst + delta > restore_limit) continue;
        if (!found || delta < best_delta) {
          found = true;
          best_delta = delta;
          best = i;
        }
      }
      if (!found) break;
      act.set_operating_point(best, point[best] + 1);
      ++point[best];
      worst += best_delta;
    }
  }

  [[nodiscard]] std::unique_ptr<Controller> clone() const override {
    return std::make_unique<PowerCapController>(options_);
  }

 private:
  PowerCapOptions options_;
};

class FrozenController final : public Controller {
 public:
  [[nodiscard]] std::string name() const override { return "frozen"; }
  void tick(const TickContext&, Actuator&) override {}
  [[nodiscard]] std::unique_ptr<Controller> clone() const override {
    return std::make_unique<FrozenController>();
  }
};

}  // namespace

std::unique_ptr<Controller> make_power_gate(PowerGateOptions options) {
  return std::make_unique<PowerGateController>(options);
}

std::unique_ptr<Controller> make_dvfs_governor(DvfsGovernorOptions options) {
  return std::make_unique<DvfsGovernor>(options);
}

std::unique_ptr<Controller> make_power_cap(PowerCapOptions options) {
  return std::make_unique<PowerCapController>(options);
}

std::unique_ptr<Controller> make_frozen() {
  return std::make_unique<FrozenController>();
}

}  // namespace hcep::control
