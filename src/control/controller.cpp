#include "hcep/control/controller.hpp"

namespace hcep::control {

const char* to_string(PowerState state) {
  switch (state) {
    case PowerState::kActive: return "active";
    case PowerState::kDraining: return "draining";
    case PowerState::kSleeping: return "sleeping";
  }
  return "?";
}

JsonValue ControlSummary::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("enabled", JsonValue::boolean(enabled));
  o.set("controller", JsonValue::string(controller));
  o.set("ticks", JsonValue::number(static_cast<std::int64_t>(ticks)));
  o.set("event_ticks",
        JsonValue::number(static_cast<std::int64_t>(event_ticks)));
  o.set("sleeps", JsonValue::number(static_cast<std::int64_t>(sleeps)));
  o.set("wakes", JsonValue::number(static_cast<std::int64_t>(wakes)));
  o.set("point_changes",
        JsonValue::number(static_cast<std::int64_t>(point_changes)));
  o.set("gating_savings_j", JsonValue::number(gating_savings.value()));
  o.set("wake_energy_j", JsonValue::number(wake_energy.value()));
  o.set("all_dispatches_available",
        JsonValue::boolean(all_dispatches_available));
  o.set("trace_steps",
        JsonValue::number(static_cast<std::int64_t>(trace.steps().size())));
  // The flight recorder is additive: a summary without records (no
  // ticks) keeps the historic document shape byte-for-byte.
  if (!flight.empty() || flight.dropped() > 0) {
    o.set("flight", flight.to_json());
  }
  return o;
}

}  // namespace hcep::control
