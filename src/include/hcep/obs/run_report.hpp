// Run-report pipeline: bundle the analysis layer's outputs — a trace
// profile, per-channel time-series rollups and a merged metrics snapshot
// — into one deterministic, serializable artifact.
//
// The JSON form (util/json) is byte-stable for a given input: every
// collection is emitted in a deterministic order and doubles print at
// 12 significant digits, so two same-seed runs produce identical report
// bytes (asserted in tests). The Prometheus text form exposes the
// merged metric snapshot for scrape-style consumption.
#pragma once

#include <string>
#include <vector>

#include "hcep/obs/metrics.hpp"
#include "hcep/obs/profile.hpp"
#include "hcep/obs/stream.hpp"
#include "hcep/util/json.hpp"

namespace hcep::obs {

/// One run's telemetry, analyzed: profile + rollups + metrics, plus the
/// optional streamed timeline and control-plane decision ledger.
struct RunReport {
  std::string title;
  TraceProfile profile;
  std::vector<SeriesRollup> rollups;  ///< one per counter channel
  MetricsSnapshot metrics;
  /// Streamed tumbling-window timeline (attach from
  /// traffic::TrafficResult::timeline; emitted only when non-empty so
  /// reports without streaming keep their historic byte shape).
  stream::StreamTimeline timeline;
  /// Control-plane decision ledger (attach from
  /// ControlSummary::flight; emitted only when non-empty).
  stream::FlightRecorder flight;

  /// Data-loss and audit warnings: trace-ring drops and flight-recorder
  /// evictions, in emission order. Empty when nothing was lost.
  [[nodiscard]] std::vector<std::string> warnings() const;

  /// Deterministic JSON serialization (schema_version 1).
  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] std::string json() const { return to_json().dump(); }
};

/// Builds a report from a decoded trace: profiles it, rolls up every
/// counter channel at `interval_s`, and attaches `metrics` when given.
/// Without a live snapshot (e.g. profiling a trace file), per-phase
/// event-census counters are synthesized under "trace.events.*" so the
/// Prometheus exposition still has content.
[[nodiscard]] RunReport make_run_report(const Trace& trace,
                                        std::string title,
                                        double interval_s,
                                        const MetricsSnapshot* metrics =
                                            nullptr);

/// Prometheus text exposition (text/plain; version 0.0.4): one # TYPE
/// line per family, histogram buckets cumulative with a le="+Inf" total,
/// metric names sanitized (dots and other invalid characters become
/// underscores).
[[nodiscard]] std::string prometheus_text(const MetricsSnapshot& snapshot);

}  // namespace hcep::obs
