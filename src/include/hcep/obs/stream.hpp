// Streaming telemetry: bounded-memory windowed aggregation computed
// *during* the simulation, plus the control-plane flight recorder.
//
// The trace-centric pipeline (obs::EventTracer -> obs::Trace ->
// RunReport) reconstructs everything post-hoc from the full event log,
// which at campaign scale (ROADMAP item 1: 10^8 requests) either drops
// events or blows memory. This module is the online alternative:
//
//  - Collector ingests the traffic engine's per-event hooks and folds
//    them into fixed-width tumbling windows aligned to the DES clock.
//    Each window holds per-node-class aggregates (dispatch/completion
//    counts, busy-time utilization, queue depth, exact energy) plus
//    arrival/shed counts and p50/p95/p99 sojourn from a QuantileSketch.
//    Per-window energies are integrated from the same power deltas the
//    control plane's PowerTrace records, so they re-integrate to
//    PowerTrace::energy() within 1e-9 (tests/test_properties.cpp).
//  - QuantileSketch is a deterministic base-2 sub-bucketed histogram
//    with a hard bucket cap: relative value error <= epsilon() is a
//    proven bound (tested against exact order statistics), merging
//    shard sketches keeps the coarsest bound, and the cap is enforced
//    by deterministic resolution escalation — memory never grows with
//    the stream.
//  - FlightRecorder is the control plane's decision audit ledger: one
//    DecisionRecord per Controller tick (observed signals, actions
//    taken, per-node transitions, predicted vs realized effect one
//    window later), kept in a bounded drop-oldest ring.
//
// Determinism contract: timelines and ledgers are byte-identical across
// same-seed runs and across serial vs parallel shard execution for a
// fixed (seed, shards) pair — no wall clock, no unordered containers,
// shard merge in shard order. Streaming is an opt-in result artifact
// (traffic::TrafficOptions), not ambient instrumentation: it runs whether
// or not an obs::Observer is installed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "hcep/util/json.hpp"
#include "hcep/util/units.hpp"

namespace hcep::obs::stream {

/// Opt-in streaming configuration (carried by traffic::TrafficOptions).
struct StreamOptions {
  /// Tumbling-window width on the DES clock; <= 0 disables streaming
  /// entirely (no collector is installed, zero hot-path cost).
  Seconds window{0.0};
  /// Relative value-error bound of the per-window sojourn sketches.
  /// Shard merges keep the coarsest (max) bound; the sketch may
  /// escalate it deterministically under bucket-cap pressure.
  double sketch_epsilon = 0.005;

  [[nodiscard]] bool enabled() const { return window.value() > 0.0; }
};

/// Deterministic base-2 sub-bucketed quantile histogram (HDR style)
/// over non-negative values, with a hard bucket cap.
///
/// Guarantee: for the exact order statistic x at rank ceil(q * count())
/// of the inserted multiset, quantile(q) returns a value v with
/// |v - x| <= epsilon() * x. Buckets split each power-of-two octave
/// of the value into 2^shift equal sub-buckets straight from the
/// double's bit pattern, so insert() is O(1) integer work — no sorting —
/// which is what keeps the streaming collector inside the <= 5%
/// overhead gate. Zero is counted exactly; a negative or NaN value
/// throws PreconditionError (latencies, waits and sojourns are never
/// negative). merge() sums buckets, so unlike rank-error summaries the
/// bound does NOT grow across shard merges: epsilon() is the max of the
/// two sides. If the contiguous bucket range would exceed
/// max_buckets(), resolution halves (shift - 1, adjacent buckets fold
/// pairwise) deterministically and epsilon() reports the escalated
/// bound honestly.
class QuantileSketch {
 public:
  explicit QuantileSketch(double epsilon = 0.005);

  /// Throws PreconditionError on a negative or NaN value.
  void insert(double value);
  /// Folds another sketch in (shard merge); bounds combine by max.
  void merge(const QuantileSketch& other);

  /// Value at quantile `q` in [0, 1]; 0.0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return n_; }
  /// Currently proven relative value-error bound, 2^-(shift + 1).
  [[nodiscard]] double epsilon() const;
  /// Bucket-array entries currently allocated.
  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  /// Hard cardinality cap: buckets() never exceeds it.
  [[nodiscard]] static constexpr std::size_t max_buckets() { return 4096; }

 private:
  void extend(std::int32_t index);
  void escalate();
  [[nodiscard]] double representative(std::int32_t index) const;

  std::uint32_t shift_ = 8;  ///< sub-bucket bits per octave
  std::uint64_t n_ = 0;
  std::uint64_t zero_ = 0;   ///< exact count of inserted zeros
  /// Contiguous bucket range over the sub-bucket index
  /// (biased_exponent << shift | top mantissa bits) of the value.
  std::int32_t base_ = 0;    ///< index of counts_[0]
  std::vector<std::uint64_t> counts_;
};

/// Per-node-class slice of one closed window. "Node class" is a node
/// type of the run's cluster spec (one entry per present NodeGroup, in
/// spec order), the same ordinals the control plane's NodeStatus::type
/// uses.
struct NodeClassWindow {
  std::uint64_t dispatched = 0;  ///< admitted attempts sent to this class
  std::uint64_t completed = 0;
  /// Exact busy time integrated over the window (sum over the class's
  /// nodes of in-service time; utilization = busy / (nodes * width)).
  Seconds busy{};
  double utilization = 0.0;
  /// Requests queued or in service on this class at window close.
  std::uint64_t queue_depth = 0;
  /// Exact energy: idle/sleep floor plus dynamic draw integrated over
  /// the window. Summing classes and windows re-integrates the run's
  /// PowerTrace::energy() within 1e-9.
  Joules energy{};
  /// Wake-transient lumps charged in this window (not in the trace).
  Joules wake{};
};

/// One closed tumbling window.
struct StreamWindow {
  std::uint64_t index = 0;
  Seconds t0{};  ///< inclusive start (index * width)
  Seconds t1{};  ///< nominal exclusive end; integration clips to horizon
  std::uint64_t arrivals = 0;     ///< first-attempt arrivals
  std::uint64_t completions = 0;
  std::uint64_t shed = 0;         ///< shed attempts (bucket + queue)
  Joules energy{};                ///< sum of per-class energies
  Joules wake{};                  ///< sum of per-class wake lumps
  std::uint64_t sojourn_count = 0;
  Seconds sojourn_p50{};
  Seconds sojourn_p95{};
  Seconds sojourn_p99{};
  std::vector<NodeClassWindow> classes;
};

/// Node-class identity row of a timeline.
struct NodeClassInfo {
  std::string name;
  std::uint64_t nodes = 0;
};

/// The streamed run timeline: every window of one run, merged across
/// shards, byte-deterministic under to_json()/csv().
struct StreamTimeline {
  Seconds window{};   ///< tumbling-window width
  Seconds horizon{};  ///< run makespan the last window was clipped to
  /// Proven relative value-error bound of the per-window quantiles
  /// (coarsest per-shard epsilon across the shard merge).
  double sketch_epsilon = 0.0;
  std::vector<NodeClassInfo> node_classes;
  std::vector<StreamWindow> windows;
  Joules total_energy{};  ///< == sum of window energies
  Joules total_wake{};

  [[nodiscard]] bool empty() const { return windows.empty(); }
  /// Deterministic JSON document (schema_version 1, insertion-ordered
  /// keys, doubles at 12 significant digits).
  [[nodiscard]] JsonValue to_json() const;
  /// Inverse of to_json(); throws PreconditionError on malformed input.
  [[nodiscard]] static StreamTimeline from_json(const JsonValue& doc);
  /// RFC 4180 CSV: one aggregate row per window (empty `class` column)
  /// followed by one row per node class.
  [[nodiscard]] std::string csv() const;
};

/// Online per-shard aggregator. The traffic engine drives the hooks in
/// DES event order. Floor power (idle/sleep level, changed only by
/// gating deltas) is integrated segment-by-segment as the clock
/// advances; each dispatch's dynamic draw and busy time are smeared
/// analytically across the windows its fixed service interval
/// [start, done) overlaps — an O(windows overlapped) update with no
/// per-request queue, so per-window energy is still an exact
/// piecewise-constant integral.
class Collector {
 public:
  /// `node_classes` is the run's global class list (names in spec
  /// order); `idle_floor` is this shard's per-class idle-power floor,
  /// the integration level before any dispatch or gating delta.
  Collector(const StreamOptions& options,
            std::vector<NodeClassInfo> node_classes,
            std::vector<Watts> idle_floor);

  void on_arrival(Seconds t);
  void on_shed(Seconds t);
  /// An admitted attempt dispatched at `t` to a node of `node_class`,
  /// serving over [start, done) at `dynamic` watts above the floor.
  void on_dispatch(std::uint32_t node_class, Seconds t, Seconds start,
                   Seconds done, Watts dynamic);
  void on_complete(std::uint32_t node_class, Seconds t, Seconds sojourn);
  /// Immediate floor change at `t` (sleep/wake gating delta).
  void on_floor_delta(std::uint32_t node_class, Seconds t, Watts delta);
  /// Wake-transient energy lump charged at `t` (not part of the trace).
  void on_wake_energy(std::uint32_t node_class, Seconds t, Joules lump);

  /// Closes the run at `horizon` and merges the shard collectors (in
  /// shard order — deterministic) into one timeline: counts and
  /// energies sum, sketches merge (coarsest error bound wins),
  /// utilization is recomputed over the merged fleet.
  [[nodiscard]] static StreamTimeline merge_finalize(
      const std::vector<Collector*>& shards, Seconds horizon);

 private:
  struct Live {
    StreamWindow w;
    QuantileSketch sketch;
  };

  /// Close windows whose end <= t (an event at exactly the boundary
  /// lands in the new window). One compare on the fast path.
  void roll_to(double t);
  /// Accrue the deferred floor-power integral [cur_t_, t] into the
  /// current window. Called on window close, floor change and finalize
  /// only — never per request.
  void accrue_to(double t);
  void smear_service(std::uint32_t node_class, double start, double done,
                     Watts dynamic);
  void close_window();
  Live& window_at(std::uint64_t index);
  Live& open_window();

  StreamOptions options_;
  std::vector<NodeClassInfo> node_classes_;
  double width_ = 0.0;
  double cur_t_ = 0.0;     ///< floor integral frontier
  double win_end_ = 0.0;   ///< (cur_index_ + 1) * width_
  std::uint64_t cur_index_ = 0;
  std::vector<double> level_w_;        ///< per-class floor draw (no dynamic)
  std::vector<std::uint64_t> queued_;  ///< per-class queued + in service
  std::vector<Live> live_;             ///< one per window, index order
};

/// One Controller tick's audit record. Observed fields are the
/// pre-actuation signals the policy saw; predicted fields are computed
/// right after its actuations; realized fields are filled at the next
/// tick — one window later — from what actually happened.
struct DecisionRecord {
  std::uint64_t tick = 0;   ///< per-shard tick ordinal (0-based)
  std::uint32_t shard = 0;
  bool event = false;       ///< event-triggered (shed congestion) tick
  Seconds t{};
  Seconds window{};         ///< span since the previous tick
  // --- observed (pre-actuation) ---
  double arrivals_per_s = 0.0;
  Watts observed_power{};   ///< conservative rack draw at tick instant
  std::uint64_t queued = 0;
  std::uint32_t active = 0;
  std::uint32_t draining = 0;
  std::uint32_t sleeping = 0;
  std::uint64_t window_completed = 0;
  std::uint64_t window_shed = 0;
  Seconds window_p99{};     ///< worst per-class p99 sojourn this window
  // --- actions taken this tick ---
  std::uint32_t sleeps = 0;
  std::uint32_t wakes = 0;
  std::uint32_t point_changes = 0;
  struct Transition {
    enum class Kind : std::uint8_t { kSleep, kDrain, kWake, kPoint };
    std::uint32_t node = 0;  ///< global node index
    Kind kind = Kind::kSleep;
    std::uint32_t from = 0;  ///< PowerState ordinal, or old point index
    std::uint32_t to = 0;
  };
  std::vector<Transition> transitions;
  // --- predicted effect (post-actuation) ---
  Watts predicted_power{};
  double predicted_rate_per_s = 0.0;  ///< aggregate active service rate
  // --- realized one window later (false on a shard's final tick) ---
  bool realized_valid = false;
  Watts realized_power{};
  double realized_rate_per_s = 0.0;   ///< completions/s next window
  Seconds realized_p99{};

  [[nodiscard]] JsonValue to_json() const;
};

[[nodiscard]] const char* to_string(DecisionRecord::Transition::Kind kind);

/// Bounded drop-oldest ring of DecisionRecords: the decision ledger of
/// one controlled run, surfaced through control::ControlSummary and
/// RunReport.
class FlightRecorder {
 public:
  /// The bound of every traffic engine's recorder (one per shard).
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void append(DecisionRecord record);
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const DecisionRecord& at(std::size_t i) const;
  /// Most recent record (nullptr when empty) — the engine patches its
  /// realized fields at the next tick.
  [[nodiscard]] DecisionRecord* last();
  /// Records evicted by the capacity bound (oldest-first).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] JsonValue to_json() const;

  /// Shard merge: records interleaved by (time, shard, tick) — stable
  /// and deterministic; drop counts sum; capacities sum so the merge
  /// itself never evicts.
  [[nodiscard]] static FlightRecorder merge(
      const std::vector<const FlightRecorder*>& shards);

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::deque<DecisionRecord> records_;
};

/// Tolerances of a window-by-window timeline comparison. Counts compare
/// exactly; continuous metrics pass when |a - b| <= abs + rel * max(|a|,
/// |b|).
struct DiffTolerances {
  double rel = 1e-9;
  double abs = 1e-12;
};

/// One flagged metric delta.
struct DiffEntry {
  std::uint64_t window = 0;
  std::string metric;  ///< e.g. "arrivals", "energy_j", "A9.utilization"
  double a = 0.0;
  double b = 0.0;

  [[nodiscard]] JsonValue to_json() const;
};

/// Result of diff_timelines: empty() means the runs agree window by
/// window within tolerance — the regression primitive campaign tooling
/// gates on.
struct TimelineDiff {
  std::vector<DiffEntry> entries;
  std::uint64_t windows_compared = 0;
  bool shape_mismatch = false;  ///< width/classes/window-count differ
  std::string note;             ///< human-readable shape mismatch reason

  [[nodiscard]] bool empty() const {
    return entries.empty() && !shape_mismatch;
  }
  /// Window indices with at least one flagged metric, ascending unique.
  [[nodiscard]] std::vector<std::uint64_t> flagged_windows() const;
  [[nodiscard]] JsonValue to_json() const;
};

/// Compares two timelines window by window and flags every metric delta
/// beyond `tol`. Extra windows on either side are flagged as "missing"
/// entries against zero.
[[nodiscard]] TimelineDiff diff_timelines(const StreamTimeline& a,
                                          const StreamTimeline& b,
                                          const DiffTolerances& tol = {});

}  // namespace hcep::obs::stream
