#include "hcep/obs/stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "hcep/util/error.hpp"

namespace hcep::obs::stream {
namespace {

// A double at 12 significant digits, byte-identical to JsonValue::dump
// so CSV and JSON artifacts agree on every value.
std::string format_number(double v) {
  return JsonValue::number(v).dump();
}

double as_num(const JsonValue& doc, const char* key) {
  return doc.at(key).as_number();
}

std::uint64_t as_count(const JsonValue& doc, const char* key) {
  const std::int64_t v = doc.at(key).as_int();
  require(v >= 0, std::string("stream: negative count field ") + key);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

QuantileSketch::QuantileSketch(double epsilon) {
  require(epsilon > 0.0 && epsilon <= 0.5,
          "QuantileSketch: epsilon must be in (0, 0.5]");
  // Finest shift whose proven bound 2^-(shift + 1) meets the request,
  // clamped so the sub-bucket index fits the exponent + mantissa bit
  // budget (11 + 20 bits < 2^31).
  std::uint32_t s = 0;
  while (s < 20 && std::ldexp(1.0, -static_cast<int>(s) - 1) > epsilon) ++s;
  shift_ = s;
}

double QuantileSketch::epsilon() const {
  return std::ldexp(1.0, -static_cast<int>(shift_) - 1);
}

void QuantileSketch::escalate() {
  --shift_;
  // Halving the sub-bucket resolution maps index -> index >> 1 exactly
  // ((exp << s) | m becomes (exp << (s-1)) | (m >> 1)), so adjacent
  // buckets fold pairwise.
  if (counts_.empty()) return;
  const std::int32_t nb = base_ >> 1;
  const std::int32_t last =
      (base_ + static_cast<std::int32_t>(counts_.size()) - 1) >> 1;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(last - nb) + 1, 0);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[static_cast<std::size_t>(
        ((base_ + static_cast<std::int32_t>(i)) >> 1) - nb)] += counts_[i];
  }
  counts_ = std::move(out);
  base_ = nb;
}

void QuantileSketch::extend(std::int32_t index) {
  if (counts_.empty()) {
    base_ = index;
    counts_.push_back(0);
  } else if (index < base_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - index),
                   0);
    base_ = index;
  } else {
    counts_.resize(static_cast<std::size_t>(index - base_) + 1, 0);
  }
  // Bucket-cap pressure: halve the resolution deterministically until
  // the contiguous range fits again (at shift 0 the range is the bare
  // exponent, at most 2048 buckets — always under the cap).
  while (counts_.size() > max_buckets() && shift_ > 0) escalate();
}

void QuantileSketch::insert(double value) {
  // One compare on the fast path: a positive value is neither zero nor
  // rejected (NaN fails every comparison).
  if (!(value > 0.0)) {
    require(value == 0.0, "QuantileSketch: negative or NaN value");
    ++n_;
    ++zero_;
    return;
  }
  ++n_;
  std::uint64_t u;
  std::memcpy(&u, &value, sizeof u);
  for (;;) {
    const auto index = static_cast<std::int32_t>(u >> (52U - shift_));
    const std::int32_t off = index - base_;
    if (!counts_.empty() && off >= 0 &&
        off < static_cast<std::int32_t>(counts_.size())) {
      ++counts_[static_cast<std::size_t>(off)];
      return;
    }
    // Slow path: grow the bucket range (may escalate shift_, changing
    // the index map — recompute and retry).
    extend(index);
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.n_ == 0) return;
  // Align to the coarser resolution; the bound combines by max, not
  // sum — bucket counts add without losing rank information.
  while (shift_ > other.shift_) escalate();
  n_ += other.n_;
  zero_ += other.zero_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    const std::uint64_t c = other.counts_[i];
    if (c == 0) continue;
    // shift_ can escalate mid-loop; re-derive the down-shift each time.
    std::int32_t index = (other.base_ + static_cast<std::int32_t>(i)) >>
                         (other.shift_ - shift_);
    for (;;) {
      const std::int32_t off = index - base_;
      if (!counts_.empty() && off >= 0 &&
          off < static_cast<std::int32_t>(counts_.size())) {
        counts_[static_cast<std::size_t>(off)] += c;
        break;
      }
      const std::uint32_t before = shift_;
      extend(index);
      if (shift_ != before) index >>= (before - shift_);
    }
  }
}

double QuantileSketch::representative(std::int32_t index) const {
  // Bucket midpoint, rebuilt from the index's bit pattern: within
  // epsilon() * value of every sample the bucket holds.
  const std::uint64_t lo_bits = static_cast<std::uint64_t>(index)
                                << (52U - shift_);
  const std::uint64_t hi_bits = static_cast<std::uint64_t>(index + 1)
                                << (52U - shift_);
  double lo = 0.0;
  double hi = 0.0;
  std::memcpy(&lo, &lo_bits, sizeof lo);
  std::memcpy(&hi, &hi_bits, sizeof hi);
  return lo + 0.5 * (hi - lo);
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  rank = std::min(n_, std::max(std::uint64_t{1}, rank));
  // Ascending value order: zeros, then the buckets.
  std::uint64_t cum = zero_;
  if (cum >= rank) return 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank)
      return representative(base_ + static_cast<std::int32_t>(i));
  }
  // Unreachable for a consistent histogram (cum == n_ at the end).
  return representative(base_ + static_cast<std::int32_t>(counts_.size()) -
                        1);
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

Collector::Collector(const StreamOptions& options,
                     std::vector<NodeClassInfo> node_classes,
                     std::vector<Watts> idle_floor)
    : options_(options), node_classes_(std::move(node_classes)) {
  require(options_.enabled(), "Collector: streaming window must be > 0");
  require(node_classes_.size() == idle_floor.size(),
          "Collector: one idle floor per node class");
  require(!node_classes_.empty(), "Collector: node class list is empty");
  width_ = options_.window.value();
  win_end_ = width_;
  level_w_.reserve(idle_floor.size());
  for (const Watts w : idle_floor) level_w_.push_back(w.value());
  queued_.assign(node_classes_.size(), 0);
}

/// The most windows one collector opens. Windows grow with the span of
/// the run over stream.window, not with its requests, so a run that
/// would pass the cap is rejected instead of allocated for.
constexpr std::uint64_t kMaxWindows = std::uint64_t{1} << 16;

Collector::Live& Collector::window_at(std::uint64_t index) {
  while (live_.size() <= index) {
    const auto i = static_cast<std::uint64_t>(live_.size());
    if (i >= kMaxWindows) {
      throw PreconditionError(
          "stream: the run spans more than " + std::to_string(kMaxWindows) +
          " windows; widen stream.window");
    }
    Live lw{StreamWindow{}, QuantileSketch{options_.sketch_epsilon}};
    lw.w.index = i;
    lw.w.t0 = Seconds{static_cast<double>(i) * width_};
    lw.w.t1 = Seconds{static_cast<double>(i + 1) * width_};
    lw.w.classes.resize(node_classes_.size());
    live_.push_back(std::move(lw));
  }
  return live_[index];
}

Collector::Live& Collector::open_window() { return window_at(cur_index_); }

void Collector::close_window() {
  Live& lw = open_window();
  // Outstanding (queued + in-service) population, the state an operator
  // would sample at the boundary instant, just before boundary events.
  for (std::size_t c = 0; c < queued_.size(); ++c) {
    lw.w.classes[c].queue_depth = queued_[c];
  }
  ++cur_index_;
  win_end_ = static_cast<double>(cur_index_ + 1) * width_;
}

void Collector::accrue_to(double t) {
  const double dt = t - cur_t_;
  if (dt > 0.0) {
    Live& lw = open_window();
    for (std::size_t c = 0; c < level_w_.size(); ++c) {
      lw.w.classes[c].energy += Joules{level_w_[c] * dt};
    }
  }
  cur_t_ = t;
}

void Collector::roll_to(double t) {
  while (t >= win_end_) {
    accrue_to(win_end_);
    close_window();
  }
}

void Collector::smear_service(std::uint32_t node_class, double start,
                              double done, Watts dynamic) {
  if (done <= start) return;
  // A service interval overlaps at most ceil(service / width) + 1
  // windows; spread its busy time and dynamic energy exactly. (A start
  // sitting on a window boundary can floor into the previous window —
  // the zero overlap there is skipped.)
  auto idx = static_cast<std::uint64_t>(start / width_);
  for (; static_cast<double>(idx) * width_ < done; ++idx) {
    const double w0 = static_cast<double>(idx) * width_;
    const double w1 = static_cast<double>(idx + 1) * width_;
    const double ov = std::min(done, w1) - std::max(start, w0);
    if (ov <= 0.0) continue;
    NodeClassWindow& cw = window_at(idx).w.classes[node_class];
    cw.busy += Seconds{ov};
    cw.energy += dynamic * Seconds{ov};
  }
}

void Collector::on_arrival(Seconds t) {
  roll_to(t.value());
  ++open_window().w.arrivals;
}

void Collector::on_shed(Seconds t) {
  roll_to(t.value());
  ++open_window().w.shed;
}

void Collector::on_dispatch(std::uint32_t node_class, Seconds t,
                            Seconds start, Seconds done, Watts dynamic) {
  roll_to(t.value());
  ++open_window().w.classes[node_class].dispatched;
  ++queued_[node_class];
  smear_service(node_class, start.value(), done.value(), dynamic);
}

void Collector::on_complete(std::uint32_t node_class, Seconds t,
                            Seconds sojourn) {
  roll_to(t.value());
  Live& lw = open_window();
  ++lw.w.completions;
  ++lw.w.classes[node_class].completed;
  --queued_[node_class];
  ++lw.w.sojourn_count;
  lw.sketch.insert(sojourn.value());
}

void Collector::on_floor_delta(std::uint32_t node_class, Seconds t,
                               Watts delta) {
  roll_to(t.value());
  // The floor level changes here: bring the deferred integral up to the
  // change instant first, at the old level.
  accrue_to(t.value());
  level_w_[node_class] += delta.value();
}

void Collector::on_wake_energy(std::uint32_t node_class, Seconds t,
                               Joules lump) {
  roll_to(t.value());
  Live& lw = open_window();
  lw.w.classes[node_class].wake += lump;
  lw.w.wake += lump;
}

StreamTimeline Collector::merge_finalize(
    const std::vector<Collector*>& shards, Seconds horizon) {
  require(!shards.empty(), "merge_finalize: no shard collectors");
  const double h = horizon.value();
  for (Collector* s : shards) {
    require(s != nullptr, "merge_finalize: null shard collector");
    // Dynamic energy was smeared at dispatch; only the floor integral
    // needs to be brought up to the horizon.
    s->roll_to(h);
    s->accrue_to(h);
    require(s->node_classes_.size() == shards[0]->node_classes_.size(),
            "merge_finalize: shard node-class lists differ");
  }

  StreamTimeline tl;
  tl.window = shards[0]->options_.window;
  tl.horizon = horizon;
  // The achieved bound (power-of-two, <= the requested option) — window
  // merges below escalate it if any shard sketch had to coarsen.
  tl.sketch_epsilon = QuantileSketch{shards[0]->options_.sketch_epsilon}
                          .epsilon();
  tl.node_classes = shards[0]->node_classes_;
  for (std::size_t c = 0; c < tl.node_classes.size(); ++c) {
    tl.node_classes[c].nodes = 0;
    for (const Collector* s : shards) {
      tl.node_classes[c].nodes += s->node_classes_[c].nodes;
    }
  }

  std::size_t n_windows = 0;
  for (const Collector* s : shards) {
    n_windows = std::max(n_windows, s->live_.size());
  }
  const double width = shards[0]->width_;
  tl.windows.reserve(n_windows);
  for (std::size_t w = 0; w < n_windows; ++w) {
    StreamWindow out;
    out.index = static_cast<std::uint64_t>(w);
    out.t0 = Seconds{static_cast<double>(w) * width};
    out.t1 = Seconds{static_cast<double>(w + 1) * width};
    out.classes.resize(tl.node_classes.size());
    QuantileSketch sketch{shards[0]->options_.sketch_epsilon};
    for (Collector* s : shards) {
      if (w >= s->live_.size()) continue;
      const Live& lw = s->live_[w];
      out.arrivals += lw.w.arrivals;
      out.completions += lw.w.completions;
      out.shed += lw.w.shed;
      out.sojourn_count += lw.w.sojourn_count;
      for (std::size_t c = 0; c < out.classes.size(); ++c) {
        NodeClassWindow& oc = out.classes[c];
        const NodeClassWindow& sc = lw.w.classes[c];
        oc.dispatched += sc.dispatched;
        oc.completed += sc.completed;
        oc.busy += sc.busy;
        oc.queue_depth += sc.queue_depth;
        oc.energy += sc.energy;
        oc.wake += sc.wake;
      }
      sketch.merge(lw.sketch);
    }
    const double span =
        std::max(0.0, std::min(h, out.t1.value()) - out.t0.value());
    for (std::size_t c = 0; c < out.classes.size(); ++c) {
      NodeClassWindow& oc = out.classes[c];
      const double cap = static_cast<double>(tl.node_classes[c].nodes) * span;
      oc.utilization = cap > 0.0 ? oc.busy.value() / cap : 0.0;
      out.energy += oc.energy;
      out.wake += oc.wake;
    }
    out.sojourn_p50 = Seconds{sketch.quantile(0.50)};
    out.sojourn_p95 = Seconds{sketch.quantile(0.95)};
    out.sojourn_p99 = Seconds{sketch.quantile(0.99)};
    tl.sketch_epsilon = std::max(tl.sketch_epsilon, sketch.epsilon());
    tl.total_energy += out.energy;
    tl.total_wake += out.wake;
    tl.windows.push_back(std::move(out));
  }
  return tl;
}

// ---------------------------------------------------------------------------
// StreamTimeline serialization
// ---------------------------------------------------------------------------

JsonValue StreamTimeline::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", JsonValue::number(std::int64_t{1}));
  doc.set("kind", JsonValue::string("hcep.stream_timeline"));
  doc.set("window_s", JsonValue::number(window.value()));
  doc.set("horizon_s", JsonValue::number(horizon.value()));
  doc.set("sketch_epsilon", JsonValue::number(sketch_epsilon));
  JsonValue classes = JsonValue::array();
  for (const NodeClassInfo& c : node_classes) {
    JsonValue o = JsonValue::object();
    o.set("name", JsonValue::string(c.name));
    o.set("nodes", JsonValue::number(static_cast<std::int64_t>(c.nodes)));
    classes.push(std::move(o));
  }
  doc.set("node_classes", std::move(classes));
  JsonValue totals = JsonValue::object();
  totals.set("energy_j", JsonValue::number(total_energy.value()));
  totals.set("wake_j", JsonValue::number(total_wake.value()));
  doc.set("totals", std::move(totals));
  JsonValue rows = JsonValue::array();
  for (const StreamWindow& w : windows) {
    JsonValue o = JsonValue::object();
    o.set("index", JsonValue::number(static_cast<std::int64_t>(w.index)));
    o.set("t0_s", JsonValue::number(w.t0.value()));
    o.set("t1_s", JsonValue::number(w.t1.value()));
    o.set("arrivals",
          JsonValue::number(static_cast<std::int64_t>(w.arrivals)));
    o.set("completions",
          JsonValue::number(static_cast<std::int64_t>(w.completions)));
    o.set("shed", JsonValue::number(static_cast<std::int64_t>(w.shed)));
    o.set("energy_j", JsonValue::number(w.energy.value()));
    o.set("wake_j", JsonValue::number(w.wake.value()));
    o.set("sojourn_count",
          JsonValue::number(static_cast<std::int64_t>(w.sojourn_count)));
    o.set("sojourn_p50_s", JsonValue::number(w.sojourn_p50.value()));
    o.set("sojourn_p95_s", JsonValue::number(w.sojourn_p95.value()));
    o.set("sojourn_p99_s", JsonValue::number(w.sojourn_p99.value()));
    JsonValue per_class = JsonValue::array();
    for (const NodeClassWindow& c : w.classes) {
      JsonValue co = JsonValue::object();
      co.set("dispatched",
             JsonValue::number(static_cast<std::int64_t>(c.dispatched)));
      co.set("completed",
             JsonValue::number(static_cast<std::int64_t>(c.completed)));
      co.set("busy_s", JsonValue::number(c.busy.value()));
      co.set("utilization", JsonValue::number(c.utilization));
      co.set("queue_depth",
             JsonValue::number(static_cast<std::int64_t>(c.queue_depth)));
      co.set("energy_j", JsonValue::number(c.energy.value()));
      co.set("wake_j", JsonValue::number(c.wake.value()));
      per_class.push(std::move(co));
    }
    o.set("classes", std::move(per_class));
    rows.push(std::move(o));
  }
  doc.set("windows", std::move(rows));
  return doc;
}

StreamTimeline StreamTimeline::from_json(const JsonValue& doc) {
  require(doc.at("kind").as_string() == "hcep.stream_timeline",
          "StreamTimeline::from_json: not a stream timeline document");
  require(doc.at("schema_version").as_int() == 1,
          "StreamTimeline::from_json: unsupported schema_version");
  StreamTimeline tl;
  tl.window = Seconds{as_num(doc, "window_s")};
  tl.horizon = Seconds{as_num(doc, "horizon_s")};
  tl.sketch_epsilon = as_num(doc, "sketch_epsilon");
  const JsonValue& classes = doc.at("node_classes");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const JsonValue& c = classes.at(i);
    tl.node_classes.push_back(
        NodeClassInfo{c.at("name").as_string(), as_count(c, "nodes")});
  }
  tl.total_energy = Joules{as_num(doc.at("totals"), "energy_j")};
  tl.total_wake = Joules{as_num(doc.at("totals"), "wake_j")};
  const JsonValue& rows = doc.at("windows");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& o = rows.at(i);
    StreamWindow w;
    w.index = as_count(o, "index");
    w.t0 = Seconds{as_num(o, "t0_s")};
    w.t1 = Seconds{as_num(o, "t1_s")};
    w.arrivals = as_count(o, "arrivals");
    w.completions = as_count(o, "completions");
    w.shed = as_count(o, "shed");
    w.energy = Joules{as_num(o, "energy_j")};
    w.wake = Joules{as_num(o, "wake_j")};
    w.sojourn_count = as_count(o, "sojourn_count");
    w.sojourn_p50 = Seconds{as_num(o, "sojourn_p50_s")};
    w.sojourn_p95 = Seconds{as_num(o, "sojourn_p95_s")};
    w.sojourn_p99 = Seconds{as_num(o, "sojourn_p99_s")};
    const JsonValue& per_class = o.at("classes");
    require(per_class.size() == tl.node_classes.size(),
            "StreamTimeline::from_json: window class row count mismatch");
    for (std::size_t c = 0; c < per_class.size(); ++c) {
      const JsonValue& co = per_class.at(c);
      NodeClassWindow cw;
      cw.dispatched = as_count(co, "dispatched");
      cw.completed = as_count(co, "completed");
      cw.busy = Seconds{as_num(co, "busy_s")};
      cw.utilization = as_num(co, "utilization");
      cw.queue_depth = as_count(co, "queue_depth");
      cw.energy = Joules{as_num(co, "energy_j")};
      cw.wake = Joules{as_num(co, "wake_j")};
      w.classes.push_back(cw);
    }
    tl.windows.push_back(std::move(w));
  }
  return tl;
}

std::string StreamTimeline::csv() const {
  std::string out =
      "window,t0_s,t1_s,class,arrivals,completions,shed,dispatched,"
      "completed,busy_s,utilization,queue_depth,energy_j,wake_j,"
      "sojourn_count,sojourn_p50_s,sojourn_p95_s,sojourn_p99_s\n";
  for (const StreamWindow& w : windows) {
    const std::string prefix = std::to_string(w.index) + "," +
                               format_number(w.t0.value()) + "," +
                               format_number(w.t1.value()) + ",";
    // Aggregate row: class column empty, per-class columns empty.
    out += prefix + "," + std::to_string(w.arrivals) + "," +
           std::to_string(w.completions) + "," + std::to_string(w.shed) +
           ",,,,," + format_number(w.energy.value()) + "," +
           format_number(w.wake.value()) + "," +
           std::to_string(w.sojourn_count) + "," +
           format_number(w.sojourn_p50.value()) + "," +
           format_number(w.sojourn_p95.value()) + "," +
           format_number(w.sojourn_p99.value()) + "\n";
    for (std::size_t c = 0; c < w.classes.size(); ++c) {
      const NodeClassWindow& cw = w.classes[c];
      // Class names come from config::NodeSpec identifiers; quote them
      // anyway so a hostile name cannot corrupt the table (RFC 4180).
      std::string name = node_classes[c].name;
      if (name.find_first_of(",\"\n") != std::string::npos) {
        std::string quoted = "\"";
        for (const char ch : name) {
          if (ch == '"') quoted += '"';
          quoted += ch;
        }
        quoted += '"';
        name = quoted;
      }
      out += prefix + name + ",,,," + std::to_string(cw.dispatched) + "," +
             std::to_string(cw.completed) + "," +
             format_number(cw.busy.value()) + "," +
             format_number(cw.utilization) + "," +
             std::to_string(cw.queue_depth) + "," +
             format_number(cw.energy.value()) + "," +
             format_number(cw.wake.value()) + ",,,,\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

const char* to_string(DecisionRecord::Transition::Kind kind) {
  switch (kind) {
    case DecisionRecord::Transition::Kind::kSleep:
      return "sleep";
    case DecisionRecord::Transition::Kind::kDrain:
      return "drain";
    case DecisionRecord::Transition::Kind::kWake:
      return "wake";
    case DecisionRecord::Transition::Kind::kPoint:
      return "point";
  }
  return "?";
}

JsonValue DecisionRecord::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("tick", JsonValue::number(static_cast<std::int64_t>(tick)));
  o.set("shard", JsonValue::number(static_cast<std::int64_t>(shard)));
  o.set("event", JsonValue::boolean(event));
  o.set("t_s", JsonValue::number(t.value()));
  o.set("window_s", JsonValue::number(window.value()));
  JsonValue obs = JsonValue::object();
  obs.set("arrivals_per_s", JsonValue::number(arrivals_per_s));
  obs.set("power_w", JsonValue::number(observed_power.value()));
  obs.set("queued", JsonValue::number(static_cast<std::int64_t>(queued)));
  obs.set("active", JsonValue::number(static_cast<std::int64_t>(active)));
  obs.set("draining",
          JsonValue::number(static_cast<std::int64_t>(draining)));
  obs.set("sleeping",
          JsonValue::number(static_cast<std::int64_t>(sleeping)));
  obs.set("window_completed",
          JsonValue::number(static_cast<std::int64_t>(window_completed)));
  obs.set("window_shed",
          JsonValue::number(static_cast<std::int64_t>(window_shed)));
  obs.set("window_p99_s", JsonValue::number(window_p99.value()));
  o.set("observed", std::move(obs));
  JsonValue act = JsonValue::object();
  act.set("sleeps", JsonValue::number(static_cast<std::int64_t>(sleeps)));
  act.set("wakes", JsonValue::number(static_cast<std::int64_t>(wakes)));
  act.set("point_changes",
          JsonValue::number(static_cast<std::int64_t>(point_changes)));
  JsonValue trs = JsonValue::array();
  for (const Transition& tr : transitions) {
    JsonValue to = JsonValue::object();
    to.set("node", JsonValue::number(static_cast<std::int64_t>(tr.node)));
    to.set("kind", JsonValue::string(to_string(tr.kind)));
    to.set("from", JsonValue::number(static_cast<std::int64_t>(tr.from)));
    to.set("to", JsonValue::number(static_cast<std::int64_t>(tr.to)));
    trs.push(std::move(to));
  }
  act.set("transitions", std::move(trs));
  o.set("actions", std::move(act));
  JsonValue pred = JsonValue::object();
  pred.set("power_w", JsonValue::number(predicted_power.value()));
  pred.set("rate_per_s", JsonValue::number(predicted_rate_per_s));
  o.set("predicted", std::move(pred));
  JsonValue real = JsonValue::object();
  real.set("valid", JsonValue::boolean(realized_valid));
  real.set("power_w", JsonValue::number(realized_power.value()));
  real.set("rate_per_s", JsonValue::number(realized_rate_per_s));
  real.set("p99_s", JsonValue::number(realized_p99.value()));
  o.set("realized", std::move(real));
  return o;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::append(DecisionRecord record) {
  if (records_.size() == capacity_) {
    records_.pop_front();
    ++dropped_;
  }
  records_.push_back(std::move(record));
}

const DecisionRecord& FlightRecorder::at(std::size_t i) const {
  require(i < records_.size(), "FlightRecorder::at: index out of range");
  return records_[i];
}

DecisionRecord* FlightRecorder::last() {
  return records_.empty() ? nullptr : &records_.back();
}

JsonValue FlightRecorder::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", JsonValue::number(std::int64_t{1}));
  doc.set("kind", JsonValue::string("hcep.flight_recorder"));
  doc.set("capacity",
          JsonValue::number(static_cast<std::int64_t>(capacity_)));
  doc.set("dropped", JsonValue::number(static_cast<std::int64_t>(dropped_)));
  JsonValue rows = JsonValue::array();
  for (const DecisionRecord& r : records_) rows.push(r.to_json());
  doc.set("records", std::move(rows));
  return doc;
}

FlightRecorder FlightRecorder::merge(
    const std::vector<const FlightRecorder*>& shards) {
  std::size_t capacity = 0;
  std::uint64_t dropped = 0;
  std::vector<DecisionRecord> all;
  for (const FlightRecorder* s : shards) {
    require(s != nullptr, "FlightRecorder::merge: null shard recorder");
    capacity += s->capacity_;
    dropped += s->dropped_;
    all.insert(all.end(), s->records_.begin(), s->records_.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const DecisionRecord& a, const DecisionRecord& b) {
                     if (a.t.value() != b.t.value()) {
                       return a.t.value() < b.t.value();
                     }
                     if (a.shard != b.shard) return a.shard < b.shard;
                     return a.tick < b.tick;
                   });
  FlightRecorder out{std::max<std::size_t>(1, capacity)};
  out.dropped_ = dropped;
  for (DecisionRecord& r : all) out.records_.push_back(std::move(r));
  return out;
}

// ---------------------------------------------------------------------------
// Timeline diff
// ---------------------------------------------------------------------------

JsonValue DiffEntry::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("window", JsonValue::number(static_cast<std::int64_t>(window)));
  o.set("metric", JsonValue::string(metric));
  o.set("a", JsonValue::number(a));
  o.set("b", JsonValue::number(b));
  return o;
}

std::vector<std::uint64_t> TimelineDiff::flagged_windows() const {
  std::vector<std::uint64_t> out;
  for (const DiffEntry& e : entries) {
    if (e.metric.rfind("run.", 0) == 0) continue;
    out.push_back(e.window);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

JsonValue TimelineDiff::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", JsonValue::number(std::int64_t{1}));
  doc.set("kind", JsonValue::string("hcep.timeline_diff"));
  doc.set("windows_compared",
          JsonValue::number(static_cast<std::int64_t>(windows_compared)));
  doc.set("shape_mismatch", JsonValue::boolean(shape_mismatch));
  doc.set("note", JsonValue::string(note));
  doc.set("identical", JsonValue::boolean(empty()));
  JsonValue rows = JsonValue::array();
  for (const DiffEntry& e : entries) rows.push(e.to_json());
  doc.set("entries", std::move(rows));
  return doc;
}

TimelineDiff diff_timelines(const StreamTimeline& a, const StreamTimeline& b,
                            const DiffTolerances& tol) {
  TimelineDiff d;
  if (a.window.value() != b.window.value()) {
    d.shape_mismatch = true;
    d.note = "window widths differ";
    return d;
  }
  if (a.node_classes.size() != b.node_classes.size()) {
    d.shape_mismatch = true;
    d.note = "node-class lists differ";
    return d;
  }
  for (std::size_t c = 0; c < a.node_classes.size(); ++c) {
    if (a.node_classes[c].name != b.node_classes[c].name ||
        a.node_classes[c].nodes != b.node_classes[c].nodes) {
      d.shape_mismatch = true;
      d.note = "node-class lists differ";
      return d;
    }
  }

  const auto close = [&tol](double x, double y) {
    return std::abs(x - y) <=
           tol.abs + tol.rel * std::max(std::abs(x), std::abs(y));
  };
  const auto flag = [&d](std::uint64_t w, std::string metric, double x,
                         double y) {
    d.entries.push_back(DiffEntry{w, std::move(metric), x, y});
  };
  const auto check_count = [&](std::uint64_t w, const char* metric,
                               std::uint64_t x, std::uint64_t y) {
    if (x != y) {
      flag(w, metric, static_cast<double>(x), static_cast<double>(y));
    }
  };
  const auto check_value = [&](std::uint64_t w, std::string metric, double x,
                               double y) {
    if (!close(x, y)) flag(w, std::move(metric), x, y);
  };

  if (!close(a.horizon.value(), b.horizon.value())) {
    d.entries.push_back(DiffEntry{0, "run.horizon_s", a.horizon.value(),
                                  b.horizon.value()});
  }

  const std::size_t common = std::min(a.windows.size(), b.windows.size());
  d.windows_compared = static_cast<std::uint64_t>(common);
  for (std::size_t i = 0; i < common; ++i) {
    const StreamWindow& wa = a.windows[i];
    const StreamWindow& wb = b.windows[i];
    const auto w = static_cast<std::uint64_t>(i);
    check_count(w, "arrivals", wa.arrivals, wb.arrivals);
    check_count(w, "completions", wa.completions, wb.completions);
    check_count(w, "shed", wa.shed, wb.shed);
    check_count(w, "sojourn_count", wa.sojourn_count, wb.sojourn_count);
    check_value(w, "energy_j", wa.energy.value(), wb.energy.value());
    check_value(w, "wake_j", wa.wake.value(), wb.wake.value());
    check_value(w, "sojourn_p50_s", wa.sojourn_p50.value(),
                wb.sojourn_p50.value());
    check_value(w, "sojourn_p95_s", wa.sojourn_p95.value(),
                wb.sojourn_p95.value());
    check_value(w, "sojourn_p99_s", wa.sojourn_p99.value(),
                wb.sojourn_p99.value());
    for (std::size_t c = 0; c < wa.classes.size(); ++c) {
      const NodeClassWindow& ca = wa.classes[c];
      const NodeClassWindow& cb = wb.classes[c];
      const std::string& cls = a.node_classes[c].name;
      check_count(w, (cls + ".dispatched").c_str(), ca.dispatched,
                  cb.dispatched);
      check_count(w, (cls + ".completed").c_str(), ca.completed,
                  cb.completed);
      check_count(w, (cls + ".queue_depth").c_str(), ca.queue_depth,
                  cb.queue_depth);
      check_value(w, cls + ".busy_s", ca.busy.value(), cb.busy.value());
      check_value(w, cls + ".utilization", ca.utilization, cb.utilization);
      check_value(w, cls + ".energy_j", ca.energy.value(),
                  cb.energy.value());
      check_value(w, cls + ".wake_j", ca.wake.value(), cb.wake.value());
    }
  }
  for (std::size_t i = common; i < a.windows.size(); ++i) {
    flag(static_cast<std::uint64_t>(i), "missing_window", 1.0, 0.0);
  }
  for (std::size_t i = common; i < b.windows.size(); ++i) {
    flag(static_cast<std::uint64_t>(i), "missing_window", 0.0, 1.0);
  }
  return d;
}

}  // namespace hcep::obs::stream
