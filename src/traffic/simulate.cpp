#include "hcep/traffic/simulate.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "hcep/control/controller.hpp"
#include "hcep/des/simulator.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/node_ops.hpp"

namespace hcep::traffic {

namespace {

/// One node type of a run (a present NodeGroup): the group's DVFS ladder
/// at its core count, with the configured frequency inserted when it is
/// not a ladder step, and per operating point the service time and
/// dynamic power of every class plus the class-mix rows controllers plan
/// with. Built once per run and shared read-only by the shard engines.
struct TypeTable {
  struct Point {
    Watts busy_worst{};     ///< idle + max per-class dynamic
    Seconds mean_service{}; ///< class-weight-averaged
    double rate = 0.0;      ///< requests/s = 1 / mean_service
  };
  std::string name;
  unsigned count = 0;  ///< nodes of this type
  Watts idle{};
  std::uint32_t configured = 0;  ///< index of the group's (cores, freq)
  std::size_t classes = 0;
  std::vector<Seconds> service;  ///< [point * classes + class]
  std::vector<Watts> dynamic;    ///< extra power while serving, same index
  std::vector<Point> points;     ///< ascending frequency

  [[nodiscard]] const Seconds* service_row(std::uint32_t p) const {
    return service.data() + p * classes;
  }
  [[nodiscard]] const Watts* dynamic_row(std::uint32_t p) const {
    return dynamic.data() + p * classes;
  }
};

/// The run's type tables, one per present group in spec order. Every
/// entry comes from workload::unit_throughput / busy_power at the
/// point's (cores, frequency).
std::vector<TypeTable> build_type_tables(
    const model::ClusterSpec& cluster,
    const std::vector<TrafficClass>& classes) {
  double weight_total = 0.0;
  for (const auto& c : classes) {
    require(c.weight > 0.0, "simulate_traffic: non-positive class weight");
    weight_total += c.weight;
  }
  std::vector<TypeTable> tables;
  for (const auto& g : cluster.groups) {
    if (g.count == 0) continue;
    TypeTable& t = tables.emplace_back();
    t.name = g.spec.name;
    t.count = g.count;
    t.idle = g.spec.power.idle;
    t.classes = classes.size();
    for (const auto& c : classes) {
      require(c.workload.has_node(g.spec.name),
              "simulate_traffic: workload '" + c.workload.name +
                  "' lacks demand for '" + g.spec.name + "'");
    }
    const auto add_point = [&](Hertz f) {
      TypeTable::Point row;
      for (const auto& c : classes) {
        const auto& demand = c.workload.demand_for(g.spec.name);
        const Seconds service{
            c.workload.units_per_job /
            workload::unit_throughput(demand, g.spec, g.cores(), f)};
        const Watts dynamic =
            workload::busy_power(demand, g.spec, g.cores(), f,
                                 c.workload.power_scale_for(g.spec.name)) -
            t.idle;
        t.service.push_back(service);
        t.dynamic.push_back(dynamic);
        row.busy_worst = std::max(row.busy_worst, dynamic);
        row.mean_service += service * (c.weight / weight_total);
      }
      row.busy_worst += t.idle;
      if (row.mean_service.value() > 0.0)
        row.rate = 1.0 / row.mean_service.value();
      t.points.push_back(row);
    };
    const std::size_t steps = g.spec.dvfs.size() + 1;
    t.service.reserve(steps * classes.size());
    t.dynamic.reserve(steps * classes.size());
    t.points.reserve(steps);
    bool have_configured = false;
    for (const Hertz f : g.spec.dvfs.steps()) {
      if (!have_configured && g.freq().value() < f.value()) {
        t.configured = static_cast<std::uint32_t>(t.points.size());
        add_point(g.freq());
        have_configured = true;
      }
      if (f.value() == g.freq().value()) {
        t.configured = static_cast<std::uint32_t>(t.points.size());
        have_configured = true;
      }
      add_point(f);
    }
    if (!have_configured) {
      t.configured = static_cast<std::uint32_t>(t.points.size());
      add_point(g.freq());
    }
  }
  require(!tables.empty(), "simulate_traffic: empty cluster");
  return tables;
}

/// One physical node: its type, its operating point with that point's
/// table rows (the fields cluster::choose_node reads) and its live queue
/// and power state.
struct Node {
  const Seconds* service = nullptr;  ///< by class, at `point`
  const Watts* dynamic = nullptr;    ///< by class, at `point`
  std::uint64_t queued = 0;
  Seconds free_at{};
  std::uint64_t served = 0;
  Seconds busy_time{};
  std::uint32_t type = 0;   ///< index into the run's TypeTables
  std::uint32_t point = 0;  ///< current operating-point index
  // --- closed-loop state; meaningful only under a controller ---
  control::PowerState pstate = control::PowerState::kActive;
  Seconds sleep_since{};  ///< start of the current sleep interval
  Seconds window_busy{};  ///< busy time credited since the last tick
};

std::size_t node_count(const std::vector<TypeTable>& tables) {
  std::size_t total = 0;
  for (const TypeTable& t : tables) total += t.count;
  return total;
}

/// The nodes of shard `shard` of `shards`: global node k (types in table
/// order, `count` each) goes to shard k % shards, at its configured point.
std::vector<Node> shard_nodes(const std::vector<TypeTable>& tables,
                              std::size_t shard, std::size_t shards) {
  const std::size_t total = node_count(tables);
  std::vector<Node> nodes;
  nodes.reserve(total / shards + (shard < total % shards ? 1 : 0));
  std::size_t k = 0;
  for (std::uint32_t t = 0; t < tables.size(); ++t) {
    for (unsigned j = 0; j < tables[t].count; ++j, ++k) {
      if (k % shards != shard) continue;
      const std::uint32_t p = tables[t].configured;
      nodes.push_back(Node{.service = tables[t].service_row(p),
                           .dynamic = tables[t].dynamic_row(p),
                           .type = t,
                           .point = p});
    }
  }
  return nodes;
}

/// Per-class normalized cumulative weight distribution (the weights are
/// positive: build_type_tables checked them).
std::vector<double> cumulative_weights(
    const std::vector<TrafficClass>& classes) {
  double total = 0.0;
  for (const auto& c : classes) total += c.weight;
  std::vector<double> cumulative;
  double acc = 0.0;
  for (const auto& c : classes) {
    acc += c.weight / total;
    cumulative.push_back(acc);
  }
  cumulative.back() = 1.0;
  return cumulative;
}

/// An engine's per-class latency sketches (every completion's wait,
/// service and sojourn) plus the class's ledger counters: the engine's
/// one ledger. The run's totals and summaries merge these. Every
/// completion writes it, and the shard engines' ledgers are allocated
/// back to back on one thread, so each fills whole cache lines of its
/// own: a line shared by two shards slowed 4-shard runs by up to 9%.
struct alignas(64) ClassSamples {
  LatencySketch wait, service, sojourn;
  std::uint64_t offered = 0, admitted = 0, shed = 0, retries = 0,
                completed = 0, failed = 0, slo_violations = 0;
  Joules dynamic_energy{};
};

/// A replay feed's source: a time-sorted arrival array that may still be
/// growing. Values below `published` are final (the producer writes
/// them, then release-stores the count), and once `done` is set the
/// count is final too. A caller's whole vector is the fully published
/// case.
struct ReplaySource {
  const Arrival* data = nullptr;
  std::uint64_t planned = 0;  ///< sequence numbers a claiming feed takes
  std::atomic<std::uint64_t> published{0};
  std::atomic<bool> done{false};

  /// Publishes the first `count` values; `last` ends the source.
  void publish(std::uint64_t count, bool last) {
    published.store(count, std::memory_order_release);
    if (last) done.store(true, std::memory_order_release);
  }
};

/// The arrival stream of a sharded run: one sequential generator (the
/// same stream for any shard count) dealt round-robin into per-shard
/// slices. Each slice is reserved to its planned size up front, so the
/// producer appends without moving it while its shard replays what is
/// published below. The producer runs as a pool task beside the shards,
/// or to completion before they start.
class ShardStream {
 public:
  /// Plans the slices of `requests` arrivals drawn from `gen` with `rng`
  /// (times, then a class coin on `cumulative` per arrival when there is
  /// more than one class), in the order of a serial loop.
  ShardStream(std::size_t shards, std::uint64_t requests,
              std::unique_ptr<ArrivalProcess> gen, Rng rng,
              const std::vector<double>& cumulative)
      : slices_(shards),
        sources_(shards),
        requests_(requests),
        gen_(std::move(gen)),
        rng_(rng),
        cumulative_(cumulative) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t planned =
          requests / shards + (s < requests % shards ? 1 : 0);
      slices_[s].reserve(planned);
      sources_[s].data = slices_[s].data();
      sources_[s].planned = planned;
    }
  }
  ShardStream(const ShardStream&) = delete;
  ShardStream& operator=(const ShardStream&) = delete;
  /// Joins a producer still running when the run unwinds early.
  ~ShardStream() {
    if (producer_.valid()) producer_.wait();
  }

  [[nodiscard]] ReplaySource& source(std::size_t s) { return sources_[s]; }

  /// Produces the stream: on the global pool when `pipelined`, else
  /// here, to completion.
  void start(bool pipelined) {
    if (pipelined)
      producer_ = ThreadPool::global().submit([this] { produce(); });
    else
      produce();
  }

  /// Waits for a pooled producer; rethrows what it threw.
  void finish() {
    if (producer_.valid()) producer_.get();
  }

 private:
  /// Arrivals per shard between two publications.
  static constexpr std::uint64_t kBlock = 4096;

  void produce() {
    const std::size_t shards = slices_.size();
    const auto publish = [&](bool last) {
      for (std::size_t s = 0; s < shards; ++s)
        sources_[s].publish(slices_[s].size(), last);
    };
    try {
      Seconds t{0.0};
      std::size_t shard = 0;
      std::uint64_t until_publish = kBlock * shards;
      for (std::uint64_t k = 0; k < requests_; ++k) {
        t = gen_->next(t, rng_);
        if (!(t.value() < std::numeric_limits<double>::infinity())) break;
        std::uint32_t cls = 0;
        if (cumulative_.size() > 1) {
          const double coin = rng_.uniform01();
          while (cls + 1 < cumulative_.size() && coin > cumulative_[cls])
            ++cls;
        }
        slices_[shard].push_back(Arrival{t, cls});
        if (++shard == shards) shard = 0;
        if (--until_publish == 0) {
          publish(/*last=*/false);
          until_publish = kBlock * shards;
        }
      }
    } catch (...) {
      publish(/*last=*/true);  // ends the shards' wait
      throw;
    }
    publish(/*last=*/true);
  }

  std::vector<std::vector<Arrival>> slices_;
  std::vector<ReplaySource> sources_;
  std::uint64_t requests_;
  std::unique_ptr<ArrivalProcess> gen_;
  Rng rng_;
  const std::vector<double>& cumulative_;
  std::future<void> producer_;
};

/// One in-flight request attempt; retries carry the same first_arrival
/// and arrival index. Sized so the hot-path callback captures below
/// stay within des::Callback's inline buffer.
struct Request {
  std::uint64_t index = 0;  ///< arrival index (record_requests join key)
  Seconds first_arrival{};
  std::uint32_t cls = 0;
  std::uint32_t attempt = 1;
};
static_assert(sizeof(Request) <= 24, "Request must stay callback-inline");

/// The per-event-loop simulation engine: one per shard (single-shard runs
/// use exactly one over all nodes, preserving the seed code path's event
/// and RNG order byte-for-byte).
///
/// Arrivals enter through one of two feeds, each holding one pending DES
/// event at a time: the generator pump (single-shard generated runs; the
/// class coin, node draws and generator share the engine's RNG in the
/// seed code's interleaving) or the replay feed over a ReplaySource
/// (assigned-arrival runs, and each shard's dealt slice of a sharded
/// run). Completions fold into the per-class ledgers and sketches
/// (ClassSamples), which the run's totals and summaries merge.
///
/// Every callback this engine schedules captures at most {Engine*, node
/// index and operating point (32 bits each), Request, Seconds} — 48
/// bytes — so no event allocates (static_asserted at each schedule site
/// against des::Callback::stores_inline).
///
/// With a controller installed (options.control.enabled()) the engine
/// doubles as the control::Actuator: ticks are scheduled as ordinary DES
/// events, node sleep/wake and operating-point changes move the live
/// nodes between table rows, and every control branch is guarded by
/// `copts_` so an open-loop run draws and schedules exactly as if control
/// did not exist.
class Engine final : public control::Actuator {
 public:
  Engine(des::Simulator& sim, const std::vector<TrafficClass>& classes,
         const std::vector<double>& cumulative,
         const TrafficOptions& options, const std::vector<TypeTable>& tables,
         std::uint64_t request_budget, Rng rng, std::uint32_t shard_index)
      : sim_(sim),
        classes_(classes),
        cumulative_(cumulative),
        options_(options),
        tables_(tables),
        nodes_(shard_nodes(tables, shard_index, options.shards)),
        request_budget_(request_budget),
        rng_(rng),
        per_class_(classes.size()),
        dispatchable_(nodes_.size()),
        shard_index_(shard_index),
        shard_count_(static_cast<std::uint32_t>(options.shards)) {
    if (options.admission.bucket_enabled()) {
      const double split = static_cast<double>(options.shards);
      bucket_ = std::make_unique<TokenBucket>(
          options.admission.bucket_rate_per_s / split,
          std::max(1.0, options.admission.bucket_burst / split));
    }
    if (options.record_requests) records_.reserve(request_budget);
    if (options_.control.enabled()) {
      copts_ = &options_.control;
      // Each shard's controller clone governs its node slice against a
      // proportional share of any global budget.
      shard_share_ = static_cast<double>(nodes_.size()) /
                     static_cast<double>(node_count(tables));
      controller_ = copts_->controller->clone();
      window_shed_.assign(classes.size(), 0);
      window_sojourns_.resize(classes.size());
    }
    // Streaming telemetry: a per-shard Collector fed by the event hooks
    // below. Purely observational (no RNG draws, no DES events), so the
    // simulation outcome is byte-identical with it on or off.
    if (options_.stream.enabled()) {
      std::vector<obs::stream::NodeClassInfo> cls(tables.size());
      for (std::size_t t = 0; t < tables.size(); ++t)
        cls[t].name = tables[t].name;
      std::vector<Watts> floors(tables.size(), Watts{0.0});
      for (const Node& n : nodes_) {
        ++cls[n.type].nodes;
        floors[n.type] += tables[n.type].idle;
      }
      stream_ = std::make_unique<obs::stream::Collector>(
          options_.stream, std::move(cls), std::move(floors));
    }
  }

  /// Schedules the tick chain (t = 0 first); no-op without a controller.
  /// The chain self-terminates once arrivals are exhausted and the
  /// system has drained, so sim.run() still completes.
  void start_control() {
    if (copts_ == nullptr) return;
    auto cb = [this]() { periodic_tick(); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim_.schedule_at(Seconds{0.0}, std::move(cb));
  }

  /// Generator pump (single-shard generated runs): the generator is
  /// sampled inside the event loop, exactly like the seed code.
  void start_pump(const ArrivalProcess& arrivals) {
    gen_ = arrivals.clone();
    const Seconds first = gen_->next(Seconds{0.0}, rng_);
    if (first.value() < std::numeric_limits<double>::infinity())
      schedule_pump(first);
    else
      arrivals_done_ = true;
  }

  /// Replay feed: a time-sorted source owned by the caller (the fed
  /// path's assigned arrivals, or one shard's dealt slice), scheduled
  /// lazily — each firing admits one arrival and schedules the next,
  /// mirroring the generator pump's event cost. Element j carries the
  /// global arrival index j * shards + shard (round-robin dealing). A
  /// slice still being produced is read only below its published count;
  /// the feed waits at that count until more is published or the
  /// stream ends.
  ///
  /// Same-instant order: with `claim_order` the source claims its planned
  /// DES sequence numbers now, so each arrival runs ahead of every
  /// same-instant event scheduled later, as if the whole slice had been
  /// scheduled here — the order of a sharded run, whose stream is
  /// planned up front. Numbers a short stream leaves unused are gaps
  /// that reorder nothing. Without it each arrival takes its number when
  /// scheduled, like the pump's, so replaying a generated stream matches
  /// the generated run.
  void start_replay(ReplaySource& source, bool claim_order) {
    replay_ = &source;
    if (claim_order) replay_seq_ = sim_.claim_sequence(source.planned);
    if (!replay_has(0)) {
      arrivals_done_ = true;
      return;
    }
    schedule_replay(source.data[0].t);
  }

  // ---- merged outputs ----
  /// The two shed causes; every other total comes from the per-class
  /// ledgers, whose `shed` merges both.
  std::uint64_t shed_bucket = 0, shed_queue = 0;
  [[nodiscard]] Seconds makespan() const { return makespan_; }
  [[nodiscard]] Joules dynamic_energy() const { return dynamic_energy_; }
  [[nodiscard]] std::vector<ClassSamples>& per_class() { return per_class_; }
  [[nodiscard]] std::vector<Node>& nodes() { return nodes_; }
  [[nodiscard]] control::ControlSummary& control_summary() { return csum_; }
  [[nodiscard]] std::vector<std::pair<double, double>>& ledger() {
    return ledger_;
  }
  [[nodiscard]] obs::stream::Collector* stream() { return stream_.get(); }
  [[nodiscard]] std::vector<RequestRecord>& records() { return records_; }

  /// Closes open sleep intervals and integrates the gating savings,
  /// clipped to the run's makespan (the idle-floor baseline the savings
  /// are deducted from only spans [0, makespan]).
  void finalize_control(Seconds makespan) {
    if (copts_ == nullptr) return;
    for (const Node& n : nodes_) {
      if (n.pstate == control::PowerState::kSleeping) {
        sleep_spans_.push_back(
            {n.sleep_since,
             Seconds{std::numeric_limits<double>::infinity()},
             idle(n) - copts_->sleep_power});
      }
    }
    Joules savings{0.0};
    for (const SleepSpan& s : sleep_spans_) {
      const double a = std::min(s.start.value(), makespan.value());
      const double b = std::min(s.end.value(), makespan.value());
      if (b > a) savings += s.delta * Seconds{b - a};
    }
    csum_.gating_savings = savings;
    csum_.enabled = true;
    csum_.controller = controller_->name();
  }

 private:
  void schedule_pump(Seconds t) {
    auto cb = [this]() { pump_arrival(); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim_.schedule_at(t, std::move(cb));
  }

  /// One pump firing: admit an arrival (class drawn here) and schedule
  /// the next one. Mirrors the seed code's draw order: class coin, then
  /// attempt (which may draw for node picks), then the generator.
  void pump_arrival() {
    if (offered_ >= request_budget_) {
      arrivals_done_ = true;
      return;
    }
    std::size_t cls = 0;
    if (classes_.size() > 1) {
      const double coin = rng_.uniform01();
      while (cls + 1 < classes_.size() && coin > cumulative_[cls]) ++cls;
    }
    arrive(cls, offered_);
    const Seconds next = gen_->next(sim_.now(), rng_);
    if (next.value() < std::numeric_limits<double>::infinity())
      schedule_pump(next);
    else
      arrivals_done_ = true;
  }

  void schedule_replay(Seconds t) {
    auto cb = [this]() { replay_arrival(); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    if (replay_seq_)
      sim_.schedule_claimed(t, *replay_seq_ + replay_cursor_, std::move(cb));
    else
      sim_.schedule_at(t, std::move(cb));
  }

  /// One replay firing: admit the arrival at the cursor and lazily
  /// schedule the next one (times are sorted ascending, so the next
  /// event is never in the past).
  void replay_arrival() {
    const std::size_t k = replay_cursor_++;
    const bool more = replay_has(replay_cursor_);
    if (!more) arrivals_done_ = true;
    arrive(replay_->data[k].cls,
           std::uint64_t{k} * shard_count_ + shard_index_);
    if (more) schedule_replay(replay_->data[replay_cursor_].t);
  }

  /// Whether the source holds arrival `k`; waits while the producer may
  /// still publish it. The count is cached, so a feed ahead of its
  /// producer's last publication reads no atomic.
  bool replay_has(std::uint64_t k) {
    while (k >= replay_published_) {
      // `done` first: once it is set, the count loaded after it is final.
      const bool done = replay_->done.load(std::memory_order_acquire);
      replay_published_ = replay_->published.load(std::memory_order_acquire);
      if (k < replay_published_) return true;
      if (done) return false;
      std::this_thread::yield();
    }
    return true;
  }

  void arrive(std::size_t cls, std::uint64_t index) {
    ++offered_;
    if (copts_ != nullptr) ++window_arrivals_;
    Request req;
    req.cls = static_cast<std::uint32_t>(cls);
    req.index = index;
    req.first_arrival = sim_.now();
    ++per_class_[cls].offered;
    ++inflight_;
    if (stream_ != nullptr) stream_->on_arrival(sim_.now());
    attempt(req);
  }

  // --------------------------------------------------------------- control
  [[nodiscard]] bool work_remaining() const {
    return !arrivals_done_ || inflight_ > 0;
  }

  /// The most fixed-interval ticks one engine runs: ticks grow with the
  /// makespan over control.period, not with requests, so a run that
  /// would pass the cap is rejected instead of ticked through.
  static constexpr std::uint64_t kMaxTicks = std::uint64_t{1} << 17;

  /// Fixed-interval tick chain; stops once the run has drained so the
  /// event queue empties and sim.run() returns.
  void periodic_tick() {
    if (!work_remaining()) return;
    if (csum_.ticks - csum_.event_ticks >= kMaxTicks) {
      throw PreconditionError(
          "control: the run outlasts " + std::to_string(kMaxTicks) +
          " control periods; raise control.period");
    }
    run_tick(/*event=*/false);
    auto cb = [this]() { periodic_tick(); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim_.schedule_at(sim_.now() + copts_->period, std::move(cb));
  }

  /// Schedules a near-immediate extra tick on congestion signals (queue
  /// sheds), rate-limited by min_event_spacing.
  void request_event_tick() {
    if (copts_ == nullptr || event_tick_pending_) return;
    if (sim_.now() - last_tick_ < copts_->min_event_spacing) return;
    event_tick_pending_ = true;
    auto cb = [this]() {
      event_tick_pending_ = false;
      if (work_remaining()) run_tick(/*event=*/true);
    };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim_.schedule_at(sim_.now(), std::move(cb));
  }

  /// One controller tick: snapshot fleet + class-window feedback, invoke
  /// the policy (this engine is the Actuator), reset the window. Draws
  /// no RNG values and touches no request-visible state itself, so a
  /// controller that does not actuate leaves the run byte-identical.
  void run_tick(bool event) {
    const Seconds now = sim_.now();
    const Seconds window = now - last_tick_;
    status_buf_.resize(nodes_.size());
    Watts worst{0.0};
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      control::NodeStatus& st = status_buf_[i];
      st.type = n.type;
      st.point = n.point;
      st.state = n.pstate;
      st.queued = n.queued;
      st.backlog = std::max(Seconds{0.0}, n.free_at - now);
      st.utilization =
          window.value() > 0.0
              ? std::min(1.0, n.window_busy.value() / window.value())
              : 0.0;
      st.idle_power = idle(n);
      st.sleep_power = copts_->sleep_power;
      worst += n.pstate == control::PowerState::kSleeping
                   ? copts_->sleep_power
                   : point_row(n).busy_worst;
    }
    class_buf_.resize(classes_.size());
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      control::ClassFeedback& fb = class_buf_[c];
      fb.slo_latency = classes_[c].slo.enabled() ? classes_[c].slo.latency
                                                 : Seconds{0.0};
      std::vector<double>& sj = window_sojourns_[c];
      fb.window_completed = sj.size();
      fb.window_shed = window_shed_[c];
      fb.window_p99 = Seconds{0.0};
      if (!sj.empty()) {
        // Nearest rank; the window is cleared after the tick, so a
        // partial order is all it needs.
        const std::size_t idx = static_cast<std::size_t>(
            0.99 * static_cast<double>(sj.size() - 1) + 0.5);
        const auto at = sj.begin() + static_cast<std::ptrdiff_t>(idx);
        std::nth_element(sj.begin(), at, sj.end());
        fb.window_p99 = Seconds{*at};
      }
    }

    control::TickContext ctx;
    ctx.now = now;
    ctx.period = copts_->period;
    ctx.window_arrivals_per_s =
        window.value() > 0.0
            ? static_cast<double>(window_arrivals_) / window.value()
            : 0.0;
    ctx.nodes = status_buf_.data();
    ctx.num_nodes = status_buf_.size();
    ctx.classes = class_buf_.data();
    ctx.num_classes = class_buf_.size();
    ctx.worst_case_power = worst;
    ctx.shard_share = shard_share_;

    // Flight recorder: close the loop on the previous record (what
    // actually happened over the window that just ended is this tick's
    // pre-actuation observation), then capture action-count baselines.
    std::uint64_t window_completed = 0;
    Seconds window_p99{0.0};
    for (const control::ClassFeedback& fb : class_buf_) {
      window_completed += fb.window_completed;
      window_p99 = std::max(window_p99, fb.window_p99);
    }
    obs::stream::DecisionRecord* prev = csum_.flight.last();
    if (prev != nullptr && !prev->realized_valid) {
      prev->realized_valid = true;
      prev->realized_power = worst;
      prev->realized_rate_per_s =
          window.value() > 0.0
              ? static_cast<double>(window_completed) / window.value()
              : 0.0;
      prev->realized_p99 = window_p99;
    }
    const std::uint64_t sleeps0 = csum_.sleeps;
    const std::uint64_t wakes0 = csum_.wakes;
    const std::uint64_t points0 = csum_.point_changes;

    controller_->tick(ctx, *this);
    obs::stream::DecisionRecord rec;
    rec.tick = csum_.ticks;
    rec.shard = shard_index_;
    rec.event = event;
    rec.t = now;
    rec.window = window;
    rec.arrivals_per_s = ctx.window_arrivals_per_s;
    rec.observed_power = worst;
    for (const control::NodeStatus& st : status_buf_) {
      rec.queued += st.queued;
      switch (st.state) {
        case control::PowerState::kActive: ++rec.active; break;
        case control::PowerState::kDraining: ++rec.draining; break;
        case control::PowerState::kSleeping: ++rec.sleeping; break;
      }
    }
    rec.window_completed = window_completed;
    for (const control::ClassFeedback& fb : class_buf_) {
      rec.window_shed += fb.window_shed;
    }
    rec.window_p99 = window_p99;
    rec.sleeps = static_cast<std::uint32_t>(csum_.sleeps - sleeps0);
    rec.wakes = static_cast<std::uint32_t>(csum_.wakes - wakes0);
    rec.point_changes =
        static_cast<std::uint32_t>(csum_.point_changes - points0);
    rec.transitions = std::move(tick_transitions_);
    tick_transitions_.clear();
    // Predicted effect of the post-actuation fleet: conservative draw
    // plus the aggregate service rate of nodes able to take work.
    Watts predicted{0.0};
    double rate = 0.0;
    for (const Node& n : nodes_) {
      if (n.pstate == control::PowerState::kSleeping) {
        predicted += copts_->sleep_power;
      } else {
        predicted += point_row(n).busy_worst;
        if (n.pstate == control::PowerState::kActive)
          rate += point_row(n).rate;
      }
    }
    rec.predicted_power = predicted;
    rec.predicted_rate_per_s = rate;
    csum_.flight.append(std::move(rec));
    for (Node& n : nodes_) n.window_busy = Seconds{0.0};
    window_arrivals_ = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      window_sojourns_[c].clear();
      window_shed_[c] = 0;
    }
    last_tick_ = now;
    ++csum_.ticks;
    if (event) ++csum_.event_ticks;
  }

  [[nodiscard]] Watts idle(const Node& n) const {
    return tables_[n.type].idle;
  }
  [[nodiscard]] const TypeTable::Point& point_row(const Node& n) const {
    return tables_[n.type].points[n.point];
  }

  void note_power(Seconds t, Watts delta) {
    if (copts_->record_power_trace)
      ledger_.emplace_back(t.value(), delta.value());
  }

  /// Global node index of a shard-local one (round-robin partition:
  /// shard-local slot k holds global node k * shards + shard).
  [[nodiscard]] std::uint32_t global_node(std::size_t i) const {
    return static_cast<std::uint32_t>(i) * shard_count_ + shard_index_;
  }

  void record_transition(std::size_t i,
                         obs::stream::DecisionRecord::Transition::Kind kind,
                         std::uint32_t from, std::uint32_t to) {
    tick_transitions_.push_back(
        obs::stream::DecisionRecord::Transition{global_node(i), kind, from,
                                                to});
  }

  // ---- control::Actuator ----
  bool sleep_node(std::size_t i) override {
    Node& n = nodes_[i];
    if (n.pstate != control::PowerState::kActive) return false;
    if (dispatchable_ <= 1) return false;  // never strand the dispatcher
    const Seconds now = sim_.now();
    --dispatchable_;
    ++csum_.sleeps;
    if (n.queued == 0 && n.free_at <= now) {
      n.pstate = control::PowerState::kSleeping;
      n.sleep_since = now;
      note_power(now, copts_->sleep_power - idle(n));
      if (stream_ != nullptr)
        stream_->on_floor_delta(n.type, now, copts_->sleep_power - idle(n));
    } else {
      n.pstate = control::PowerState::kDraining;  // sleeps when it empties
    }
    record_transition(i,
                      n.pstate == control::PowerState::kSleeping
                          ? obs::stream::DecisionRecord::Transition::Kind::kSleep
                          : obs::stream::DecisionRecord::Transition::Kind::kDrain,
                      static_cast<std::uint32_t>(control::PowerState::kActive),
                      static_cast<std::uint32_t>(n.pstate));
    return true;
  }

  bool wake_node(std::size_t i) override {
    Node& n = nodes_[i];
    if (n.pstate == control::PowerState::kActive) return false;
    const control::PowerState prev = n.pstate;
    const Seconds now = sim_.now();
    if (n.pstate == control::PowerState::kSleeping) {
      sleep_spans_.push_back(
          {n.sleep_since, now, idle(n) - copts_->sleep_power});
      note_power(now, idle(n) - copts_->sleep_power);
      csum_.wake_energy += copts_->wake_energy;
      ++csum_.wakes;
      if (stream_ != nullptr) {
        stream_->on_floor_delta(n.type, now, idle(n) - copts_->sleep_power);
        stream_->on_wake_energy(n.type, now, copts_->wake_energy);
      }
      // Boot delay: powered and drawing idle, serving only afterwards.
      n.free_at = std::max(n.free_at, now + copts_->wake_delay);
    }
    n.pstate = control::PowerState::kActive;
    ++dispatchable_;
    record_transition(i, obs::stream::DecisionRecord::Transition::Kind::kWake,
                      static_cast<std::uint32_t>(prev),
                      static_cast<std::uint32_t>(control::PowerState::kActive));
    return true;
  }

  bool set_operating_point(std::size_t i, std::uint32_t p) override {
    Node& n = nodes_[i];
    const TypeTable& t = tables_[n.type];
    if (p >= t.points.size() || p == n.point) return false;
    record_transition(i, obs::stream::DecisionRecord::Transition::Kind::kPoint,
                      n.point, p);
    // Future dispatches read the new rows; requests in flight carry the
    // point they were dispatched at.
    n.point = p;
    n.service = t.service_row(p);
    n.dynamic = t.dynamic_row(p);
    ++csum_.point_changes;
    return true;
  }

  [[nodiscard]] std::size_t num_points(std::uint32_t type) const override {
    return tables_[type].points.size();
  }
  [[nodiscard]] Watts busy_power(std::size_t node,
                                 std::uint32_t p) const override {
    return tables_[nodes_[node].type].points[p].busy_worst;
  }
  [[nodiscard]] Seconds mean_service(std::size_t node,
                                     std::uint32_t p) const override {
    return tables_[nodes_[node].type].points[p].mean_service;
  }
  [[nodiscard]] double service_rate(std::size_t node,
                                    std::uint32_t p) const override {
    return tables_[nodes_[node].type].points[p].rate;
  }

  /// Node choice: cluster::choose_node over the active nodes — neither
  /// parked nor draining. dispatchable_ counts them, so with none parked
  /// (always, in open loop) kRandom draws uniform_int over the whole
  /// node set.
  std::size_t pick_node(std::size_t cls) {
    const bool all_active = dispatchable_ == nodes_.size();
    return cluster::choose_node(
        options_.policy, nodes_, cls, sim_.now(), dispatchable_,
        [&](std::size_t i) {
          return all_active ||
                 nodes_[i].pstate == control::PowerState::kActive;
        },
        rr_cursor_, rng_);
  }

  void attempt(Request req) {
    const Seconds now = sim_.now();

    if (bucket_ && !bucket_->try_acquire(now)) {
      ++shed_bucket;
      ++per_class_[req.cls].shed;
      if (copts_ != nullptr) ++window_shed_[req.cls];
      if (stream_ != nullptr) stream_->on_shed(now);
      reject(req);
      return;
    }

    const std::size_t i = pick_node(req.cls);
    if (options_.admission.shedding_enabled() &&
        nodes_[i].queued >= options_.admission.max_queue_depth) {
      ++shed_queue;
      ++per_class_[req.cls].shed;
      if (copts_ != nullptr) {
        ++window_shed_[req.cls];
        request_event_tick();  // queue shed = congestion signal
      }
      if (stream_ != nullptr) stream_->on_shed(now);
      reject(req);
      return;
    }

    ++per_class_[req.cls].admitted;
    Node& n = nodes_[i];
    ++n.queued;
    const Seconds start = std::max(now, n.free_at);
    const Seconds wait = start - now;
    const Seconds done = start + n.service[req.cls];
    n.free_at = done;
    if (copts_ != nullptr) {
      if (n.pstate != control::PowerState::kActive)
        csum_.all_dispatches_available = false;
      note_power(start, n.dynamic[req.cls]);
      note_power(done, n.dynamic[req.cls] * -1.0);
    }
    if (stream_ != nullptr)
      stream_->on_dispatch(n.type, now, start, done, n.dynamic[req.cls]);
    // The kernel hot path: {Engine*, node, point, Request, Seconds} is
    // exactly des::Callback's 48-byte inline budget — no allocation per
    // event. The point fixes the request's terms at dispatch.
    auto cb = [this, node = static_cast<std::uint32_t>(i), point = n.point,
               req, wait]() { finish(node, point, req, wait); };
    static_assert(des::Callback::stores_inline<decltype(cb)>);
    sim_.schedule_at(done, std::move(cb));
  }

  void reject(Request req) {
    if (req.attempt < options_.retry.max_attempts) {
      ++per_class_[req.cls].retries;
      const Seconds delay = options_.retry.backoff_after(req.attempt);
      ++req.attempt;
      auto cb = [this, req]() { attempt(req); };
      static_assert(des::Callback::stores_inline<decltype(cb)>);
      sim_.schedule_in(delay, std::move(cb));
    } else {
      ++per_class_[req.cls].failed;
      makespan_ = std::max(makespan_, sim_.now());
      --inflight_;
      if (options_.record_requests)
        record(RequestRecord{req.index, req.cls, 1,
                             sim_.now() - req.first_arrival});
    }
  }

  /// Files a terminal outcome at its slot in this engine's arrival
  /// order (index / shards), so the records need no sort. A slot past the
  /// end grows the vector within its request_budget reservation, and
  /// pages are touched only as requests terminate.
  void record(const RequestRecord& rec) {
    const std::size_t slot = rec.index / shard_count_;
    if (slot >= records_.size()) records_.resize(slot + 1);
    records_[slot] = rec;
  }

  void finish(std::uint32_t node_index, std::uint32_t point, Request req,
              Seconds wait) {
    const std::size_t cls = req.cls;
    const Seconds first_arrival = req.first_arrival;
    Node& node = nodes_[node_index];
    --node.queued;
    ++node.served;
    // Service time and dynamic power are fixed at dispatch: a controller
    // may have moved the node's point since, so charge the terms of the
    // point the request was dispatched at.
    const TypeTable& t = tables_[node.type];
    const Seconds service = t.service_row(point)[cls];
    const Watts dynamic = t.dynamic_row(point)[cls];
    node.busy_time += service;
    const Joules joules = dynamic * service;
    dynamic_energy_ += joules;
    per_class_[cls].dynamic_energy += joules;

    const Seconds sojourn = sim_.now() - first_arrival;
    per_class_[cls].wait.add(wait.value());
    per_class_[cls].service.add(service.value());
    per_class_[cls].sojourn.add(sojourn.value());
    ++per_class_[cls].completed;
    if (options_.record_requests)
      record(RequestRecord{req.index, req.cls, 0, sojourn});
    if (classes_[cls].slo.enabled() && sojourn > classes_[cls].slo.latency)
      ++per_class_[cls].slo_violations;
    makespan_ = std::max(makespan_, sim_.now());
    --inflight_;
    if (stream_ != nullptr)
      stream_->on_complete(node.type, sim_.now(), sojourn);
    if (copts_ != nullptr) {
      node.window_busy += service;
      window_sojourns_[cls].push_back(sojourn.value());
      if (node.pstate == control::PowerState::kDraining && node.queued == 0) {
        node.pstate = control::PowerState::kSleeping;
        node.sleep_since = sim_.now();
        note_power(sim_.now(), copts_->sleep_power - t.idle);
        if (stream_ != nullptr) {
          stream_->on_floor_delta(node.type, sim_.now(),
                                  copts_->sleep_power - t.idle);
        }
      }
    }
  }

  des::Simulator& sim_;
  const std::vector<TrafficClass>& classes_;
  const std::vector<double>& cumulative_;
  const TrafficOptions& options_;
  const std::vector<TypeTable>& tables_;
  std::vector<Node> nodes_;
  std::uint64_t request_budget_;
  std::uint64_t offered_ = 0;  ///< first-attempt arrivals: the pump's count
  Rng rng_;
  std::unique_ptr<ArrivalProcess> gen_;
  std::unique_ptr<TokenBucket> bucket_;
  std::size_t rr_cursor_ = 0;
  std::uint64_t inflight_ = 0;
  Seconds makespan_{};
  Joules dynamic_energy_{};
  std::vector<ClassSamples> per_class_;
  // --- closed-loop state (inert without a controller) ---
  const control::ControlOptions* copts_ = nullptr;
  std::unique_ptr<control::Controller> controller_;
  double shard_share_ = 1.0;
  std::size_t dispatchable_ = 0;  ///< active nodes (all, in open loop)
  Seconds last_tick_{};
  bool event_tick_pending_ = false;
  bool arrivals_done_ = false;
  ReplaySource* replay_ = nullptr;
  std::size_t replay_cursor_ = 0;
  std::uint64_t replay_published_ = 0;  ///< last count read from replay_
  std::optional<std::uint64_t> replay_seq_;  ///< first claimed number
  std::vector<RequestRecord> records_;
  std::uint64_t window_arrivals_ = 0;
  std::vector<std::uint64_t> window_shed_;
  std::vector<std::vector<double>> window_sojourns_;
  std::vector<control::NodeStatus> status_buf_;
  std::vector<control::ClassFeedback> class_buf_;
  control::ControlSummary csum_;
  struct SleepSpan {
    Seconds start;
    Seconds end;
    Watts delta;  ///< idle - sleep draw saved while parked
  };
  std::vector<SleepSpan> sleep_spans_;
  /// (time, ΔWatts) events for post-run PowerTrace reconstruction.
  std::vector<std::pair<double, double>> ledger_;
  // --- streaming telemetry (inert without TrafficOptions::stream) ---
  std::unique_ptr<obs::stream::Collector> stream_;
  std::vector<obs::stream::DecisionRecord::Transition> tick_transitions_;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_count_ = 1;
};

}  // namespace

double cluster_capacity_per_s(const model::ClusterSpec& cluster,
                              const std::vector<TrafficClass>& classes) {
  cluster.validate();
  require(!classes.empty(), "cluster_capacity_per_s: no traffic classes");
  double capacity = 0.0;
  for (const TypeTable& t : build_type_tables(cluster, classes)) {
    for (unsigned k = 0; k < t.count; ++k)
      capacity += t.points[t.configured].rate;
  }
  return capacity;
}

namespace {

/// Adds a finished run's ledger to the active observer, once: the
/// result's totals under the `traffic.*` counters and, for a controlled
/// run, the control summary's under `control.*`.
void add_to_observer(const TrafficResult& r) {
  obs::Observer* o = obs::current();
  if (o == nullptr) return;
  obs::MetricsRegistry& m = o->metrics;
  m.add(m.counter("traffic.offered"), r.offered);
  m.add(m.counter("traffic.admitted"), r.admitted);
  m.add(m.counter("traffic.shed"), r.shed_bucket + r.shed_queue);
  m.add(m.counter("traffic.retries"), r.retries);
  m.add(m.counter("traffic.completed"), r.completed);
  m.add(m.counter("traffic.failed"), r.failed);
  if (!r.control.enabled) return;
  m.add(m.counter("control.ticks"), r.control.ticks);
  m.add(m.counter("control.sleeps"), r.control.sleeps);
  m.add(m.counter("control.wakes"), r.control.wakes);
  m.add(m.counter("control.point_changes"), r.control.point_changes);
}

/// Shared implementation: exactly one of `process` (generated stream)
/// or `assigned` (explicit time-sorted arrivals) is non-null. The
/// generated paths execute the exact event and RNG sequence of previous
/// releases; the assigned path reuses the single-shard event loop with
/// the generator pump swapped for the replay feed over the vector.
TrafficResult run_simulation(const model::ClusterSpec& cluster,
                             const std::vector<TrafficClass>& classes,
                             const ArrivalProcess* process,
                             const std::vector<Arrival>* assigned,
                             const TrafficOptions& options) {
  cluster.validate();
  require(!classes.empty(), "simulate_traffic: no traffic classes");
  require(options.requests > 0 || assigned != nullptr,
          "simulate_traffic: need at least one request");
  require(options.retry.max_attempts >= 1,
          "simulate_traffic: retry.max_attempts must be >= 1");
  require(options.shards >= 1, "simulate_traffic: shards must be >= 1");
  const bool controlled = options.control.enabled();
  if (controlled) {
    require(options.control.period.value() > 0.0,
            "simulate_traffic: control.period must be > 0");
    require(options.control.min_event_spacing.value() >= 0.0,
            "simulate_traffic: control.min_event_spacing must be >= 0");
  }

  const std::vector<TypeTable> tables = build_type_tables(cluster, classes);
  const std::size_t total_nodes = node_count(tables);
  require(total_nodes <= std::numeric_limits<std::uint32_t>::max(),
          "simulate_traffic: more nodes than a completion event can index");
  require(options.shards <= total_nodes,
          "simulate_traffic: more shards than nodes");
  const std::vector<double> cumulative = cumulative_weights(classes);
  const std::size_t shard_count = options.shards;

  // The event loops live in the blocks below, so their event arenas are
  // freed before the merge; the merge reads only the engines.
  std::vector<std::unique_ptr<Engine>> engines;
  std::string process_name;

  if (shard_count == 1) {
    // Classic path: one event loop, generator sampled in-loop. This is
    // byte-identical (same RNG draw order, same event sequence) to the
    // pre-sharding implementation. Assigned-arrival runs reuse this loop
    // with the pump swapped for the replay feed over the caller's vector.
    des::Simulator sim;
    engines.push_back(std::make_unique<Engine>(
        sim, classes, cumulative, options, tables,
        assigned != nullptr ? assigned->size() : options.requests,
        Rng(options.seed), /*shard_index=*/0));
    engines[0]->start_control();
    ReplaySource whole;
    if (assigned != nullptr) {
      process_name = "assigned";
      whole.data = assigned->data();
      whole.planned = assigned->size();
      whole.publish(assigned->size(), /*last=*/true);
      engines[0]->start_replay(whole, /*claim_order=*/false);
    } else {
      std::unique_ptr<ArrivalProcess> gen = process->clone();
      process_name = gen->name();
      engines[0]->start_pump(*gen);
    }
    sim.run();
  } else {
    // Sharded path: the arrival stream (time and class of every request)
    // comes from one sequential generator seeded like the single-shard
    // run — the same stream regardless of shard count — dealt round-robin
    // with the nodes across shards, and each shard replays its slice
    // through the replay feed. Shards share no mutable state, so their
    // event loops can run in parallel, with the stream produced beside
    // them.
    std::unique_ptr<ArrivalProcess> gen = process->clone();
    process_name = gen->name();
    ShardStream stream(shard_count, options.requests, std::move(gen),
                       Rng(options.seed), cumulative);
    // One event loop per shard, each in its own allocation: adjacent
    // loops would share cache lines that every event writes.
    std::vector<std::unique_ptr<des::Simulator>> sims;
    for (std::size_t s = 0; s < shard_count; ++s) {
      sims.push_back(std::make_unique<des::Simulator>());
      engines.push_back(std::make_unique<Engine>(
          *sims[s], classes, cumulative, options, tables,
          stream.source(s).planned,
          Rng(options.seed).split(static_cast<unsigned>(s)),
          static_cast<std::uint32_t>(s)));
    }
    // The producer runs beside the shards only when they run on the
    // pool. Otherwise (serial shards, a one-thread pool, or a caller that
    // is itself a pool worker) the shards run inline, and no shard may
    // wait on a task that cannot run, so the stream is produced first.
    const ThreadPool& pool = ThreadPool::global();
    stream.start(/*pipelined=*/options.parallel_shards && pool.size() > 1 &&
                 !pool.on_worker_thread());
    for (std::size_t s = 0; s < shard_count; ++s) {
      // The slice claims its order before the tick chain starts, so a
      // shard's arrival runs ahead of a tick at the same instant.
      engines[s]->start_replay(stream.source(s), /*claim_order=*/true);
      engines[s]->start_control();
    }
    if (options.parallel_shards) {
      parallel_for(
          0, shard_count, [&](std::size_t s) { sims[s]->run(); }, 1);
    } else {
      for (std::size_t s = 0; s < shard_count; ++s) sims[s]->run();
    }
    stream.finish();
  }

  // ------------------------------------------------------------ summaries
  // Merge in shard order — deterministic for a fixed (seed, shards).
  TrafficResult out;
  out.arrival_process = process_name;
  out.shards = shard_count;

  Joules dynamic_energy{0.0};
  Seconds makespan{0.0};
  Watts idle_floor{0.0};
  for (auto& e : engines) {
    for (const ClassSamples& c : e->per_class()) {
      out.offered += c.offered;
      out.admitted += c.admitted;
      out.retries += c.retries;
      out.completed += c.completed;
      out.failed += c.failed;
    }
    out.shed_bucket += e->shed_bucket;
    out.shed_queue += e->shed_queue;
    dynamic_energy += e->dynamic_energy();
    makespan = std::max(makespan, e->makespan());
    for (const Node& n : e->nodes()) idle_floor += tables[n.type].idle;
  }

  if (options.record_requests) {
    // Each engine filed its records by slot, and shard s holds the
    // arrival indices k * shards + s, so interleaving the shards orders
    // the records by index for any shard count.
    if (engines.size() == 1) {
      out.requests = std::move(engines[0]->records());
    } else {
      std::size_t total = 0;
      for (auto& e : engines) total += e->records().size();
      out.requests.resize(total);
      for (std::size_t s = 0; s < engines.size(); ++s) {
        const std::vector<RequestRecord>& recs = engines[s]->records();
        for (std::size_t k = 0; k < recs.size(); ++k)
          out.requests[k * engines.size() + s] = recs[k];
      }
    }
  }

  const Joules idle_energy = idle_floor * makespan;
  out.makespan = makespan;

  if (options.stream.enabled()) {
    std::vector<obs::stream::Collector*> collectors;
    for (auto& e : engines) collectors.push_back(e->stream());
    out.timeline =
        obs::stream::Collector::merge_finalize(collectors, makespan);
  }

  // Shared (non-request-attributable) energy: the idle floor, minus what
  // power gating saved, plus wake transients. With no controller — or a
  // frozen one — savings and wake costs are exactly 0.0, so the
  // arithmetic below reproduces the open-loop energy bit-for-bit.
  Joules shared_energy = idle_energy;
  if (controlled) {
    for (auto& e : engines) e->finalize_control(makespan);
    control::ControlSummary& merged = out.control;
    merged.enabled = true;
    merged.controller = engines[0]->control_summary().controller;
    merged.all_dispatches_available = true;
    for (auto& e : engines) {
      const control::ControlSummary& cs = e->control_summary();
      merged.ticks += cs.ticks;
      merged.event_ticks += cs.event_ticks;
      merged.sleeps += cs.sleeps;
      merged.wakes += cs.wakes;
      merged.point_changes += cs.point_changes;
      merged.gating_savings += cs.gating_savings;
      merged.wake_energy += cs.wake_energy;
      merged.all_dispatches_available =
          merged.all_dispatches_available && cs.all_dispatches_available;
    }
    std::vector<const obs::stream::FlightRecorder*> recorders;
    for (auto& e : engines) recorders.push_back(&e->control_summary().flight);
    merged.flight = obs::stream::FlightRecorder::merge(recorders);
    shared_energy = shared_energy - merged.gating_savings +
                    merged.wake_energy;
    if (options.control.record_power_trace) {
      // Rebuild the rack power profile from the per-engine delta
      // ledgers: base idle floor at t = 0, then every dispatch /
      // completion / sleep / wake delta, coalesced per timestamp.
      std::vector<std::pair<double, double>> deltas;
      deltas.emplace_back(0.0, idle_floor.value());
      for (auto& e : engines) {
        deltas.insert(deltas.end(), e->ledger().begin(), e->ledger().end());
      }
      std::stable_sort(deltas.begin(), deltas.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      double level = 0.0;
      std::size_t k = 0;
      while (k < deltas.size()) {
        const double t = deltas[k].first;
        while (k < deltas.size() && deltas[k].first == t) {
          level += deltas[k].second;
          ++k;
        }
        merged.trace.step(Seconds{t}, Watts{level});
      }
    }
  }

  out.energy = shared_energy + dynamic_energy;
  if (makespan.value() > 0.0) out.average_power = out.energy / makespan;
  if (out.completed > 0)
    out.energy_per_request = out.energy / static_cast<double>(out.completed);

  // The latency summaries: each class merges its engines' sketches in
  // engine order, and the overall ones merge the classes in class order.
  constexpr LatencySketch ClassSamples::*kSketch[3] = {
      &ClassSamples::wait, &ClassSamples::service, &ClassSamples::sojourn};
  constexpr LatencySummary ClassStats::*kClassSummary[3] = {
      &ClassStats::wait, &ClassStats::service, &ClassStats::sojourn};
  constexpr LatencySummary TrafficResult::*kOverall[3] = {
      &TrafficResult::wait, &TrafficResult::service, &TrafficResult::sojourn};
  LatencySketch overall[3];
  out.classes.resize(classes.size());
  for (std::size_t s = 0; s < classes.size(); ++s) {
    ClassStats& st = out.classes[s];
    st.name = classes[s].workload.name;
    st.slo = classes[s].slo;
    Joules class_dynamic{0.0};
    LatencySketch merged[3];
    for (auto& e : engines) {
      const ClassSamples& src = e->per_class()[s];
      st.offered += src.offered;
      st.admitted += src.admitted;
      st.shed += src.shed;
      st.retries += src.retries;
      st.completed += src.completed;
      st.failed += src.failed;
      st.slo_violations += src.slo_violations;
      class_dynamic += src.dynamic_energy;
      for (std::size_t f = 0; f < 3; ++f) merged[f].merge(src.*kSketch[f]);
    }
    for (std::size_t f = 0; f < 3; ++f) {
      st.*kClassSummary[f] = merged[f].summary();
      overall[f].merge(merged[f]);
    }
    if (st.completed > 0 && out.completed > 0) {
      // Shared energy attributed by completion share, dynamic exactly.
      const Joules idle_share =
          shared_energy * (static_cast<double>(st.completed) /
                           static_cast<double>(out.completed));
      st.energy_per_request =
          (idle_share + class_dynamic) / static_cast<double>(st.completed);
    }
  }
  for (std::size_t f = 0; f < 3; ++f)
    out.*kOverall[f] = overall[f].summary();

  // Per node type name, in shard order of first appearance (dispatch-
  // result convention: busy fraction is averaged over the type's nodes).
  for (auto& e : engines) {
    for (const Node& n : e->nodes()) {
      const std::string& name = tables[n.type].name;
      auto it = std::find_if(
          out.nodes.begin(), out.nodes.end(),
          [&](const cluster::NodeLoad& l) { return l.node_name == name; });
      if (it == out.nodes.end()) {
        out.nodes.push_back(cluster::NodeLoad{name, 0, 0.0});
        it = out.nodes.end() - 1;
      }
      it->jobs_served += n.served;
      it->busy_fraction += n.busy_time.value();
    }
  }
  for (auto& l : out.nodes) {
    double count = 0;
    for (const TypeTable& t : tables)
      if (t.name == l.node_name) count += t.count;
    if (makespan.value() > 0.0)
      l.busy_fraction /= std::max(1.0, count) * makespan.value();
  }
  add_to_observer(out);
  return out;
}

}  // namespace

TrafficResult simulate_traffic(const model::ClusterSpec& cluster,
                               const std::vector<TrafficClass>& classes,
                               const ArrivalProcess& arrivals,
                               const TrafficOptions& options) {
  return run_simulation(cluster, classes, &arrivals, nullptr, options);
}

TrafficResult simulate_traffic(const model::ClusterSpec& cluster,
                               const std::vector<TrafficClass>& classes,
                               const std::vector<Arrival>& arrivals,
                               const TrafficOptions& options) {
  require(options.shards == 1,
          "simulate_traffic: assigned arrivals require shards == 1 (the "
          "routing tier owns any parallelism)");
  require(std::is_sorted(arrivals.begin(), arrivals.end(),
                         [](const Arrival& a, const Arrival& b) {
                           return a.t < b.t;
                         }),
          "simulate_traffic: assigned arrivals must be sorted by time");
  for (const Arrival& a : arrivals) {
    require(a.cls < classes.size(),
            "simulate_traffic: assigned arrival class out of range");
    require(a.t.value() >= 0.0,
            "simulate_traffic: assigned arrival before t = 0");
  }
  return run_simulation(cluster, classes, nullptr, &arrivals, options);
}

JsonValue TrafficResult::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("schema_version", JsonValue::number(std::int64_t{2}));
  o.set("arrival_process", JsonValue::string(arrival_process));
  // Emitted only for sharded runs: the single-shard document stays
  // byte-identical with pre-sharding releases.
  if (shards > 1)
    o.set("shards", JsonValue::number(static_cast<std::int64_t>(shards)));
  o.set("offered", JsonValue::number(static_cast<std::int64_t>(offered)));
  o.set("admitted", JsonValue::number(static_cast<std::int64_t>(admitted)));
  o.set("shed_bucket",
        JsonValue::number(static_cast<std::int64_t>(shed_bucket)));
  o.set("shed_queue",
        JsonValue::number(static_cast<std::int64_t>(shed_queue)));
  o.set("retries", JsonValue::number(static_cast<std::int64_t>(retries)));
  o.set("completed",
        JsonValue::number(static_cast<std::int64_t>(completed)));
  o.set("failed", JsonValue::number(static_cast<std::int64_t>(failed)));
  o.set("makespan_s", JsonValue::number(makespan.value()));
  o.set("wait", wait.to_json());
  o.set("service", service.to_json());
  o.set("sojourn", sojourn.to_json());
  o.set("energy_j", JsonValue::number(energy.value()));
  o.set("average_power_w", JsonValue::number(average_power.value()));
  o.set("energy_per_request_j",
        JsonValue::number(energy_per_request.value()));
  JsonValue cls = JsonValue::array();
  for (const auto& c : classes) cls.push(c.to_json());
  o.set("classes", std::move(cls));
  JsonValue nds = JsonValue::array();
  for (const auto& n : nodes) {
    JsonValue nd = JsonValue::object();
    nd.set("node", JsonValue::string(n.node_name));
    nd.set("requests",
           JsonValue::number(static_cast<std::int64_t>(n.jobs_served)));
    nd.set("busy_fraction", JsonValue::number(n.busy_fraction));
    nds.push(std::move(nd));
  }
  o.set("nodes", std::move(nds));
  return o;
}

}  // namespace hcep::traffic
