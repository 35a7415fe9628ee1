// Discrete-event simulation kernel.
//
// A deterministic event-queue engine: callbacks scheduled at absolute or
// relative simulated times, executed in (time, insertion) order. The
// cluster simulator (hcep::cluster) and the request-level traffic
// simulator (hcep::traffic) build on top of this.
//
// The kernel is a thin loop over a pluggable Scheduler (scheduler.hpp):
//
//   Simulator      = BasicSimulator<CalendarScheduler>   the default —
//                    O(1) amortized scheduling, allocation-free events
//   HeapSimulator  = BasicSimulator<HeapScheduler>       the binary-heap
//                    oracle the calendar queue is cross-checked against
//
// Both execute identical schedules in byte-identical order: the
// (time, seq) total order is the contract, the scheduler only changes
// how fast it is realized. Callbacks are des::Callback — captures up to
// 48 bytes are stored inside the event record, so scheduling an event
// allocates nothing on the hot path (see callback.hpp).
//
// A sharded traffic run keeps one Simulator per shard: its shards share
// no events, so each loop runs to completion on its own (in parallel on
// the thread pool when asked), and claim_sequence/schedule_claimed let a
// lazily replayed arrival slice keep the order it would have had
// scheduled whole.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "hcep/des/callback.hpp"
#include "hcep/des/scheduler.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/units.hpp"

namespace hcep::des {

/// Back-compat alias: the kernel's callback type. (The seed kernel used
/// std::function<void()>; des::Callback accepts the same lambdas without
/// the per-event heap allocation.)
using EventCallback = Callback;

/// alignas(16) keeps sizeof at 208 bytes (the members take 200): a
/// sharded traffic run allocates every shard's simulator beside its
/// engine, and the shards' speed moves with where those blocks fall
/// (ROADMAP item 6).
template <Scheduler Sched>
class alignas(16) BasicSimulator {
 public:
  /// Binds to obs::current() at construction (null sink by default) and
  /// registers its `des.events` counter there; run() and run_until() add
  /// the events they executed to it when they return. A traffic shard's
  /// simulator is built on the calling thread and run on a pool worker,
  /// so it reports to the caller's observer.
  BasicSimulator() {
    obs_ = obs::current();
    if (obs_ != nullptr) events_metric_ = obs_->metrics.counter("des.events");
  }
  BasicSimulator(const BasicSimulator&) = delete;
  BasicSimulator& operator=(const BasicSimulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must not lie in the past).
  void schedule_at(Seconds t, Callback cb) {
    require(t >= now_, "Simulator::schedule_at: time lies in the past");
    require(static_cast<bool>(cb), "Simulator::schedule_at: empty callback");
    queue_.push(t, next_seq_++, std::move(cb));
  }

  /// Schedule fast path for callables that are not already a Callback:
  /// the lambda is emplaced directly into the scheduler's event record,
  /// so its capture bytes are written exactly once (no type-erased
  /// relocation hops between here and the arena slot).
  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void schedule_at(Seconds t, F&& f) {
    require(t >= now_, "Simulator::schedule_at: time lies in the past");
    insert(t, next_seq_++, std::forward<F>(f));
  }

  /// Claims the next `n` sequence numbers for schedule_claimed. Events at
  /// one instant run in sequence order, so an event scheduled later under
  /// a claimed number still runs ahead of every same-instant event
  /// scheduled after the claim: a stream replayed lazily, one pending
  /// event at a time, keeps the order it would have had scheduled whole.
  [[nodiscard]] std::uint64_t claim_sequence(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `f` at `t` under `seq`, a number claim_sequence returned;
  /// each claimed number is used at most once.
  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void schedule_claimed(Seconds t, std::uint64_t seq, F&& f) {
    require(t >= now_, "Simulator::schedule_claimed: time lies in the past");
    require(seq < next_seq_, "Simulator::schedule_claimed: unclaimed seq");
    insert(t, seq, std::forward<F>(f));
  }

  /// Schedules `cb` after `delay` from now (delay >= 0).
  void schedule_in(Seconds delay, Callback cb) {
    require(delay.value() >= 0.0, "Simulator::schedule_in: negative delay");
    schedule_at(now_ + delay, std::move(cb));
  }

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  void schedule_in(Seconds delay, F&& f) {
    require(delay.value() >= 0.0, "Simulator::schedule_in: negative delay");
    schedule_at<F>(now_ + delay, std::forward<F>(f));
  }

  /// Executes the next event; returns false when the queue is empty.
  /// Reports nothing to the observer: run() and run_until() do.
  bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.pop();
    now_ = ev.time;
    ++processed_;
    ev.callback();
    return true;
  }

  /// Runs events until the queue drains or the next event lies beyond
  /// `horizon`; the clock is finally advanced to exactly `horizon`.
  void run_until(Seconds horizon) {
    require(horizon >= now_, "Simulator::run_until: horizon in the past");
    const std::uint64_t first = processed_;
    while (!queue_.empty() && queue_.peek_time() <= horizon) step();
    now_ = horizon;
    report_events(first);
  }

  /// Runs until the queue drains completely.
  void run() {
    const std::uint64_t first = processed_;
    while (step()) {
    }
    report_events(first);
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  /// Adds the events executed since `first` to the bound observer.
  void report_events(std::uint64_t first) {
    if (obs_ != nullptr) obs_->metrics.add(events_metric_, processed_ - first);
  }

  /// Emplaces the callable straight into the scheduler's event record
  /// when the scheduler supports it.
  template <class F>
  void insert(Seconds t, std::uint64_t seq, F&& f) {
    if constexpr (requires { queue_.emplace(t, seq, std::forward<F>(f)); }) {
      queue_.emplace(t, seq, std::forward<F>(f));
    } else {
      queue_.push(t, seq, Callback(std::forward<F>(f)));
    }
  }

  Sched queue_;
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  obs::Observer* obs_ = nullptr;
  obs::MetricId events_metric_ = 0;
};

/// The production kernel.
using Simulator = BasicSimulator<CalendarScheduler>;
/// The O(log n) oracle (tests cross-check pop order against Simulator).
using HeapSimulator = BasicSimulator<HeapScheduler>;

}  // namespace hcep::des
