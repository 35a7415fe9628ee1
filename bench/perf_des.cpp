// Library performance: discrete-event kernel throughput.
//
// The interesting numbers are the twins; tools/bench_regress.py gates
// the ratios marked (gated), each measured within one run:
//
//   BM_ChurnCalendar vs BM_ChurnLegacy    the full kernel rewrite vs a
//                                         faithful replica of the seed
//                                         kernel (std::priority_queue +
//                                         std::function + top() copy),
//                                         at 64k and 1M pending (gated)
//   BM_ChurnCalendar vs BM_ChurnHeap      calendar queue vs binary heap,
//                                         both on des::Callback
//   BM_ChurnBimodal{Calendar,Legacy}      the traffic simulator's delay
//                                         mix (service completions +
//                                         retry timers) — guards the
//                                         cursor-bucket heap drain (gated)
//   BM_EventQueueChurn{,Legacy}/100000    the same pair at one pending
//                                         event: fixed cost per event
//                                         (gated)
//   BM_CallbackInline vs BM_CallbackHeapSpill
//                                         SBO hit vs heap spill on the
//                                         callback type alone (gated)
//   BM_ShardedTraffic/1..8                end-to-end scaling of the
//                                         sharded traffic simulator
//
// Every loop folds event times into a checksum that feeds
// benchmark::DoNotOptimize, so the compiler cannot dead-code the
// callbacks away and "fast" cannot mean "didn't run". Measured ratios
// and the analysis of where they come from live in docs/PERF.md.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "hcep/cluster/simulator.hpp"
#include "hcep/des/simulator.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/workload/catalog.hpp"

namespace {

using namespace hcep;
using namespace hcep::literals;

// ---------------------------------------------------------------------------
// A faithful replica of the seed DES kernel (pre-rewrite): binary heap via
// std::priority_queue, std::function callbacks, the `Event ev =
// queue_.top()` copy forced by top()'s const& (copying the std::function —
// an extra allocation per pop on top of the one per push), the same
// precondition checks, and noinline methods to match the seed's
// out-of-line definitions in simulator.cpp (no cross-TU inlining).
class LegacySim {
 public:
  [[nodiscard]] Seconds now() const { return now_; }

#if defined(__GNUC__) || defined(__clang__)
#define HCEP_BENCH_NOINLINE __attribute__((noinline))
#else
#define HCEP_BENCH_NOINLINE
#endif

  HCEP_BENCH_NOINLINE void schedule_at(Seconds t, std::function<void()> cb) {
    require(t >= now_, "LegacySim::schedule_at: time lies in the past");
    require(static_cast<bool>(cb), "LegacySim::schedule_at: empty callback");
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }
  HCEP_BENCH_NOINLINE void schedule_in(Seconds delay, std::function<void()> cb) {
    require(delay.value() >= 0.0, "LegacySim::schedule_in: negative delay");
    schedule_at(now_ + delay, std::move(cb));
  }
  HCEP_BENCH_NOINLINE bool step() {
    if (queue_.empty()) return false;
    Event ev = queue_.top();  // const&: copy, then pop
    queue_.pop();
    now_ = ev.time;
    ev.callback();
    return true;
  }
#undef HCEP_BENCH_NOINLINE

  void run() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Seconds time{};
    std::uint64_t seq = 0;
    std::function<void()> callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Steady-state churn: `pending` self-rescheduling events keep the queue at
// a constant depth while `budget` total events execute — the regime where
// scheduler complexity dominates (heap: O(log n) per op at n = pending;
// calendar: O(1) amortized). Each event carries a realistic hot-path
// capture — a context pointer, a 24-byte request record and a Seconds, 40
// bytes total, the shape traffic::simulate_traffic schedules — which fits
// des::Callback's 48-byte inline budget but spills std::function's
// 16-byte SBO, exactly as the real kernels did before and after the
// rewrite. Delays are continuous uniform in [1us, ~1ms] (no lattice —
// quantized timestamps would gift the calendar artificial bucket
// locality); the bimodal variant mixes 95% short service delays with 5%
// ~1s retry timers, the traffic simulator's distribution.
struct Req {
  std::size_t cls;
  double first_arrival;
  std::uint32_t attempt;
};

template <class Sim, bool Bimodal>
struct ChurnState {
  Sim* sim;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t budget = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  double checksum = 0.0;

  Seconds next_delay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(lcg >> 11) * 0x1.0p-53;
    if constexpr (Bimodal) {
      if (u < 0.95) return Seconds{1e-6 * (1.0 + 997.0 * (u / 0.95))};
      return Seconds{0.5 + (u - 0.95) / 0.05};
    } else {
      return Seconds{1e-6 * (1.0 + 997.0 * u)};
    }
  }
};

template <class Sim, bool B>
void churn_tick(ChurnState<Sim, B>* st, const Req& r, Seconds w) {
  ++st->fired;
  st->checksum += st->sim->now().value() + w.value() + static_cast<double>(r.cls);
  if (st->scheduled < st->budget) {
    ++st->scheduled;
    const Req nr{st->scheduled, st->sim->now().value(), 1};
    const Seconds delay = st->next_delay();
    st->sim->schedule_in(delay, [st, nr, delay] { churn_tick(st, nr, delay); });
  }
}

template <class Sim, bool B>
double run_churn(std::uint64_t pending, std::uint64_t budget) {
  Sim sim;
  ChurnState<Sim, B> st;
  st.sim = &sim;
  st.budget = budget;
  for (std::uint64_t i = 0; i < pending && st.scheduled < budget; ++i) {
    ++st.scheduled;
    const Req r{i, 0.0, 1};
    const Seconds d = st.next_delay();
    auto cb = [stp = &st, r, d] { churn_tick(stp, r, d); };
    if constexpr (std::is_same_v<Sim, des::Simulator> ||
                  std::is_same_v<Sim, des::HeapSimulator>) {
      static_assert(des::Callback::stores_inline<decltype(cb)>);
    }
    sim.schedule_at(d, std::move(cb));
  }
  sim.run();
  if (st.fired != budget) throw std::logic_error("churn under-ran");
  return st.checksum;
}

template <class Sim, bool Bimodal = false>
void churn_bench(benchmark::State& state) {
  const auto pending = static_cast<std::uint64_t>(state.range(0));
  // At least 2M events per iteration regardless of depth: the gate is
  // specified at 1M+ executed events, and a constant budget makes the
  // per-event times comparable across depths.
  const std::uint64_t budget =
      std::max<std::uint64_t>(2 * pending, std::uint64_t{1} << 21);
  for (auto _ : state) {
    double checksum = run_churn<Sim, Bimodal>(pending, budget);
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(budget));
}

void BM_ChurnCalendar(benchmark::State& state) {
  churn_bench<des::Simulator>(state);
}
void BM_ChurnHeap(benchmark::State& state) {
  churn_bench<des::HeapSimulator>(state);
}
void BM_ChurnLegacy(benchmark::State& state) { churn_bench<LegacySim>(state); }
// 65536 pending is cache-resident churn (scheduler instruction cost);
// 1<<20 pending is DRAM-bound churn (a ~56MB event arena — memory-system
// cost). Both execute 2M+ events per iteration.
BENCHMARK(BM_ChurnCalendar)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_ChurnHeap)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_ChurnLegacy)->Arg(65536)->Arg(1 << 20);

void BM_ChurnBimodalCalendar(benchmark::State& state) {
  churn_bench<des::Simulator, true>(state);
}
void BM_ChurnBimodalLegacy(benchmark::State& state) {
  churn_bench<LegacySim, true>(state);
}
BENCHMARK(BM_ChurnBimodalCalendar)->Arg(65536);
BENCHMARK(BM_ChurnBimodalLegacy)->Arg(65536);

// ---------------------------------------------------------------------------
// The seed kernel's churn shape, kept under its original name so numbers
// stay comparable across releases (now runs on the calendar kernel). One
// event is pending at a time, so the scheduler's depth costs nothing and
// the row measures the kernel's fixed cost per event.
template <class Sim>
void event_queue_churn(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    ChurnState<Sim, false> st;
    st.sim = &sim;
    st.budget = events;
    ++st.scheduled;
    sim.schedule_at(Seconds{0.0},
                    [stp = &st] { churn_tick(stp, Req{0, 0.0, 1}, Seconds{}); });
    sim.run();
    benchmark::DoNotOptimize(st.checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}

void BM_EventQueueChurn(benchmark::State& state) {
  event_queue_churn<des::Simulator>(state);
}
void BM_EventQueueChurnLegacy(benchmark::State& state) {
  event_queue_churn<LegacySim>(state);
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(100000);
BENCHMARK(BM_EventQueueChurnLegacy)->Arg(100000);

// ---------------------------------------------------------------------------
// One-shot fan-out: schedule everything, then drain. Stresses bulk insert
// (and the calendar's rebuild heuristics) rather than steady-state churn.
template <class Sim>
void fanout_bench(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Sim sim;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < events; ++i) {
      sim.schedule_at(Seconds{static_cast<double>((i * 7919) % events)},
                      [&fired] { ++fired; });
    }
    sim.run();
    if (fired != events) throw std::logic_error("fan-out under-ran");
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}

void BM_FanOutEvents(benchmark::State& state) {
  fanout_bench<des::Simulator>(state);
}
void BM_FanOutLegacy(benchmark::State& state) { fanout_bench<LegacySim>(state); }
BENCHMARK(BM_FanOutEvents)->Arg(100000);
BENCHMARK(BM_FanOutLegacy)->Arg(100000);

// ---------------------------------------------------------------------------
// The callback type alone: construct + invoke + destroy, inline (40-byte
// capture, SBO hit) vs heap spill (72-byte capture).
void BM_CallbackInline(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::array<std::uint64_t, 4> payload{1, 2, 3, 4};
  for (auto _ : state) {
    auto fn = [&sink, payload] { sink += payload[0] + payload[3]; };
    static_assert(des::Callback::stores_inline<decltype(fn)>);
    des::Callback cb(fn);
    cb();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CallbackInline);

void BM_CallbackHeapSpill(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::array<std::uint64_t, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  for (auto _ : state) {
    auto fn = [&sink, payload] { sink += payload[0] + payload[7]; };
    static_assert(!des::Callback::stores_inline<decltype(fn)>);
    des::Callback cb(fn);
    cb();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CallbackHeapSpill);

// ---------------------------------------------------------------------------
// End-to-end: the cluster simulator (unchanged shape, new kernel under it).
void BM_ClusterSimulation(benchmark::State& state) {
  static const workload::Workload ep = workload::make_workload("EP");
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2), ep);
  for (auto _ : state) {
    cluster::SimOptions opts;
    opts.utilization = 0.6;
    opts.min_jobs = static_cast<std::uint64_t>(state.range(0));
    const auto r = cluster::simulate(m, opts);
    benchmark::DoNotOptimize(r.jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ClusterSimulation)->Arg(200)->Arg(2000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sharded traffic scaling: the same 200k-request run on 1/2/4/8 event-loop
// shards (wall-clock, hence UseRealTime — the shards run on the pool).
void BM_ShardedTraffic(benchmark::State& state) {
  static const auto kCatalog = workload::paper_workloads();
  const workload::Workload* ep = nullptr;
  for (const auto& w : kCatalog)
    if (w.name == "EP") ep = &w;
  const auto cluster_spec = model::make_a9_k10_cluster(8, 4);
  const auto arrivals = traffic::make_poisson(2000.0);
  for (auto _ : state) {
    traffic::TrafficOptions o;
    o.requests = 200000;
    o.seed = 42;
    o.shards = static_cast<std::size_t>(state.range(0));
    const auto r = traffic::simulate_traffic(
        cluster_spec, {traffic::TrafficClass{*ep, 1.0, {}}}, *arrivals, o);
    if (r.completed != o.requests) throw std::logic_error("traffic under-ran");
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          200000);
}
BENCHMARK(BM_ShardedTraffic)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
