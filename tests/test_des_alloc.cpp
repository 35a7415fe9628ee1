// Zero steady-state allocations on the request hot path (docs/PERF.md).
// This binary replaces the global operator new with a counting one, so
// a warm loop can be checked to allocate nothing at all: the DES
// kernel's schedule/step cycle (inline callbacks in a recycled slot
// arena, passing preconditions that build no message), the arrival
// generator every request is drawn from, the token bucket every
// admitted request consults, and the latency sketch every completion
// adds to. Off the hot path, it also bounds what building and writing a
// JSON object allocates, since every result document is written field
// by field; checks that the model's passing preconditions build no
// message, since a sweep or a cluster simulation calls them per
// configuration or per job; checks that writing a registered metric
// allocates nothing, on any thread; and checks that a warm parallel_for
// dispatch, which a sweep makes several times per program, allocates
// only as the pool's task queue takes a new node.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "hcep/des/simulator.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/obs/metrics.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/traffic/admission.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/slo.hpp"
#include "hcep/util/json.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/workload/demand.hpp"
#include "hcep/workload/node_ops.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

// Out of line so the compiler does not pair an inlined free() with the
// operator new it cannot see into and warn of a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// The array and nothrow forms of the standard library forward here.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace hcep;

constexpr int kWarmCycles = 100000;
constexpr int kCountedCycles = 100000;

/// operator new calls made while `f` runs.
template <class F>
std::uint64_t news_during(F&& f) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  f();
  return g_news.load(std::memory_order_relaxed) - before;
}

/// A self-rescheduling event with a jittered delay: every step pops one
/// and schedules its successor, so the pending population stays fixed.
struct Churn {
  des::Simulator* sim;
  Rng* rng;
  std::uint64_t* fired;

  void operator()() const {
    ++*fired;
    sim->schedule_in(Seconds{1.0 + rng->uniform01()}, Churn{*this});
  }
};

TEST(DesAlloc, WarmScheduleStepCyclesAllocateNothing) {
  des::Simulator sim;
  Rng rng(20161004);
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i)
    sim.schedule_at(Seconds{rng.uniform01()}, Churn{&sim, &rng, &fired});
  // Warm-up sweeps the calendar wheel several times over, so every
  // bucket has grown to its working capacity before counting starts.
  for (int i = 0; i < kWarmCycles; ++i) ASSERT_TRUE(sim.step());

  const std::uint64_t news = news_during([&] {
    for (int i = 0; i < kCountedCycles; ++i) sim.step();
  });
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kWarmCycles + kCountedCycles));
  EXPECT_EQ(sim.pending(), 64u);
  EXPECT_EQ(news, 0u);
}

TEST(DesAlloc, ArrivalDrawsAllocateNothing) {
  std::unique_ptr<traffic::ArrivalProcess> gens[] = {
      traffic::make_poisson(100.0),
      traffic::make_deterministic(100.0),
      traffic::make_bursty(50.0, Seconds{2.0}, 300.0, Seconds{0.5}),
      traffic::make_diurnal(100.0, 0.6, Seconds{60.0}),
      traffic::make_mmpp({{100.0, Seconds{1.0}}, {0.0, Seconds{0.5}}}),
  };
  for (const auto& gen : gens) {
    SCOPED_TRACE(gen->name());
    Rng rng(7);
    Seconds now{0.0};
    const std::uint64_t news = news_during([&] {
      for (int i = 0; i < kCountedCycles; ++i) now = gen->next(now, rng);
    });
    EXPECT_GT(now.value(), 0.0);
    EXPECT_EQ(news, 0u);
  }
}

TEST(DesAlloc, TokenBucketCallsAllocateNothing) {
  traffic::TokenBucket bucket(/*rate_per_s=*/100.0, /*burst=*/8.0);
  std::uint64_t admitted = 0;
  const std::uint64_t news = news_during([&] {
    for (int i = 0; i < kCountedCycles; ++i)
      admitted += bucket.try_acquire(Seconds{0.005 * i}) ? 1 : 0;
  });
  EXPECT_GT(admitted, 0u);
  EXPECT_LT(admitted, static_cast<std::uint64_t>(kCountedCycles));
  EXPECT_EQ(news, 0u);
}

TEST(DesAlloc, WarmLatencySketchAddsAllocateNothing) {
  // A sketch allocates only to extend its bucket range; once the range
  // covers the values, adds allocate nothing.
  Rng rng(20161017);
  traffic::LatencySketch sketch;
  sketch.add(1e-6);
  sketch.add(1e3);
  const std::uint64_t news = news_during([&] {
    for (int i = 0; i < kCountedCycles; ++i)
      sketch.add(1e-6 + rng.exponential(1.0));
  });
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(sketch.count(), static_cast<std::uint64_t>(kCountedCycles + 2));
}

TEST(DesAlloc, JsonObjectSetsAllocateOnlyTheFieldsVector) {
  // Each set compares its key with every field already present; a
  // passing comparison builds no message. With short (SSO) keys and
  // scalar values, 64 sets allocate only as the fields vector grows
  // (7 doublings), not once per comparison (2,016).
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back("k" + std::to_string(i));
  JsonValue obj = JsonValue::object();
  const std::uint64_t news = news_during([&] {
    for (std::size_t i = 0; i < keys.size(); ++i)
      obj.set(keys[i], JsonValue::number(static_cast<std::int64_t>(i)));
  });
  EXPECT_EQ(obj.size(), keys.size());
  EXPECT_LE(news, 16u);
}

TEST(DesAlloc, JsonDumpAllocatesOnlyTheOutputString) {
  // Keys and string values of 8-15 characters: an escape through a
  // temporary string would allocate for every one of them (128), but
  // escaped straight into the output only its growth allocates.
  JsonValue obj = JsonValue::object();
  for (int i = 0; i < 64; ++i) {
    obj.set("field_name_" + std::to_string(i),
            JsonValue::string("value_" + std::string(2 + i % 8, 'v')));
  }
  std::string text;
  const std::uint64_t news = news_during([&] { text = obj.dump(); });
  EXPECT_EQ(text.substr(0, 30), "{\"field_name_0\":\"value_vv\",\"fi");
  EXPECT_LE(news, 16u);
}

TEST(DesAlloc, PassingModelPreconditionsAllocateNothing) {
  // ClusterSpec::validate runs for every model built, and a cluster
  // simulation looks each group's demand up at every completion: their
  // passing checks build no message.
  const model::ClusterSpec cluster = model::make_a9_k10_cluster(4, 2);
  const hw::NodeSpec a9 = hw::cortex_a9();
  workload::Workload w;
  w.name = "synthetic";
  w.demand[a9.name] = workload::NodeDemand{2e4, 1e3, Bytes{0.0}};
  const std::uint64_t validate_news = news_during([&] {
    for (int i = 0; i < 1000; ++i) cluster.validate();
  });
  const workload::NodeDemand* d = nullptr;
  const std::uint64_t demand_news = news_during([&] {
    for (int i = 0; i < 1000; ++i) d = &w.demand_for(a9.name);
  });
  double total_s = 0.0;
  const std::uint64_t unit_time_news = news_during([&] {
    for (int i = 0; i < 1000; ++i) {
      total_s += workload::unit_time(*d, a9, a9.cores, a9.dvfs.max())
                     .total.value();
    }
  });
  EXPECT_GT(total_s, 0.0);
  EXPECT_EQ(validate_news, 0u);
  EXPECT_EQ(demand_news, 0u);
  EXPECT_EQ(unit_time_news, 0u);
}

TEST(DesAlloc, RegisteredMetricWritesAllocateNothing) {
  // Registration allocates the metric's name and buckets. After it,
  // looking a name up builds no message, and add/set/observe allocate
  // nothing, on the registering thread or on one that never wrote.
  obs::MetricsRegistry reg;
  const obs::MetricId c = reg.counter("pool.tasks");
  const obs::MetricId g = reg.gauge("obs.trace_dropped");
  const obs::MetricId h = reg.histogram("sweep.chunk_us", {10, 50, 100});
  constexpr int kLookups = 1000;
  std::vector<std::vector<double>> bounds(kLookups, {10, 50, 100});
  bool same_ids = true;
  const std::uint64_t news = news_during([&] {
    for (int i = 0; i < kLookups; ++i) {
      same_ids = same_ids && reg.counter("pool.tasks") == c &&
                 reg.gauge("obs.trace_dropped") == g &&
                 reg.histogram("sweep.chunk_us", std::move(bounds[i])) == h;
      reg.add(c);
      reg.set(g, static_cast<double>(i));
      reg.observe(h, static_cast<double>(i % 200));
    }
  });
  EXPECT_TRUE(same_ids);
  EXPECT_EQ(news, 0u);

  std::uint64_t thread_news = 1;
  std::thread([&] {
    thread_news = news_during([&] {
      reg.add(c, 2);
      reg.set(g, -1.0);
      reg.observe(h, 75.0);
    });
  }).join();
  EXPECT_EQ(thread_news, 0u);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("pool.tasks"), kLookups + 2u);
  EXPECT_DOUBLE_EQ(snap.gauge("obs.trace_dropped"), -1.0);
  ASSERT_NE(snap.histogram("sweep.chunk_us"), nullptr);
  EXPECT_EQ(snap.histogram("sweep.chunk_us")->count, kLookups + 1u);
}

TEST(DesAlloc, WarmParallelForDispatchAllocatesNothing) {
  // Each helper task is a one-pointer closure that std::function stores
  // inline, the caller waits on a countdown in its own frame, and a body
  // capturing one reference is stored inline too. What is left is the
  // task queue's deque taking a new node every 16 tasks: about 0.25
  // allocations per call with four workers. A future per helper made 17.
  ThreadPool& pool = ThreadPool::global();
  std::atomic<std::uint64_t> sum{0};
  const auto body = [&sum](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  };
  constexpr int kCalls = 1000;
  for (int c = 0; c < 10; ++c) parallel_for(pool, 0, 64, body, 1);
  const std::uint64_t news = news_during([&] {
    for (int c = 0; c < kCalls; ++c) parallel_for(pool, 0, 64, body, 1);
  });
  EXPECT_EQ(sum.load(), (kCalls + 10) * (64u * 63u / 2u));
  EXPECT_LE(news, 500u);
}

}  // namespace
