// Discrete-event kernel: ordering, FIFO tie-breaking, horizons, the
// calendar-vs-heap oracle cross-check, claimed sequence numbers and
// callback SBO.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hcep/des/callback.hpp"
#include "hcep/des/simulator.hpp"
#include "hcep/util/error.hpp"

namespace {

using namespace hcep;
using namespace hcep::des;
using namespace hcep::literals;

TEST(Des, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3_s, [&] { order.push_back(3); });
  sim.schedule_at(1_s, [&] { order.push_back(1); });
  sim.schedule_at(2_s, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Des, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1_s, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Des, ClockAdvancesToEventTime) {
  Simulator sim;
  Seconds seen{};
  sim.schedule_at(5_s, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen.value(), 5.0);
  EXPECT_DOUBLE_EQ(sim.now().value(), 5.0);
}

TEST(Des, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(2_s, [&] {
    sim.schedule_in(3_s, [&] { times.push_back(sim.now().value()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
}

TEST(Des, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.schedule_in(1_ms, chain);
  };
  sim.schedule_at(0_s, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_NEAR(sim.now().value(), 0.099, 1e-12);
}

TEST(Des, RunUntilStopsAtHorizonAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1_s, [&] { ++fired; });
  sim.schedule_at(10_s, [&] { ++fired; });
  sim.run_until(5_s);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().value(), 5.0);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Des, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5_s, [&] { fired = true; });
  sim.run_until(5_s);
  EXPECT_TRUE(fired);
}

TEST(Des, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1_s, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Des, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(2_s, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1_s, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(Seconds{-1.0}, [] {}), PreconditionError);
  EXPECT_THROW(sim.run_until(1_s), PreconditionError);
}

TEST(Des, RejectsEmptyCallback) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1_s, EventCallback{}), PreconditionError);
}

/// Two claimed events replayed lazily, the second scheduled only when the
/// first fires, around plain events scheduled before and after the claim.
template <class Sim>
std::vector<int> claimed_replay_order() {
  Sim sim;
  std::vector<int> order;
  sim.schedule_at(1_s, [&] { order.push_back(0); });
  const std::uint64_t first = sim.claim_sequence(2);
  sim.schedule_at(2_s, [&] { order.push_back(3); });
  sim.schedule_claimed(1_s, first, [&sim, &order, first] {
    order.push_back(1);
    sim.schedule_claimed(2_s, first + 1, [&order] { order.push_back(2); });
  });
  sim.run();
  return order;
}

TEST(Des, ClaimedSequenceKeepsTheOrderOfSchedulingWhole) {
  // The second replayed event is scheduled after the plain t = 2 event
  // yet runs ahead of it, as if both replayed events had been scheduled
  // at the claim; the event scheduled before the claim still runs first.
  const std::vector<int> expected = {0, 1, 2, 3};
  EXPECT_EQ(claimed_replay_order<Simulator>(), expected);
  EXPECT_EQ(claimed_replay_order<HeapSimulator>(), expected);
  Simulator sim;
  EXPECT_THROW(sim.schedule_claimed(1_s, 0, [] {}), PreconditionError);
}

// ---------------------------------------------------------------------------
// Calendar-vs-heap oracle cross-check: both schedulers execute identical
// schedules in identical order — the (time, seq) total order is the
// kernel's contract, the scheduler only changes how fast it is realized.

/// Runs a pseudo-random self-rescheduling workload and records the exact
/// execution order as (time, tag) pairs. Duplicate timestamps (FIFO
/// ties), a far-future tail (overflow-heap traffic) and enough churn to
/// cross the calendar's rebuild thresholds are all exercised.
template <class Sim>
std::vector<std::pair<double, std::uint64_t>> run_oracle_workload(
    std::uint64_t seeds, std::uint64_t budget) {
  Sim sim;
  std::vector<std::pair<double, std::uint64_t>> order;
  order.reserve(budget + seeds);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  std::uint64_t scheduled = 0;
  std::uint64_t tag = 0;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg;
  };
  // Mutually recursive via a cell this frame owns; the lambdas point at
  // it (16 bytes of capture, well inside the inline budget). Capturing
  // an owning pointer would store the cell inside itself, a cycle that
  // is never freed.
  struct Hooks {
    std::function<void(std::uint64_t)> tick;
  };
  Hooks cell;
  Hooks* const hooks = &cell;
  hooks->tick = [&, hooks](std::uint64_t t) {
    order.emplace_back(sim.now().value(), t);
    if (scheduled < budget) {
      const std::uint64_t r = next();
      const std::uint64_t my_tag = ++tag;
      // 1/8 of events are simultaneous re-posts (FIFO ties), 1/8 land
      // ~1000s out (overflow), the rest microseconds-to-milliseconds.
      Seconds delay{0.0};
      if ((r & 7u) == 1) {
        delay = Seconds{1000.0 + static_cast<double>((r >> 8) % 977)};
      } else if ((r & 7u) != 0) {
        delay = Seconds{1e-6 * static_cast<double>(1 + ((r >> 8) % 99991))};
      }
      ++scheduled;
      sim.schedule_in(delay, [&, hooks, my_tag] { hooks->tick(my_tag); });
    }
  };
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t my_tag = ++tag;
    ++scheduled;
    sim.schedule_at(Seconds{1e-6 * static_cast<double>(next() % 100000)},
                    [&, hooks, my_tag] { hooks->tick(my_tag); });
  }
  sim.run();
  return order;
}

TEST(Des, CalendarMatchesHeapOracleEventForEvent) {
  // 20k events starting from 600 pending: crosses the calendar's initial
  // geometry (256 buckets), at least one load-factor rebuild, overflow
  // cascades and empty-wheel re-anchors.
  const auto calendar = run_oracle_workload<Simulator>(600, 20000);
  const auto heap = run_oracle_workload<HeapSimulator>(600, 20000);
  ASSERT_EQ(calendar.size(), heap.size());
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i], heap[i]) << "divergence at event " << i;
  }
}

TEST(Des, CalendarFifoTiesAcrossRebuilds) {
  // Many distinct times, each with a burst of simultaneous events, at a
  // scale that forces bucket-count growth: FIFO order must hold within
  // every burst even as entries migrate between wheel and overflow.
  Simulator sim;
  std::vector<int> order;
  int id = 0;
  for (int wave = 0; wave < 400; ++wave) {
    for (int k = 0; k < 12; ++k) {
      sim.schedule_at(Seconds{static_cast<double>((wave * 7919) % 400)},
                      [&order, my = id++] { order.push_back(my); });
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 4800u);
  // Events at the same time must appear in schedule order; schedule order
  // within a wave IS id order, and waves at the same time are scheduled
  // in id order too, so any same-time run must be increasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    // Reconstruct times: id -> wave -> time.
    const int t_prev = ((order[i - 1] / 12) * 7919) % 400;
    const int t_cur = ((order[i] / 12) * 7919) % 400;
    ASSERT_LE(t_prev, t_cur);
    if (t_prev == t_cur) {
      ASSERT_LT(order[i - 1], order[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// des::Callback: the allocation-free event representation.

TEST(DesCallback, HotPathCapturesStayInline) {
  struct Capture {
    void* ctx;
    double a, b, c;
    std::uint64_t d;
  };  // 40 bytes: the traffic hot-path shape
  Capture cap{nullptr, 1, 2, 3, 4};
  auto fn = [cap] { (void)cap; };
  static_assert(Callback::stores_inline<decltype(fn)>);
  Callback cb(fn);
  EXPECT_TRUE(cb.is_inline());
}

TEST(DesCallback, OversizedCapturesSpillButWork) {
  std::array<double, 9> big{};
  big[8] = 42.0;
  double seen = 0.0;
  auto fn = [big, &seen] { seen = big[8]; };
  static_assert(!Callback::stores_inline<decltype(fn)>);
  Callback cb(fn);
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(DesCallback, MoveTransfersOwnershipAndState) {
  auto counter = std::make_shared<int>(0);
  Callback a([counter] { ++*counter; });
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  // Destruction releases the capture: the shared_ptr refcount drops.
  EXPECT_EQ(counter.use_count(), 2);
  b = Callback{[] {}};
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(DesCallback, EmplaceReplacesInPlace) {
  auto counter = std::make_shared<int>(0);
  Callback cb([counter] { *counter += 1; });
  cb.emplace([counter] { *counter += 10; });
  cb();
  EXPECT_EQ(*counter, 10);
  cb.emplace([] {});
  EXPECT_EQ(counter.use_count(), 1);  // old capture destroyed
}

}  // namespace
