// hcep_bench: one benchmark for every hcep performance claim.
//
// Six workloads drive the library from outside, through its public calls
// only, and check every output they time. One process runs one workload
// (run.py starts one per workload):
//
//   hcep_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out FILE]
//   hcep_bench --selftest
//
// Untraced run (--trace 0): set-up is repeated and its median reported;
// one untimed warm-up rep, the only one with heap counting on, fixes the
// reference fingerprint and gives the heap metrics; timed reps follow
// until --seconds have passed (at least four). Every rep's
// outputs are checked outside the timed region. Set-up and rep times are
// rescaled to the reference host (HostSpeed); the raw wall-clock values
// are printed too, as wall.* rows. Printed: one `name value unit` line
// per metric (medians, with quartiles), the fingerprint, and as the last
// line a JSON object with the end-to-end metrics.
//
// Traced run (--trace 1): the workload's reps in interleaved triples
// (untraced, traced with an obs::Observer and the benchmark's spans,
// untraced with heap counting on) for a quarter of --seconds, then the
// per-layer ledger (ledger.hpp), whose home group repeats its passes
// until the run has measured for about twice --seconds. The last line
// carries the per-layer metrics; the spans go to --trace-out as Chrome
// trace JSON.
//
// --selftest runs every workload both ways at 1/64 scale with every
// check and no timing gate. Exit status: 0 when every check passed, 1
// when one failed, 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hcep/config/pareto.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "ledger.hpp"
#include "scenarios.hpp"

namespace hcep_bench {
namespace {

using namespace hcep;

/// The metrics of the final JSON line, in BENCHMARK.json's order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "items_per_s", "bytes_per_item", "allocs_per_item",
    "rss_peak_mib"};

const std::vector<std::string> kPerLayer = {
    "bench.trace_overhead_ratio",
    "bench.alloc_count_overhead_ratio",
    "ladder.generate.ns_per_req",
    "ladder.admission.ns_per_req",
    "ladder.des_replay.ns_per_req",
    "ladder.simulate.ns_per_req",
    "ladder.frozen_control.ns_per_req",
    "ladder.stream.ns_per_req",
    "ladder.record.ns_per_req",
    "ladder.fed_single_site.ns_per_req",
    "ladder.generate.bytes_per_req",
    "ladder.admission.bytes_per_req",
    "ladder.des_replay.bytes_per_req",
    "ladder.simulate.bytes_per_req",
    "ladder.frozen_control.bytes_per_req",
    "ladder.stream.bytes_per_req",
    "ladder.record.bytes_per_req",
    "ladder.fed_single_site.bytes_per_req",
    "traffic.core.ns_per_req",
    "traffic.slo.ns_per_sample",
    "des.events_per_req",
    "des.ns_per_event",
    "control.overhead_ratio",
    "obs.stream.overhead_ratio",
    "obs.record.overhead_ratio",
    "obs.record.bytes_per_req",
    "fed.single_site.overhead_ratio",
    "traffic.admission.ns_per_call",
    "traffic.admit_ratio",
    "traffic.attempts_per_req",
    "control.ticks_per_kreq",
    "control.tick_ns",
    "obs.sketch.ns_per_insert",
    "traffic.arrivals.ns_per_call",
    "fed.route.ns_per_call",
    "fed.cross_site_frac",
    "parallel.shard_speedup_2",
    "parallel.shard_speedup_4",
    "parallel.shard_efficiency_4",
    "parallel.serial_gen_frac",
    "parallel.pool_idle_frac",
    "config.table_build_us",
    "config.evaluate.ns_per_config",
    "config.evaluate_pool.ns_per_config",
    "config.pareto.ns_per_config",
    "config.front_size",
};

const std::vector<std::string> kWorkloads = {
    "open_loop",       "overload_retry",  "power_gated_observed",
    "fleet_hybrid",    "sharded_scaling", "sweep_pareto"};

/// One rep: the timed public calls, the heap they used, the checks.
struct Rep {
  double seconds = 0.0;          ///< summed over the timed calls
  std::uint64_t allocs = 0;      ///< allocation calls in the timed calls
  std::int64_t peak_bytes = 0;   ///< live-heap high-water above rep start
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
  Verdict verdict;
  std::int64_t base_live = heap::stats().live;
};

/// Times one public call into `rep`; allocations of the span recorder
/// stay outside the heap window.
template <class F>
auto timed(Rep& rep, std::string_view span, F&& call) {
  const ScopedSpan s(span);
  const HeapWindow heap(rep.base_live);
  const auto t0 = Clock::now();
  auto out = call();
  rep.seconds += seconds_since(t0);
  rep.allocs += heap.allocs();
  rep.peak_bytes = std::max(rep.peak_bytes, heap.peak_growth());
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Work items of one rep: requests offered, or configurations swept.
  [[nodiscard]] virtual std::uint64_t items() const = 0;
  virtual Rep rep() = 0;
  /// Checks too costly for every rep; run once per untraced run, after
  /// the warm-up rep.
  virtual Verdict once() { return {}; }
};

class TrafficWorkload final : public Workload {
 public:
  explicit TrafficWorkload(TrafficScenario s) : s_(std::move(s)) {}
  [[nodiscard]] std::uint64_t items() const override {
    return s_.options.requests;
  }
  Rep rep() override {
    Rep r;
    const traffic::TrafficResult out =
        timed(r, "simulate_traffic", [&] { return s_.run(); });
    const ScopedSpan span("check");
    r.verdict = check(out, s_.options.requests);
    r.fingerprint = last_ = fingerprint(out);
    return r;
  }
  /// Sharded runs: serial shard execution reproduces the last rep's
  /// parallel result byte for byte.
  Verdict once() override {
    Verdict v;
    if (s_.options.shards == 1) return v;
    traffic::TrafficOptions serial = s_.options;
    serial.parallel_shards = false;
    v.require(fingerprint(traffic::simulate_traffic(
                  s_.cluster, s_.classes, *s_.arrivals, serial)) == last_,
              "serial and parallel shards differ");
    return v;
  }

 private:
  TrafficScenario s_;
  std::uint64_t last_ = 0;  ///< the last rep's fingerprint
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(FleetScenario f) : f_(std::move(f)) {}
  [[nodiscard]] std::uint64_t items() const override {
    return f_.options.requests_per_site * f_.sites.size();
  }
  Rep rep() override {
    Rep r;
    const fed::FleetReport out =
        timed(r, "simulate_fleet", [&] { return f_.run(); });
    const ScopedSpan span("check");
    r.verdict = check(out, items());
    r.fingerprint = fingerprint(out);
    return r;
  }

 private:
  FleetScenario f_;
};

/// Per program: evaluate_space on the pool, pareto_front, then the
/// min-energy configuration within a deadline.
class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(SweepScenario s) : s_(std::move(s)) {}
  [[nodiscard]] std::uint64_t items() const override {
    return s_.space.size() * s_.programs.size();
  }
  Rep rep() override {
    Rep r;
    for (std::size_t p = 0; p < s_.programs.size(); ++p) {
      SweepResult out;
      out.set = timed(r, "evaluate_space", [&] {
        return config::evaluate_space(s_.space, s_.programs[p]);
      });
      out.front = timed(r, "pareto_front",
                        [&] { return config::pareto_front(out.set); });
      out.pick = timed(r, "min_energy_within_deadline", [&] {
        out.deadline = Seconds{s_.deadline_factor[p] *
                               config::fastest(out.set)->time.value()};
        return config::min_energy_within_deadline(out.set, out.deadline);
      });
      const ScopedSpan span("check");
      r.verdict.merge(check(out));
      r.fingerprint = fingerprint(out, r.fingerprint);
    }
    return r;
  }
  /// The memoized sweep against the naive oracle on the footnote-4
  /// (10,10) space, every 97th configuration, to 1e-9 relative.
  Verdict once() override {
    Verdict v;
    const config::ConfigSpace space = config::make_a9_k10_space(10, 10);
    const config::EvaluationSet fast =
        config::evaluate_space(space, s_.programs[0]);
    const std::vector<config::Evaluation> naive =
        config::evaluate_space_naive(space, s_.programs[0]);
    v.require(naive.size() == fast.size(), "naive sweep size differs");
    const auto close = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
    };
    for (std::size_t i = 0; i < naive.size() && v.ok; i += 97)
      v.require(naive[i].index == i &&
                    close(naive[i].time.value(), fast.times()[i]) &&
                    close(naive[i].energy.value(), fast.energies()[i]),
                "memoized sweep differs from the naive oracle");
    return v;
  }

 private:
  SweepScenario s_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Catalog& catalog,
                                        std::uint64_t seed, unsigned div) {
  if (name == "open_loop")
    return std::make_unique<TrafficWorkload>(open_loop(catalog, seed, div));
  if (name == "overload_retry")
    return std::make_unique<TrafficWorkload>(
        overload_retry(catalog, seed, div));
  if (name == "power_gated_observed")
    return std::make_unique<TrafficWorkload>(
        power_gated_observed(catalog, seed, div));
  if (name == "fleet_hybrid")
    return std::make_unique<FleetWorkload>(fleet_hybrid(catalog, seed, div));
  if (name == "sharded_scaling")
    return std::make_unique<TrafficWorkload>(
        sharded_scaling(catalog, seed, div));
  if (name == "sweep_pareto")
    return std::make_unique<SweepWorkload>(sweep_pareto(catalog, seed, div));
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned div = 1;
  unsigned min_reps = 4;
  unsigned setups = 7;
  std::string trace_out;
};

/// Counts checked operations: reps (held to the warm-up's fingerprint)
/// and the ledger.
struct Tally {
  std::optional<std::uint64_t> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void add(const Verdict& v) {
    ++attempted;
    if (v.ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = v.why;
  }
  void add(const Rep& r) {
    Verdict v = r.verdict;
    if (!reference) reference = r.fingerprint;
    v.require(r.fingerprint == *reference, "fingerprint changed between reps");
    add(v);
  }
};

int run(const Args& a) {
  Metrics m;
  // Heap counting is on only in the untimed warm-up rep, the traced
  // run's counted reps and its ledger: no rep timed for an end-to-end
  // metric pays for it.
  heap::counting(false);
  // The first kernel call builds its table; nothing is timed before it.
  consume(static_cast<std::uint64_t>(1e9 * reference_seconds()));
  // Set-up (catalog + scenario) several times; setup_s is the median.
  // Only the untraced run reports it, so the traced run sets up once.
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Workload> w;
  std::vector<double> setup, setup_wall;
  for (unsigned i = 0; i < (a.trace ? 1 : a.setups); ++i) {
    const HostSpeed speed;
    const auto t0 = Clock::now();
    catalog = std::make_unique<Catalog>(make_catalog());
    w = make_workload(a.workload, *catalog, a.seed, a.div);
    setup_wall.push_back(seconds_since(t0));
    setup.push_back(speed.to_reference(setup_wall.back()));
    if (w == nullptr) {
      std::cerr << "hcep_bench: unknown workload '" << a.workload << "'\n";
      return 2;
    }
  }
  m.add("setup_s", quartiles(setup), "s");
  m.add("wall.setup_s", quartiles(setup_wall), "s");

  // The untimed warm-up rep fixes the reference fingerprint and, counted,
  // gives the heap metrics (exact counts, so one rep suffices).
  Tally tally;
  const double items = static_cast<double>(w->items());
  {
    heap::counting(true);
    Rep warm = w->rep();
    heap::counting(false);
    if (!a.trace) warm.verdict.merge(w->once());  // untraced runs suffice
    tally.add(warm);
    m.add("bytes_per_item", static_cast<double>(warm.peak_bytes) / items,
          "B/item");
    m.add("allocs_per_item", static_cast<double>(warm.allocs) / items,
          "allocs/item");
  }
  std::vector<double> rate, rate_wall, traced_ratio, count_ratio;
  const auto measured = [&] {
    const HostSpeed speed;
    Rep r = w->rep();
    tally.add(r);
    rate.push_back(items / speed.to_reference(r.seconds));
    rate_wall.push_back(items / r.seconds);
    return r;
  };

  const auto t0 = Clock::now();
  if (!a.trace) {
    for (unsigned n = 0; n < 200 && (n < a.min_reps ||
                                     seconds_since(t0) < a.seconds);
         ++n)
      measured();
  } else {
    // Interleaved triples: untraced, traced, heap counting on, for a
    // quarter of the time; then the ledger.
    for (unsigned n = 0;
         n < 20 && (n < 1 || seconds_since(t0) < a.seconds / 4.0); ++n) {
      const Rep plain = measured();
      Rep traced;
      std::vector<std::pair<std::string, std::uint64_t>> counters;
      {
        obs::Observer observer;
        {
          const obs::ScopedObserver local(observer);
          const GlobalObserver workers(observer);
          tracer().enable(true);
          traced = w->rep();
          tracer().enable(false);
        }
        counters = observer.metrics.snapshot().counters;
      }
      tally.add(traced);
      heap::counting(true);
      const Rep counted = w->rep();
      heap::counting(false);
      tally.add(counted);
      traced_ratio.push_back(traced.seconds / plain.seconds);
      count_ratio.push_back(counted.seconds / plain.seconds);
      if (n == 0)
        for (const auto& [name, value] : counters)
          m.add("counter." + name, static_cast<double>(value), "count");
    }
  }
  m.add("items_per_s", quartiles(rate), "items/s");
  m.add("wall.items_per_s", quartiles(rate_wall), "items/s");

  if (a.trace) {
    m.add("bench.trace_overhead_ratio", quartiles(traced_ratio), "ratio");
    m.add("bench.alloc_count_overhead_ratio", quartiles(count_ratio), "ratio");
    heap::counting(true);  // the ledger's byte rows
    tracer().enable(true);
    Verdict ledger;
    const double home_budget =
        std::max(0.0, 2.0 * a.seconds - seconds_since(t0));
    for (const LedgerGroup& g : ledger_groups()) {
      const bool home = a.workload == g.home;
      const ScopedSpan span(std::string("ledger.") + g.name);
      const LedgerContext c{*catalog, a.seed,
                            home ? a.div : std::min(16 * a.div, 64u),
                            home ? home_budget : 0.0};
      g.run(c, m, ledger);
    }
    tracer().enable(false);
    heap::counting(false);
    tally.add(ledger);
    for (const auto& t : tracer().self_times())
      m.add("span." + t.name + ".self_ms", t.ms, "ms");
    if (!a.trace_out.empty()) tracer().write_chrome_json(a.trace_out);
  }
  {
    std::vector<double> kernel;
    for (int i = 0; i < 5; ++i) kernel.push_back(1e3 * reference_seconds());
    m.add("wall.reference_kernel_ms", quartiles(kernel), "ms");
  }
  m.add("rss_peak_mib",
        static_cast<double>(heap::rss_peak_bytes()) / (1024.0 * 1024.0),
        "MiB");
  m.add("failed_frac",
        static_cast<double>(tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio");

  m.print(std::cout);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, tally.reference.value_or(0));
  std::cout << "fingerprint " << a.workload << " seed=" << a.seed
            << " div=" << a.div << ' ' << fp << '\n'
            << "checksum " << consumed() << '\n';
  if (tally.failed > 0)
    std::cerr << "hcep_bench: " << a.workload
              << " check failed: " << tally.first_failure << '\n';
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": "
            << m.json(a.trace ? kPerLayer : kEndToEnd) << "}" << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

int selftest() {
  int status = 0;
  for (const std::string& name : kWorkloads)
    for (const bool trace : {false, true}) {
      Args a;
      a.workload = name;
      a.trace = trace;
      a.seconds = 0.0;
      a.div = 64;
      a.min_reps = 2;
      a.setups = 1;
      status = std::max(status, run(a));
    }
  std::cout << (status == 0 ? "selftest passed" : "selftest FAILED") << '\n';
  return status;
}

int usage() {
  std::cerr << "usage: hcep_bench --workload <name> [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out FILE]\n"
               "       hcep_bench --selftest\n";
  return 2;
}

}  // namespace
}  // namespace hcep_bench

int main(int argc, char** argv) {
  using namespace hcep_bench;
  // Blocks from 64 KiB up are mapped fresh and unmapped on free, as the
  // first rep of a one-shot run would see them, instead of being recycled
  // by the adaptive threshold. Reps then pay the same page faults every
  // time, and VmHWM follows the live-heap peak rather than the allocator's
  // history.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--selftest") return selftest();
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        return usage();
      }
    }
    if (a.workload.empty()) return usage();
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "hcep_bench: " << e.what() << '\n';
    return 3;
  }
}
