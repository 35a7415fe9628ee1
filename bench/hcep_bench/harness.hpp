// Measurement plumbing shared by the workloads and the ledger: wall-clock
// timers, quartiles, FNV-1a fingerprints, correctness verdicts, the
// benchmark's own span recorder and the metric table it prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.hpp"
#include "hcep/obs/obs.hpp"

namespace hcep_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and quartiles, the quartiles by the rule of Python's
/// statistics.quantiles(data, n=4) (method "exclusive"), so the numbers
/// printed here match what a reader recomputes from the raw samples.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// FNV-1a over `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
/// FNV-1a over the 8 bytes of `v` (doubles go in by bit pattern).
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v);
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, double v);

/// Sampled checksums of measured loops are folded in here and printed at
/// exit, so no measured work is dead code.
void consume(std::uint64_t v);
[[nodiscard]] std::uint64_t consumed();

/// The benchmark's fixed reference kernel: a dependent xorshift chain
/// (ALU), then a chain of dependent loads around a random cycle through a
/// 32 MiB table (cache and memory latency). It is benchmark code, so no
/// library change moves it. Returns its wall time. The first call builds
/// the table, which stays resident (and in rss_peak_mib) for the rest of
/// the run.
double reference_seconds();

/// The reference kernel's wall time on the host the benchmark's numbers
/// are quoted for (a 4-vCPU Xeon VM).
inline constexpr double kReferenceKernelSeconds = 0.045;

/// Host-speed correction for shared machines, whose speed drifts by tens
/// of percent over minutes. Constructed right before a timed region, it
/// times the reference kernel; to_reference() times it again right after
/// and rescales the region's wall seconds to the reference host
/// (wall * kReferenceKernelSeconds / mean kernel time). Library changes
/// move the region, never the kernel, so the rescaled time keeps every
/// library effect and drops most of the host's.
class HostSpeed {
 public:
  HostSpeed();
  [[nodiscard]] double to_reference(double seconds) const;

 private:
  double before_;
};

/// Outcome of the correctness checks on one rep. Checks run outside the
/// timed regions.
struct Verdict {
  bool ok = true;
  std::string why;  ///< first failed check

  void require(bool condition, std::string_view what);
  void merge(const Verdict& other);
};

/// Live-heap accounting around one timed call: allocation calls made and
/// the growth of the live-byte high-water mark over `base_live` (by
/// default the bytes live at the start: the peak working set the call
/// added).
class HeapWindow {
 public:
  explicit HeapWindow(std::int64_t base_live = heap::stats().live)
      : allocs0_(heap::stats().allocs), base_live_(base_live) {
    heap::reset_peak();
  }
  [[nodiscard]] std::uint64_t allocs() const {
    return heap::stats().allocs - allocs0_;
  }
  [[nodiscard]] std::int64_t peak_growth() const {
    return heap::stats().peak - base_live_;
  }

 private:
  std::uint64_t allocs0_;
  std::int64_t base_live_;
};

/// Installs `observer` as the process-wide obs sink (obs::set_global)
/// for its lifetime. A pool worker captures the sink when it starts
/// waiting for a task and books the wait to it when the task arrives, so
/// installing and removing both hand every worker one task: the observer
/// then times each worker's waits from installation on, and no worker
/// keeps a pointer to it after removal.
class GlobalObserver {
 public:
  explicit GlobalObserver(hcep::obs::Observer& observer);
  ~GlobalObserver();
  GlobalObserver(const GlobalObserver&) = delete;
  GlobalObserver& operator=(const GlobalObserver&) = delete;
};

/// The benchmark's own spans: one per public call and ladder step, with
/// name, start, end and parent, kept in memory and written as Chrome
/// trace JSON at exit. Recording happens only in the traced run; when
/// disabled a ScopedSpan costs one branch.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }

  std::size_t begin(std::string_view name);
  void end(std::size_t id);

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  void write_chrome_json(const std::string& path) const;

  /// Per span name: summed self time in ms (duration minus the part
  /// covered by child spans), in first-seen order.
  struct SelfTime {
    std::string name;
    double ms = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    double child_s = 0.0;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  Clock::time_point origin_ = Clock::now();
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : id_(tracer().enabled() ? tracer().begin(name) : kNone) {}
  ~ScopedSpan() {
    if (id_ != kNone) tracer().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t id_;
};

/// Ordered metric rows, printed one per line as `name value unit`
/// (plus `q1= q3= n=` when the value is a median of several samples).
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  void add(std::string name, const Quartiles& q, std::string unit);

  void print(std::ostream& out) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}` over the rows named in
  /// `names`, in that order; every name must be present.
  [[nodiscard]] std::string json(const std::vector<std::string>& names) const;

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    Quartiles q;
    bool has_q = false;
  };
  [[nodiscard]] const Row* find(std::string_view name) const;
  std::vector<Row> rows_;
};

/// Full-precision decimal rendering of a double (17 significant digits).
[[nodiscard]] std::string number(double v);

}  // namespace hcep_bench
