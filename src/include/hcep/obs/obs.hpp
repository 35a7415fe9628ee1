// Observability entry point: an Observer bundles a MetricsRegistry and an
// EventTracer; instrumented code asks `obs::current()` for the active
// one.
//
// Sink resolution is null by default — no observer installed means every
// instrumentation site reduces to one thread-local load, one atomic load
// and a branch. The sites sit at run, task and chunk boundaries, not in
// per-event loops: the DES kernel, the cluster simulator and the traffic
// engine count their own events and add them to the observer once, when
// a run ends.
// A ScopedObserver installs an observer for the calling thread (each
// parallel campaign can trace into its own sink), or the null sink to
// run a scope unobserved; set_global() installs a process-wide fallback
// that pool workers report to.
//
// The null sink is the only off switch: every instrumentation site is
// compiled into every build and guarded by that pointer check alone, and
// nothing it records feeds back into a result.
#pragma once

#include "hcep/obs/metrics.hpp"
#include "hcep/obs/trace.hpp"

namespace hcep::obs {

struct Observer {
  MetricsRegistry metrics;
  EventTracer tracer;
};

/// The calling thread's observer: the thread-local override when one is
/// installed (nullptr under a null-sink scope), else the process-wide
/// fallback, else nullptr (null sink).
[[nodiscard]] Observer* current();

/// Installs/clears the process-wide fallback (not owning). Pass nullptr
/// to restore the null sink.
///
/// Lifetime: a pool worker resolves current() before it waits for its
/// next task and, when it wakes, books the wait to the observer it
/// resolved (ThreadPool::worker_loop). So an observer installed here is
/// still written after it is cleared or replaced: keep it alive until
/// every worker has run a task since, or make it static.
void set_global(Observer* observer);
[[nodiscard]] Observer* global();

/// RAII thread-local install; restores the previous override on exit.
class ScopedObserver {
 public:
  explicit ScopedObserver(Observer& observer);
  /// nullptr installs the null sink: the scope reports nowhere, not even
  /// to the global fallback.
  explicit ScopedObserver(Observer* observer);
  ~ScopedObserver();
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  Observer* previous_;
  bool previous_installed_;
};

}  // namespace hcep::obs
