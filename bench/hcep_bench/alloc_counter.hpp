// Heap accounting for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new/delete of this
// binary only (the library is untouched): every allocation adds its
// usable size to a live-byte total and bumps an allocation count, every
// deallocation subtracts. All updates are relaxed atomic adds (plus a
// relaxed compare-exchange when a new peak is set), so pool threads can
// allocate concurrently. Threads that allocate at once still contend for
// these counters, so hcep_bench turns counting on only for the reps it
// takes heap metrics from, and times reps with counting on and off to
// report what it costs.
#pragma once

#include <cstdint>

namespace hcep_bench::heap {

struct Stats {
  std::uint64_t allocs = 0;  ///< allocation calls since process start
  std::int64_t live = 0;     ///< bytes currently allocated
  std::int64_t peak = 0;     ///< high-water mark since the last reset_peak
};

[[nodiscard]] Stats stats();

/// Restarts the high-water mark at the current live total.
void reset_peak();

/// Enables/disables the bookkeeping (on by default). While off, neither
/// allocations nor frees are recorded, so `live` is off by the bytes of
/// blocks allocated in one state and freed in the other. Growth measured
/// within one counted call (HeapWindow) stays exact as long as the call
/// frees no block allocated while counting was off.
void counting(bool on);

/// Peak resident set size of the process (VmHWM), in bytes; 0 when
/// /proc/self/status is unavailable.
[[nodiscard]] std::uint64_t rss_peak_bytes();

}  // namespace hcep_bench::heap
