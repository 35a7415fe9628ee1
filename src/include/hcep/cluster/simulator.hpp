// Discrete-event cluster simulator — the stand-in for the paper's physical
// testbed (Fig. 4).
//
// Jobs arrive Poisson at the dispatcher and are served FIFO by the whole
// cluster (the paper's M/D/1 view: the cluster is the server, service time
// is T_P). During a job each node group draws its busy power until its
// share completes, then falls back to idle; the resulting cluster power
// trace is integrated exactly and through the emulated Yokogawa meter.
// Per-group "perf counters" (work cycles, stall cycles, I/O bytes)
// accumulate as on the real testbed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hcep/cluster/overheads.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/power/meter.hpp"
#include "hcep/util/units.hpp"

namespace hcep::cluster {

struct SimOptions {
  /// Target cluster utilization U = T_P * lambda in [0, 1); arrival rate
  /// is derived from the *simulated* per-job service time.
  double utilization = 0.5;
  /// Jobs per batch arrival ("we vary the number of jobs per batch and
  /// number of batches in an observation interval", Section II-C). The
  /// batch rate is scaled so the utilization target is preserved; larger
  /// batches burst the queue and lengthen response tails.
  unsigned batch_size = 1;
  /// Observation window T; when zero, sized to cover `min_jobs` jobs.
  Seconds window{};
  /// Window sizing when `window` is zero.
  std::uint64_t min_jobs = 400;
  std::uint64_t seed = 12345;
  /// Systematic testbed effects; defaults to the calibrated table.
  bool use_testbed_overheads = true;
  /// Meter emulation for the "measured" energy.
  power::MeterSpec meter{};
};

/// Per-group simulated perf-counter accumulation.
struct GroupCounters {
  std::string node_name;
  double work_cycles = 0.0;
  double stall_cycles = 0.0;
  double io_bytes = 0.0;
  std::uint64_t jobs_served = 0;
};

struct SimResult {
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_completed = 0;
  double units_completed = 0.0;

  Seconds window{};
  Joules energy_exact{};     ///< exact trace integral over the window
  Joules energy_measured{};  ///< through the sampling meter
  Watts average_power{};     ///< energy_exact / window

  Seconds mean_service{};    ///< realized per-job service time
  Seconds mean_response{};
  Seconds p95_response{};    ///< nearest rank, within a sketch's 2^-8 bound
  double measured_utilization = 0.0;  ///< busy time / window

  std::vector<GroupCounters> counters;
};

/// Simulates `model`'s cluster serving its workload at the requested
/// utilization. Deterministic for a fixed seed.
[[nodiscard]] SimResult simulate(const model::TimeEnergyModel& model,
                                 const SimOptions& options);

/// Convenience: simulated (measured) energy of `jobs` back-to-back jobs
/// plus the exact execution makespan — the quantities the Table 4
/// validation compares against the model's T_P and E_P.
struct JobMeasurement {
  Seconds time_per_job{};
  Joules energy_per_job{};
};
[[nodiscard]] JobMeasurement measure_batch(const model::TimeEnergyModel& model,
                                           std::uint64_t jobs,
                                           std::uint64_t seed = 12345,
                                           bool use_testbed_overheads = true);

}  // namespace hcep::cluster
