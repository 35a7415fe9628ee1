// Energy-deadline Pareto exploration (Section III-D).
//
// The paper's prior work [31] showed heterogeneity creates a "sweet
// region": the set of configurations Pareto-optimal in (execution time,
// energy) for a given program. This module evaluates the time-energy
// model across a ConfigSpace (in parallel) and extracts that frontier,
// plus the deadline-constrained minimum-energy pick used by the
// response-time analysis of Figures 11/12.
//
// The sweep is memoized: evaluate_space precomputes an
// OperatingPointTable (one entry per distinct (type, cores, frequency)
// tuple — 38 for the 36,380-configuration footnote-4 space) and fuses
// each configuration in O(#types) arithmetic, writing into a
// structure-of-arrays EvaluationSet. Selection helpers operate on the
// metric columns, in blocks on the global thread pool, and materialize
// full Evaluations only for winners.
// evaluate_space_naive keeps the original one-TimeEnergyModel-per-
// configuration path as the cross-check oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hcep/config/evaluation_set.hpp"
#include "hcep/config/operating_points.hpp"
#include "hcep/config/space.hpp"
#include "hcep/model/time_energy.hpp"
#include "hcep/parallel/thread_pool.hpp"
#include "hcep/workload/demand.hpp"

namespace hcep::config {

/// Rows per block of the pooled EvaluationSet scans below (pareto_front,
/// min_energy_within_deadline, fastest, min_edp). Blocks hold at least
/// this many rows, so a set of at most kScanBlock rows is scanned inline
/// on the calling thread.
inline constexpr std::size_t kScanBlock = std::size_t{1} << 15;

/// Evaluates every configuration in `space` for one job of `workload`
/// via the memoized fast path. Runs on `pool` (nullptr = the global
/// pool). The returned set borrows `space`, which must outlive it.
[[nodiscard]] EvaluationSet evaluate_space(const ConfigSpace& space,
                                           const workload::Workload& workload,
                                           ThreadPool* pool = nullptr);

/// The pre-memoization reference path: materializes a ClusterSpec and a
/// TimeEnergyModel per configuration. O(|space|) heavyweight work — kept
/// as the oracle for fast-path equivalence tests and for callers that
/// want every Evaluation fully materialized anyway.
[[nodiscard]] std::vector<Evaluation> evaluate_space_naive(
    const ConfigSpace& space, const workload::Workload& workload,
    ThreadPool* pool = nullptr);

/// Extracts the Pareto frontier minimizing (time, energy): no returned
/// configuration is dominated (another with <= time and <= energy, one
/// strict). Result sorted by increasing time (hence decreasing energy).
/// The EvaluationSet overload drops every configuration that a strictly
/// faster time bucket dominates, sorts the survivors' 24-byte (time,
/// energy, index) keys and materializes only the frontier members; ties
/// on (time, energy) go to the lowest index.
[[nodiscard]] std::vector<Evaluation> pareto_front(
    std::vector<Evaluation> evaluations);
/// Runs on the global pool, inline when called from a pool worker.
[[nodiscard]] std::vector<Evaluation> pareto_front(const EvaluationSet& evals);

/// Minimum-energy configuration meeting `deadline`; nullopt when no
/// configuration is fast enough. On a tie, the first row wins.
[[nodiscard]] std::optional<Evaluation> min_energy_within_deadline(
    const std::vector<Evaluation>& evaluations, Seconds deadline);
/// Runs on the global pool, inline when called from a pool worker.
[[nodiscard]] std::optional<Evaluation> min_energy_within_deadline(
    const EvaluationSet& evals, Seconds deadline);

/// Fastest configuration regardless of energy; on a tie, the first row
/// wins.
[[nodiscard]] std::optional<Evaluation> fastest(
    const std::vector<Evaluation>& evaluations);
/// Runs on the global pool, inline when called from a pool worker.
[[nodiscard]] std::optional<Evaluation> fastest(const EvaluationSet& evals);

/// Energy-delay product E_P * T_P — the classic single-number compromise
/// between the frontier's two axes, dimensionally J*s.
[[nodiscard]] JouleSeconds energy_delay_product(const Evaluation& e);

/// Energy-delay-squared product E_P * T_P^2 (weights latency harder).
[[nodiscard]] JouleSecondsSquared energy_delay2_product(const Evaluation& e);

/// Configuration minimizing EDP (or ED2P when `squared`); always a member
/// of the Pareto frontier. On a tie, the first row wins.
[[nodiscard]] std::optional<Evaluation> min_edp(
    const std::vector<Evaluation>& evaluations, bool squared = false);
/// Runs on the global pool, inline when called from a pool worker.
[[nodiscard]] std::optional<Evaluation> min_edp(const EvaluationSet& evals,
                                                bool squared = false);

}  // namespace hcep::config
