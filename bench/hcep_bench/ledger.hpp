// The per-layer cost ledger of the traced run.
//
// Rows come in groups; each group has a home workload whose traced run
// measures it at that workload's scale, with as many passes as its time
// budget allows. Every other traced run measures the group once on the
// home workload's scenario at 1/16 scale, so each traced run reports
// every row. Timings re-run public library calls on the scenario's own
// inputs; counts come from the run's result ledgers and obs counters.
#pragma once

#include <cstdint>

#include "harness.hpp"
#include "scenarios.hpp"

namespace hcep_bench {

struct LedgerContext {
  const Catalog& catalog;
  std::uint64_t seed = 1;
  unsigned div = 1;
  /// Seconds the group may spend on repeated passes (0: one pass).
  double budget_s = 0.0;
};

struct LedgerGroup {
  const char* name;
  const char* home;  ///< workload whose traced run measures it in full
  void (*run)(const LedgerContext&, Metrics&, Verdict&);
};

[[nodiscard]] const std::vector<LedgerGroup>& ledger_groups();

}  // namespace hcep_bench
