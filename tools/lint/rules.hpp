// hcep-lint rule catalog: one authoritative table of every rule the
// analyzer implements. The SARIF exporter emits one rule descriptor per
// entry (the acceptance contract demands >= 1 descriptor per implemented
// rule), --list-rules prints it, and the selftest cross-checks that the
// fixture tree exercises every id listed here.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hcep::lint {

struct RuleSpec {
  const char* id;
  const char* summary;  ///< one line, shown in SARIF shortDescription
  const char* help;     ///< rationale + fix, shown in SARIF fullDescription
};

inline const std::vector<RuleSpec>& rule_catalog() {
  static const std::vector<RuleSpec> kRules = {
      {"unit-double",
       "naked double claims a physical unit in a public header",
       "Fields/params/functions named *_energy, *_power, *_latency, ... "
       "must use the hcep::units Quantity types so a W-vs-J slip cannot "
       "compile."},
      {"control-unit-double",
       "raw double power/energy signal in a control-plane header",
       "The Controller/Actuator surface also names power in control "
       "vocabulary (cap, budget, draw, savings, penalty, floor); those "
       "must be Watts/Joules quantities too."},
      {"nodiscard",
       "value-returning evaluator lacks [[nodiscard]]",
       "Model/metrics/config/power/traffic evaluators whose result is a "
       "computed quantity must be [[nodiscard]]: dropping Joules on the "
       "floor is always a bug."},
      {"banned-call",
       "rand()/srand()/time() breaks same-seed reproducibility",
       "All stochastic APIs take a seeded hcep::Rng and all clocks are "
       "simulated; wall-clock or libc randomness makes same-seed runs "
       "diverge."},
      {"std-function-hot-path",
       "std::function in a DES/traffic hot-path header",
       "std::function's 16-byte SBO heap-allocates every kernel capture; "
       "use des::Callback (48-byte inline budget) or a template "
       "parameter."},
      {"unordered-iteration",
       "hash-container iteration can leak nondeterministic order",
       "std::unordered_{map,set} iteration order varies across libc++/"
       "libstdc++ and hash seeds. Banned outright in report/export/JSON "
       "TUs; anywhere else, iterating one into an accumulation or export "
       "breaks the byte-identical same-seed guarantee — use std::map or "
       "sort the keys first."},
      {"rng-seed-flow",
       "hcep::Rng constructed without a threaded seed",
       "Every Rng must be seeded from a parameter/config so (seed, "
       "shards) fully determines the run. Default-constructed or "
       "literal-seeded Rng hides a second seed source."},
      {"pointer-key",
       "pointer-keyed container orders by address",
       "A std::map/set keyed (or compared) by pointer iterates in "
       "allocation-address order, which ASLR re-randomizes every run; "
       "key by a stable id instead."},
      {"thread-id-identity",
       "thread id / address used as identity",
       "std::thread::id values and thread addresses differ run to run; "
       "using them as keys or ordering makes output schedule-dependent. "
       "Use the pool's dense worker index."},
      {"float-order-reduction",
       "floating-point reduction in unordered iteration order",
       "Float addition is not associative: accumulating energy/latency "
       "while iterating a hash container makes the sum depend on hash "
       "order. Reduce over a sorted or naturally ordered sequence."},
      {"shared-mutable-static",
       "mutable static state in a shard-reachable header",
       "Headers transitively included by parallel_for code must not "
       "declare non-const, non-atomic statics: shards would race on them "
       "and break serial/parallel byte-identity. Use std::atomic, "
       "thread_local, const, or per-shard state."},
      {"site-id-determinism",
       "Site identified by pointer in a federation header",
       "Federation placement must be byte-reproducible: a `Site*` used "
       "as identity (member, key, or comparator) orders and hashes by "
       "allocation address, which ASLR re-randomizes every run. Identify "
       "sites by their index in the scenario's site vector (or by name)."},
      {"unit-flow",
       "naked double parameter crosses a Quantity-typed API boundary",
       "A function that returns an hcep::units Quantity but takes a "
       "non-dimensionless double parameter reintroduces the unit "
       "ambiguity the typed boundary exists to remove; type the "
       "parameter."},
  };
  return kRules;
}

inline bool known_rule(const std::string& id) {
  for (const auto& r : rule_catalog())
    if (id == r.id) return true;
  return false;
}

}  // namespace hcep::lint
