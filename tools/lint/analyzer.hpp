// hcep-lint analyzer: the per-file symbol/rule pass and the cross-file
// project pass.
//
// Pipeline (see docs/STATIC_ANALYSIS.md §2):
//   lex() -> track_scopes() -> per-file symbol collection + file-local
//   rules -> FileFacts                          (analyze_source)
//   all FileFacts -> include graph -> shard-reachable set ->
//   shared-mutable-static findings              (project_findings)
#pragma once

#include <string>
#include <vector>

#include "facts.hpp"

namespace hcep::lint {

/// Runs the per-file pass over one translation unit. `relpath` is the
/// repo-relative generic path ("src/include/hcep/des/simulator.hpp");
/// path shape decides which rule families apply.
FileFacts analyze_source(const std::string& source, const std::string& relpath);

/// Cross-file pass: builds the include graph over all analyzed files,
/// marks everything transitively included by shard-marker TUs
/// (parallel_for users), and turns MutableStatic
/// facts in reachable headers into shared-mutable-static findings.
std::vector<Finding> project_findings(const std::vector<FileFacts>& files);

// --- Path classification (shared with the driver and tests) -----------------

bool is_public_header(const std::string& relpath);
bool is_control_header(const std::string& relpath);
bool is_hot_path_header(const std::string& relpath);
bool is_evaluator_header(const std::string& relpath);
bool is_deterministic_output_path(const std::string& relpath);
bool is_fed_header(const std::string& relpath);

}  // namespace hcep::lint
