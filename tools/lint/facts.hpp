// hcep-lint per-file facts: everything the cross-file pass needs to know
// about one translation unit.
//
// The per-file pass (analyzer.cpp) tokenizes, tracks scopes, collects
// symbols and runs the file-local rules. Its complete output is this
// struct, which is also the whole input of the project pass (include
// graph, shard reachability): no file is tokenized twice.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hcep::lint {

struct Finding {
  std::string file;  ///< repo-relative generic path
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// A `static` non-const, non-atomic variable declared in a header: only
/// a hazard when the header is reachable from sharded/parallel code,
/// which the project pass decides with the include graph.
struct MutableStatic {
  std::size_t line = 0;
  std::string name;
};

struct FileFacts {
  std::string path;  ///< repo-relative generic path ("src/...")
  /// Quoted #include paths as written (`hcep/des/simulator.hpp`).
  std::vector<std::string> includes;
  /// TU mentions parallel_for: its transitive includes form the
  /// shard-reachable set.
  bool uses_shard_markers = false;
  std::vector<MutableStatic> mutable_statics;
  /// Findings decidable from this file alone (all rules except
  /// shared-mutable-static).
  std::vector<Finding> findings;
};

}  // namespace hcep::lint
