// hcep-lint selftest fixture: reachability control for
// shared-mutable-static. No shard-marker TU includes this header, so the
// mutable static below is single-threaded state and must NOT fire — if
// it does, the include-graph pass has lost its reachability gating.
// Scanned only by `hcep-lint --selftest`; not part of the build.
#pragma once

#include <cstdint>

namespace hcep::shared {

// Mutable static, but unreachable from parallel_for code: silent by
// design.
static std::uint64_t g_never_shared = 0;

}  // namespace hcep::shared
