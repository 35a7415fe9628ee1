// Exact text for doubles in the obs exporters (trace JSONL and CSV,
// Prometheus text).
#pragma once

#include <array>
#include <cstdio>
#include <string>

namespace hcep::obs::detail {

/// Shortest "%.<N>g" form that parses back to exactly `v`: deterministic
/// (replay comparison is byte-wise) and lossless (`hcep profile` reads
/// exported timestamps back, and invariant checks re-integrate exported
/// power samples). Seventeen significant digits round-trip every double.
inline std::string format_double(double v) {
  std::array<char, 32> buf{};
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf.data(), buf.size(), "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(buf.data(), "%lf", &parsed);
    if (parsed == v) break;
  }
  return std::string(buf.data());
}

}  // namespace hcep::obs::detail
