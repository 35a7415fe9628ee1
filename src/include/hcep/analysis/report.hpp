// Markdown report generation: renders every reproduction study into one
// document (the `paper_report` example writes REPORT.md with it).
#pragma once

#include <string>

#include "hcep/core/paper_study.hpp"

namespace hcep::analysis {

struct ReportOptions {
  /// Include the (slow) full-space Pareto frontier in the Fig. 9/10
  /// sections.
  bool include_frontier = false;
  /// Cross-check the response studies on the DES (slower).
  bool cross_check_des = false;
  /// Append an observability section: trace one EP cluster run, push it
  /// through obs::make_run_report and render the profile, queue
  /// decomposition and energy-attribution rollup.
  bool include_observability = false;
  /// Append a traffic section: drive the A9+K10 cluster with a mixed
  /// Poisson request stream through admission control and render the
  /// request ledger, latency order statistics and per-class SLO table.
  bool include_traffic = false;
};

/// Renders the complete paper reproduction (Tables 4-8, Figures 5-12
/// data, sub-linearity summary) as GitHub-flavoured markdown.
[[nodiscard]] std::string render_report(const core::PaperStudy& study,
                                        const ReportOptions& options = {});

/// Renders one markdown table from header + rows (helper, exposed for
/// reuse and testing).
[[nodiscard]] std::string markdown_table(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace hcep::analysis
