// Markdown report generation.
#include <gtest/gtest.h>

#include "hcep/analysis/report.hpp"
#include "hcep/util/error.hpp"

namespace {

using namespace hcep;
using namespace hcep::analysis;

TEST(MarkdownTable, BasicShape) {
  const std::string md =
      markdown_table({"a", "b"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
  EXPECT_NE(md.find("| 3 | 4 |"), std::string::npos);
}

TEST(MarkdownTable, Validation) {
  EXPECT_THROW((void)markdown_table({}, {}), PreconditionError);
  EXPECT_THROW((void)markdown_table({"a"}, {{"1", "2"}}),
               PreconditionError);
}

TEST(Report, RendersEverySection) {
  const core::PaperStudy study;
  const std::string report = render_report(study);

  EXPECT_NE(report.find("# hcep reproduction report"), std::string::npos);
  EXPECT_NE(report.find("## Table 4"), std::string::npos);
  EXPECT_NE(report.find("## Tables 6/7"), std::string::npos);
  EXPECT_NE(report.find("## Table 8"), std::string::npos);
  EXPECT_NE(report.find("Figures 9-12"), std::string::npos);
  EXPECT_NE(report.find("KnightShift"), std::string::npos);

  // Every program appears.
  for (const auto& name : workload::program_names())
    EXPECT_NE(report.find(name), std::string::npos) << name;

  // Key values show up: EP/A9 PPR and the five mixes.
  EXPECT_NE(report.find("6,048,057"), std::string::npos);
  EXPECT_NE(report.find("32A9:12K10"), std::string::npos);
  EXPECT_NE(report.find("25A9:7K10"), std::string::npos);
}

TEST(Report, FrontierOptionAddsFrontierSize) {
  const core::PaperStudy study;
  ReportOptions opts;
  opts.include_frontier = false;
  const std::string without = render_report(study, opts);
  EXPECT_EQ(without.find("frontier size"), std::string::npos);
}

TEST(Report, ObservabilityOptionAppendsTracedRunSection) {
  const core::PaperStudy study;
  const std::string without = render_report(study);
  EXPECT_EQ(without.find("## Observability"), std::string::npos);

  ReportOptions opts;
  opts.include_observability = true;
  const std::string with = render_report(study, opts);
  EXPECT_NE(with.find("## Observability"), std::string::npos);
  // The traced-run profile and the energy-attribution cross-check
  // render when the instrumentation is compiled in.
  EXPECT_NE(with.find("cluster:job"), std::string::npos);
  EXPECT_NE(with.find("Queue decomposition"), std::string::npos);
  EXPECT_NE(with.find("Windowed energy attribution"), std::string::npos);
}

TEST(Report, TrafficOptionAppendsRequestLevelSection) {
  const core::PaperStudy study;
  const std::string without = render_report(study);
  EXPECT_EQ(without.find("## Traffic"), std::string::npos);

  ReportOptions opts;
  opts.include_traffic = true;
  const std::string with = render_report(study, opts);
  EXPECT_NE(with.find("## Traffic"), std::string::npos);
  EXPECT_NE(with.find("Ledger:"), std::string::npos);
  EXPECT_NE(with.find("queue wait"), std::string::npos);
  EXPECT_NE(with.find("p95 SLO met"), std::string::npos);
  EXPECT_NE(with.find("memcached"), std::string::npos);
  // Deterministic: two renders are byte-identical.
  EXPECT_EQ(with, render_report(study, opts));
}

}  // namespace
