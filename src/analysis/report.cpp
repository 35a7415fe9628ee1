#include "hcep/analysis/report.hpp"

#include <sstream>

#include "hcep/analysis/knightshift.hpp"
#include "hcep/cluster/simulator.hpp"
#include "hcep/config/budget.hpp"
#include "hcep/hw/catalog.hpp"
#include "hcep/obs/obs.hpp"
#include "hcep/obs/run_report.hpp"
#include "hcep/traffic/arrivals.hpp"
#include "hcep/traffic/simulate.hpp"
#include "hcep/util/error.hpp"
#include "hcep/util/table.hpp"

namespace hcep::analysis {

namespace {

/// Traces one EP cluster run and renders the analysis layer's view of it
/// (profile, queue decomposition, windowed energy attribution).
void render_observability_section(const core::PaperStudy& study,
                                  std::ostringstream& os) {
  os << "## Observability — traced DES run (EP, 4xA9 + 2xK10)\n\n";

  obs::Observer observer;
  cluster::SimOptions sim_options;
  sim_options.utilization = 0.6;
  sim_options.min_jobs = 200;
  sim_options.seed = 20260807;
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2),
                                 study.workload("EP"));
  cluster::SimResult result;
  {
    obs::ScopedObserver scope(observer);
    result = cluster::simulate(m, sim_options);
  }

  const obs::Trace trace = obs::Trace::from(observer.tracer);
  const obs::MetricsSnapshot snapshot = observer.metrics.snapshot();
  const double interval = result.window.value() / 8.0;
  const obs::RunReport report = obs::make_run_report(
      trace, "EP traced run", interval, &snapshot);

  os << "Trace: " << report.profile.events << " events ("
     << report.profile.dropped << " dropped), horizon "
     << fmt(report.profile.horizon_s, 2) << " s, critical path "
     << fmt(report.profile.critical_path_s, 2) << " s, idle "
     << fmt(report.profile.idle_s, 2) << " s.\n\n";

  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& s : report.profile.spans) {
      rows.push_back({s.category + ":" + s.name, std::to_string(s.count),
                      fmt(s.wall_s, 2), fmt(s.self_s, 2),
                      fmt(s.wait_s, 2)});
    }
    os << markdown_table(
              {"span", "count", "wall [s]", "self [s]", "wait [s]"}, rows)
       << "\n";
  }

  const auto& q = report.profile.queue;
  os << "Queue decomposition over " << q.jobs
     << " jobs: mean wait " << fmt(q.mean_wait_s * 1e3, 2)
     << " ms vs mean service " << fmt(q.mean_service_s * 1e3, 2)
     << " ms (p95 " << fmt(q.p95_wait_s * 1e3, 2) << " / "
     << fmt(q.p95_service_s * 1e3, 2) << " ms).\n\n";

  // Energy attribution cross-check: windowed rollup of the cluster power
  // track over the observation window must re-integrate to the exact
  // simulator energy.
  const obs::SeriesRollup rollup = obs::rollup_counter(
      trace, "cluster_W", interval, result.window.value());
  os << "Windowed energy attribution (`cluster_W`, " << rollup.windows.size()
     << " windows): rollup total " << fmt(rollup.total_energy_j.value(), 3)
     << " J vs exact " << fmt(result.energy_exact.value(), 3) << " J.\n\n";
}

/// Drives the standard heterogeneous cluster with a mixed Poisson request
/// stream (EP batch + memcached interactive) through admission control
/// and renders the ledger, exact latency order statistics and per-class
/// SLO accounting.
void render_traffic_section(const core::PaperStudy& study,
                            std::ostringstream& os) {
  os << "## Traffic — request-level simulation (Poisson, 4xA9 + 2xK10)\n\n";

  const auto cluster = model::make_a9_k10_cluster(4, 2);
  std::vector<traffic::TrafficClass> classes;
  classes.push_back(
      traffic::TrafficClass{study.workload("EP"), 3.0, traffic::SloTarget{}});
  classes.push_back(traffic::TrafficClass{study.workload("memcached"), 1.0,
                                          traffic::SloTarget{}});
  const double capacity = traffic::cluster_capacity_per_s(cluster, classes);
  // Latency objective: p95 sojourn within 20x the mean service quantum.
  const Seconds slo_latency{20.0 / capacity};
  for (auto& c : classes) c.slo = traffic::SloTarget{slo_latency, 0.95};

  traffic::TrafficOptions options;
  options.requests = 4000;
  options.policy = cluster::DispatchPolicy::kJoinShortestQueue;
  options.admission.bucket_rate_per_s = 0.9 * capacity;
  options.admission.bucket_burst = 50.0;
  options.admission.max_queue_depth = 64;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = Seconds{2.0 / capacity};
  options.seed = 20260807;
  const auto r = traffic::simulate_traffic(
      cluster, classes, *traffic::make_poisson(0.7 * capacity), options);

  os << "Offered " << r.offered << " requests at utilization 0.70 ("
     << fmt(0.7 * capacity, 1) << " req/s against capacity "
     << fmt(capacity, 1) << " req/s), policy join-shortest-queue, token "
     << "bucket at 90% capacity, queue-depth cap 64, up to 3 attempts.\n\n";
  os << "Ledger: " << r.admitted << " admitted, " << r.shed_bucket
     << " shed by the bucket, " << r.shed_queue << " shed on queue depth, "
     << r.retries << " retries, " << r.completed << " completed, "
     << r.failed << " failed. Energy " << fmt(r.energy.value(), 1)
     << " J over " << fmt(r.makespan.value(), 2) << " s ("
     << fmt(r.energy_per_request.value(), 2) << " J/request).\n\n";

  {
    const auto latency_row = [](const std::string& label,
                                const traffic::LatencySummary& s) {
      return std::vector<std::string>{label, fmt(s.mean.value() * 1e3, 2),
                                      fmt(s.p50.value() * 1e3, 2),
                                      fmt(s.p95.value() * 1e3, 2),
                                      fmt(s.p99.value() * 1e3, 2),
                                      fmt(s.max.value() * 1e3, 2)};
    };
    os << markdown_table(
              {"latency", "mean [ms]", "p50 [ms]", "p95 [ms]", "p99 [ms]",
               "max [ms]"},
              {latency_row("queue wait", r.wait),
               latency_row("service", r.service),
               latency_row("sojourn", r.sojourn)})
       << "\n";
  }

  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : r.classes) {
      rows.push_back({c.name, std::to_string(c.offered),
                      std::to_string(c.completed),
                      std::to_string(c.slo_violations),
                      fmt(100.0 * c.violation_fraction(), 1),
                      c.slo_met() ? "yes" : "no",
                      fmt(c.energy_per_request.value(), 2)});
    }
    os << markdown_table({"class", "offered", "completed", "violations",
                          "viol %", "p95 SLO met", "J/request"},
                         rows)
       << "\n";
  }

  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& n : r.nodes) {
      rows.push_back({n.node_name, std::to_string(n.jobs_served),
                      fmt(100.0 * n.busy_fraction, 1)});
    }
    os << markdown_table({"node type", "requests", "busy %"}, rows) << "\n";
  }
}

}  // namespace

std::string markdown_table(const std::vector<std::string>& header,
                           const std::vector<std::vector<std::string>>& rows) {
  require(!header.empty(), "markdown_table: empty header");
  std::ostringstream os;
  os << "|";
  for (const auto& h : header) os << " " << h << " |";
  os << "\n|";
  for (std::size_t i = 0; i < header.size(); ++i) os << "---|";
  os << "\n";
  for (const auto& row : rows) {
    require(row.size() == header.size(), "markdown_table: row width mismatch");
    os << "|";
    for (const auto& cell : row) os << " " << cell << " |";
    os << "\n";
  }
  return os.str();
}

std::string render_report(const core::PaperStudy& study,
                          const ReportOptions& options) {
  std::ostringstream os;
  os << "# hcep reproduction report\n\n"
     << "Generated by `hcep::analysis::render_report`. Paper: Ramapantulu, "
        "Loghin, Teo — *On Energy Proportionality and Time-Energy "
        "Performance of Heterogeneous Clusters*, IEEE CLUSTER 2016.\n\n";

  // ----------------------------------------------------------- Table 4
  os << "## Table 4 — model validation\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& r : study.table4()) {
      rows.push_back({r.domain, r.program, fmt(r.time_error_percent, 1),
                      fmt(r.energy_error_percent, 1)});
    }
    os << markdown_table({"Domain", "Program", "time err %", "energy err %"},
                         rows)
       << "\n";
  }

  // ------------------------------------------------------ Tables 6 + 7
  os << "## Tables 6/7 — single-node PPR and proportionality\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& a : study.single_node_analyses()) {
      rows.push_back({a.program, a.node,
                      a.ppr_peak >= 100 ? fmt_grouped(a.ppr_peak)
                                        : fmt(a.ppr_peak, 2),
                      fmt(a.report.dpr, 2), fmt(a.report.ipr, 2),
                      fmt(a.report.epm, 2)});
    }
    os << markdown_table({"Program", "Node", "PPR", "DPR", "IPR", "EPM"},
                         rows)
       << "\n";
  }

  // ------------------------------------------------------------ Table 8
  os << "## Table 8 — cluster-wide proportionality (1 kW mixes)\n\n";
  for (const auto& program : workload::program_names()) {
    os << "### " << program << "\n\n";
    std::vector<std::vector<std::string>> rows;
    for (const auto& m : study.budget_mix_analyses(program)) {
      rows.push_back({m.label, fmt(m.report.dpr, 2), fmt(m.report.ipr, 2),
                      fmt(m.report.epm, 2), fmt(m.idle_power.value(), 1),
                      fmt(m.peak_power.value(), 1)});
    }
    os << markdown_table(
              {"Mix", "DPR", "IPR", "EPM", "idle [W]", "peak [W]"}, rows)
       << "\n";
  }

  // ------------------------------------------------- Figures 9/10 + 11/12
  for (const auto* program : {"EP", "x264"}) {
    os << "## Figures 9-12 — Pareto mixes and response times (" << program
       << ")\n\n";
    const auto pareto = study.pareto_study(program, options.include_frontier);
    const auto response = study.response_study(program,
                                               options.cross_check_des);
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < pareto.mixes.size(); ++i) {
      const auto& pm = pareto.mixes[i];
      const auto& rm = response.mixes[i];
      rows.push_back(
          {pm.mix.label(),
           pm.crossover_utilization > 1.0
               ? std::string("never")
               : fmt(pm.crossover_utilization * 100, 0) + "%",
           pm.sublinear_at_half ? "yes" : "no",
           rm.meets_deadline ? "yes" : "NO",
           fmt(rm.service_time.value() * 1e3, 2),
           fmt(rm.points.back().p95_analytic.value() * 1e3, 1)});
    }
    os << "deadline: " << fmt(response.deadline.value() * 1e3, 1)
       << " ms; reference peak " << fmt(pareto.reference_peak.value(), 1)
       << " W";
    if (options.include_frontier)
      os << "; Pareto frontier size " << pareto.frontier.size();
    os << "\n\n"
       << markdown_table({"mix", "sub-linear from", "sub@50%",
                          "meets deadline", "service [ms]",
                          "p95@95% [ms]"},
                         rows)
       << "\n";
  }

  // ---------------------------------------------------------- extension
  os << "## Extension — KnightShift composites\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& w : study.workloads()) {
      const auto ks = analyze_knightshift(w);
      rows.push_back({w.name, fmt(ks.switch_threshold * 100, 1) + "%",
                      fmt(ks.report.ipr, 2), fmt(ks.report.epm, 2),
                      fmt(ks.report.ldr_literal, 2)});
    }
    os << markdown_table(
              {"Program", "knight covers", "IPR", "EPM", "LDR(literal)"},
              rows)
       << "\n";
  }

  // -------------------------------------------------------- observability
  if (options.include_observability) render_observability_section(study, os);
  if (options.include_traffic) render_traffic_section(study, os);
  return os.str();
}

}  // namespace hcep::analysis
