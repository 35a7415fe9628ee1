// hcep — command-line front end to the reproduction library.
//
//   hcep help                         this text
//   hcep report [path]               full markdown report (default REPORT.md)
//   hcep table <4|6|7|8>             one paper table on stdout
//   hcep metrics <program> <nA9> <nK10>
//                                    proportionality metrics of one mix
//   hcep sweep <program> [maxA9 maxK10]
//                                    Pareto frontier over the config space
//   hcep response <program>          Figures 11/12-style p95 table
//   hcep sensitivity <program>       seed-perturbation robustness
//   hcep governor <program> [nA9 nK10]
//                                    race-to-idle vs DVFS pacing
//   hcep autoscale <program>         diurnal autoscaling vs static fleet
//   hcep export <json|figures> [path]
//                                    machine-readable study results
//   hcep control <program|synthetic> [...]
//                                    closed-loop control vs open loop
//   hcep trace <program|synthetic> [path]
//                                    traced DES run exported as JSONL
//   hcep profile <trace.jsonl> [--interval S] [--json p] [--folded p]
//                [--prom p]          analyze an exported trace
//   hcep timeline <program|synthetic> [...]
//                                    streamed windowed telemetry
//   hcep diff <a.json> <b.json>      compare two timeline exports
//   hcep fed [--policy P] [...]      3-site federated fleet run with
//                                    energy/carbon-aware global routing
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures
// (`hcep diff` returns 0 when identical within tolerance, 1 otherwise).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "hcep/hcep.hpp"

#include "hcep/fed/curves.hpp"
#include "hcep/fed/fleet.hpp"

namespace {

using namespace hcep;

int usage() {
  std::cerr
      << "usage: hcep <command> [args]\n"
         "  report [path]                   full markdown report\n"
         "  table <4|6|7|8>                 one paper table\n"
         "  metrics <program> <nA9> <nK10>  metrics of one mix\n"
         "  sweep <program> [maxA9 maxK10]  Pareto frontier\n"
         "  response <program>              p95 vs utilization\n"
         "  sensitivity <program>           seed robustness\n"
         "  governor <program> [nA9 nK10]   race vs pace\n"
         "  autoscale <program>             autoscaling vs static fleet\n"
         "  export json [path]              full study as JSON\n"
         "  traffic <program|synthetic> [--arrivals poisson|deterministic|"
         "bursty|diurnal]\n"
         "          [--util U] [--requests N] [--policy P] [--seed S] "
         "[--slo-ms MS]\n"
         "          [--bucket-rate R] [--bucket-burst B] [--max-queue D] "
         "[--retries K]\n"
         "          [--json path]           request-level simulation\n"
         "  control <program|synthetic> [--controller power_gate|dvfs|"
         "power_cap|frozen]\n"
         "          [--arrivals diurnal|mmpp|poisson] [--util U] "
         "[--requests N]\n"
         "          [--seed S] [--shards K] [--period S] [--cap W] "
         "[--slo-ms MS]\n"
         "          [--json path]           closed-loop vs open-loop run\n"
         "  trace <program|synthetic> [path]  traced DES run -> JSONL\n"
         "  profile <trace.jsonl> [--interval S] [--json p] [--folded p] "
         "[--prom p]\n"
         "                                  analyze an exported trace\n"
         "  timeline <program|synthetic> [--arrivals A] [--util U] "
         "[--requests N]\n"
         "          [--policy P] [--seed S] [--shards K] [--window S] "
         "[--epsilon E]\n"
         "          [--json path] [--csv path]  streamed windowed telemetry\n"
         "  diff <a.json> <b.json> [--rel T] [--abs T] [--json path]\n"
         "                                  compare two timeline exports\n"
         "  fed [--policy nearest|round-robin|pinned|cheapest-energy|"
         "lowest-carbon|slo-hybrid]\n"
         "      [--requests N] [--seed S] [--shards K] [--pinned I] "
         "[--json path]\n"
         "                                  3-site federated fleet run\n"
         "  selftest <profile|diff|fed>     pipeline self-checks\n"
         "programs: EP memcached x264 blackscholes Julius RSA-2048\n";
  return 1;
}

/// Parses one numeric argument. The whole text must be a T: no sign on
/// an unsigned type, at most `max` for an integer, finite for a double.
/// Anything else throws a PreconditionError naming the argument and its
/// text, which main prints before exiting 2.
template <typename T>
T parse_number(std::string_view name, const std::string& text,
               T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end && value <= max;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  std::string expected = "a finite number";
  if constexpr (std::is_integral_v<T>)
    expected = "an integer in [" +
               std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(max) + "]";
  throw PreconditionError(std::string(name) + ": '" + text + "' is not " +
                          expected);
}

const core::PaperStudy& study() {
  static const core::PaperStudy kStudy;
  return kStudy;
}

/// Writes `content` to `path` and, when `announce`, prints "wrote
/// <path>". Prints "cannot write <path>" and returns false when the file
/// cannot be opened.
bool write_file(const std::string& path, const std::string& content,
                bool announce = true) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << content;
  if (announce) std::cout << "wrote " << path << "\n";
  return true;
}

int cmd_report(const std::vector<std::string>& args) {
  const std::string path = args.empty() ? "REPORT.md" : args[0];
  analysis::ReportOptions options;
  options.include_observability = true;
  options.include_traffic = true;
  return write_file(path, analysis::render_report(study(), options)) ? 0 : 2;
}

int cmd_table(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string which = args[0];
  if (which == "4") {
    TextTable t({"Domain", "Program", "time err[%]", "energy err[%]"});
    for (const auto& r : study().table4())
      t.add_row({r.domain, r.program, fmt(r.time_error_percent, 1),
                 fmt(r.energy_error_percent, 1)});
    std::cout << t;
    return 0;
  }
  if (which == "6" || which == "7") {
    TextTable t({"Program", "Node", "PPR", "DPR", "IPR", "EPM"});
    for (const auto& a : study().single_node_analyses())
      t.add_row({a.program, a.node,
                 a.ppr_peak >= 100 ? fmt_grouped(a.ppr_peak)
                                   : fmt(a.ppr_peak, 2),
                 fmt(a.report.dpr, 2), fmt(a.report.ipr, 2),
                 fmt(a.report.epm, 2)});
    std::cout << t;
    return 0;
  }
  if (which == "8") {
    for (const auto& program : workload::program_names()) {
      TextTable t({"Mix", "DPR", "IPR", "EPM"});
      for (const auto& m : study().budget_mix_analyses(program))
        t.add_row({m.label, fmt(m.report.dpr, 2), fmt(m.report.ipr, 2),
                   fmt(m.report.epm, 2)});
      std::cout << "[" << program << "]\n" << t << "\n";
    }
    return 0;
  }
  return usage();
}

int cmd_metrics(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const auto& w = study().workload(args[0]);
  const auto n_a9 = parse_number<unsigned>("nA9", args[1]);
  const auto n_k10 = parse_number<unsigned>("nK10", args[2]);
  model::TimeEnergyModel m(model::make_a9_k10_cluster(n_a9, n_k10), w);
  const auto r = metrics::analyze(m.power_curve());
  std::cout << "mix " << m.cluster().label() << " running " << w.name
            << ":\n"
            << "  T_P " << m.job_time() << "   E_P "
            << m.job_energy(w.units_per_job).e_p << "\n"
            << "  idle " << m.idle_power() << "   busy " << m.busy_power()
            << "   nameplate " << m.cluster().nameplate_power() << "\n"
            << "  DPR " << fmt(r.dpr, 2) << "  IPR " << fmt(r.ipr, 2)
            << "  EPM " << fmt(r.epm, 2) << "  PPR@peak "
            << fmt(m.ppr(1.0), 2) << "\n";
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto& w = study().workload(args[0]);
  const unsigned max_a9 =
      args.size() > 1 ? parse_number<unsigned>("maxA9", args[1]) : 10;
  const unsigned max_k10 =
      args.size() > 2 ? parse_number<unsigned>("maxK10", args[2]) : 5;
  const auto space = config::make_a9_k10_space(max_a9, max_k10);
  std::cout << "evaluating " << space.size() << " configurations...\n";
  const auto evals = config::evaluate_space(space, w);
  const auto front = config::pareto_front(evals);
  TextTable t({"config", "T_P [ms]", "E_P [J]", "EDP [J*s]"});
  for (const auto& e : front)
    t.add_row({e.config.label(), fmt(e.time.value() * 1e3, 2),
               fmt(e.energy.value(), 2),
               fmt(config::energy_delay_product(e).value(), 4)});
  std::cout << t;
  const auto edp = config::min_edp(evals);
  std::cout << "EDP optimum: " << edp->config.label() << "\n";
  return 0;
}

int cmd_response(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto r = study().response_study(args[0]);
  std::cout << "deadline " << r.deadline << "\n";
  TextTable t({"mix", "meets", "service [ms]", "p95@50% [ms]",
               "p95@90% [ms]"});
  for (const auto& m : r.mixes) {
    const auto at = [&](double up) -> double {
      for (const auto& pt : m.points)
        if (pt.utilization_percent == up) return pt.p95_analytic.value();
      return 0.0;
    };
    t.add_row({m.mix.label(), m.meets_deadline ? "yes" : "NO",
               fmt(m.service_time.value() * 1e3, 2), fmt(at(50) * 1e3, 2),
               fmt(at(90) * 1e3, 2)});
  }
  std::cout << t;
  return 0;
}

int cmd_sensitivity(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto r = analysis::run_sensitivity_study(args[0]);
  std::cout << "trials: " << r.trials << "\n"
            << "Table 6 winner flips: " << r.winner_flips << "\n"
            << "Table 8 DPR(64A9:8K10): " << fmt(r.dpr_mixed.mean(), 2)
            << " +/- " << fmt(r.dpr_mixed.stddev(), 2) << "\n"
            << "Fig 9 (25,7) crossover: "
            << fmt(r.crossover_25_7.mean(), 3) << " +/- "
            << fmt(r.crossover_25_7.stddev(), 3) << "\n";
  return 0;
}

int cmd_autoscale(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto& w = study().workload(args[0]);
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(32, 12), w);
  const auto day =
      cluster::LoadTrace::diurnal(Seconds{600.0}, 0.1, 0.8);
  const auto r = cluster::autoscale_replay(m, day);
  std::cout << "fleet 32A9:12K10 over a diurnal day (compressed):\n"
            << "  energy " << fmt(r.total_energy.value() / 1e3, 1)
            << " kJ   avg power " << fmt(r.average_power.value(), 1)
            << " W   worst p95 " << fmt(r.worst_p95.value() * 1e3, 1)
            << " ms\n"
            << "  effective EPM " << fmt(r.effective_report.epm, 2)
            << " (static fleet: " << fmt(r.static_report.epm, 2) << ")\n"
            << "  effective idle floor "
            << fmt(r.effective_curve.idle().value(), 1) << " W (static: "
            << fmt(m.idle_power().value(), 1) << " W)\n";
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "json") return usage();
  const std::string path = args.size() > 1 ? args[1] : "study.json";
  return write_file(path, analysis::export_study(study()).dump_pretty() + "\n")
             ? 0
             : 2;
}

// ----------------------------------------------------------- telemetry

/// Deterministic workload for trace/selftest runs that must not pay for
/// kernel characterization (no calibrated-overheads table row needed).
workload::Workload synthetic_workload() {
  workload::Workload w;
  w.name = "synthetic";
  w.units_per_job = 5e5;
  w.demand["A9"] = workload::NodeDemand{5e4, 1e4, Bytes{0.0}};
  w.demand["K10"] = workload::NodeDemand{5e4, 1e4, Bytes{0.0}};
  return w;
}

/// Runs one traced cluster simulation into `observer`.
cluster::SimResult traced_run(const std::string& program,
                              obs::Observer& observer) {
  const bool synthetic = program == "synthetic";
  const workload::Workload w =
      synthetic ? synthetic_workload() : study().workload(program);
  const model::TimeEnergyModel m(model::make_a9_k10_cluster(4, 2), w);
  cluster::SimOptions options;
  options.utilization = 0.6;
  options.batch_size = 2;
  options.min_jobs = 50;
  options.seed = 20260807;
  options.use_testbed_overheads = !synthetic;
  obs::ScopedObserver scope(observer);
  return cluster::simulate(m, options);
}

int cmd_trace(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args.size() > 1 ? args[1] : "trace.jsonl";
  obs::Observer observer;
  const cluster::SimResult r = traced_run(args[0], observer);
  if (!write_file(path, observer.tracer.jsonl(), false)) return 2;
  std::cout << "wrote " << observer.tracer.size() << " events ("
            << observer.tracer.dropped() << " dropped, "
            << r.jobs_completed << " jobs) to " << path << "\n";
  return 0;
}

int cmd_profile(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string trace_path = args[0];
  double interval = 0.0;
  std::string json_path, folded_path, prom_path;
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    if (args[i] == "--interval")
      interval = parse_number<double>(args[i], args[i + 1]);
    else if (args[i] == "--json")
      json_path = args[i + 1];
    else if (args[i] == "--folded")
      folded_path = args[i + 1];
    else if (args[i] == "--prom")
      prom_path = args[i + 1];
    else
      return usage();
  }

  std::ifstream in(trace_path);
  if (!in) {
    std::cerr << "cannot read " << trace_path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::Trace trace = obs::read_trace_jsonl(buffer.str());

  const double horizon =
      trace.events.empty() ? 0.0 : trace.events.back().ts;
  if (interval <= 0.0) interval = horizon > 0.0 ? horizon / 8.0 : 1.0;
  const obs::RunReport report =
      obs::make_run_report(trace, trace_path, interval);
  const auto& p = report.profile;

  std::cout << "trace " << trace_path << ": " << p.events << " events ("
            << p.dropped << " dropped), horizon " << fmt(p.horizon_s, 3)
            << " s, critical path " << fmt(p.critical_path_s, 3)
            << " s, idle " << fmt(p.idle_s, 3) << " s\n";
  // Silent data loss is the one thing a profile must never hide: echo
  // the report's warning lines (ring drops, flight-recorder evictions).
  for (const std::string& warning : report.warnings())
    std::cout << "WARNING: " << warning << "\n";
  if (p.unmatched_begins + p.unmatched_ends > 0) {
    std::cout << "  (" << p.unmatched_begins << " unmatched begins, "
              << p.unmatched_ends
              << " unmatched ends: ring truncation)\n";
  }
  if (!p.spans.empty()) {
    TextTable t({"span", "count", "wall [s]", "self [s]", "min [ms]",
                 "max [ms]", "wait [s]"});
    for (const auto& s : p.spans)
      t.add_row({s.category + ":" + s.name, std::to_string(s.count),
                 fmt(s.wall_s, 3), fmt(s.self_s, 3),
                 fmt(s.min_s * 1e3, 2), fmt(s.max_s * 1e3, 2),
                 fmt(s.wait_s, 3)});
    std::cout << t;
  }
  if (p.queue.jobs > 0) {
    std::cout << "queue: " << p.queue.jobs << " jobs, mean wait "
              << fmt(p.queue.mean_wait_s * 1e3, 2) << " ms, mean service "
              << fmt(p.queue.mean_service_s * 1e3, 2) << " ms, p95 wait "
              << fmt(p.queue.p95_wait_s * 1e3, 2) << " ms, p95 service "
              << fmt(p.queue.p95_service_s * 1e3, 2) << " ms\n";
  }
  for (const auto& r : report.rollups) {
    std::cout << "counter " << r.channel << ": " << r.windows.size()
              << " windows of " << fmt(r.interval_s, 3)
              << " s, total energy " << fmt(r.total_energy_j.value(), 3)
              << " J\n";
  }

  if (!json_path.empty() && !write_file(json_path, report.json() + "\n"))
    return 2;
  if (!folded_path.empty() &&
      !write_file(folded_path, obs::folded_stacks(trace)))
    return 2;
  if (!prom_path.empty() &&
      !write_file(prom_path, obs::prometheus_text(report.metrics)))
    return 2;
  return 0;
}

/// End-to-end smoke of the telemetry pipeline, wired into ctest: trace a
/// synthetic run to JSONL, profile it through the real `profile` command
/// path, then re-parse and cross-check the artifacts.
int cmd_selftest_profile() {
  const std::string trace_path = "hcep_selftest_trace.jsonl";
  const std::string json_path = "hcep_selftest_report.json";
  const std::string folded_path = "hcep_selftest.folded";
  const std::string prom_path = "hcep_selftest.prom";

  obs::Observer observer;
  const cluster::SimResult r = traced_run("synthetic", observer);
  if (!write_file(trace_path, observer.tracer.jsonl(), false)) return 2;
  if (cmd_profile({trace_path, "--json", json_path, "--folded",
                   folded_path, "--prom", prom_path}) != 0) {
    return 2;
  }

  // The emitted report must be valid JSON and agree with the trace.
  std::ifstream in(json_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue report = JsonValue::parse(buffer.str());
  const auto events =
      static_cast<std::uint64_t>(report.at("profile").at("events").as_int());
  if (events != observer.tracer.size()) {
    std::cerr << "selftest: report events " << events << " != traced "
              << observer.tracer.size() << "\n";
    return 2;
  }

  // Live-instrumentation cross-checks: windowed energy attribution must
  // re-integrate to the simulator's exact energy, and a same-seed rerun
  // must reproduce the trace bytes.
  const obs::Trace trace = obs::Trace::from(observer.tracer);
  const obs::SeriesRollup rollup = obs::rollup_counter(
      trace, "cluster_W", r.window.value() / 8.0, r.window.value());
  const double exact = r.energy_exact.value();
  if (std::abs(rollup.total_energy_j.value() - exact) >
      std::abs(exact) * 1e-9) {
    std::cerr << "selftest: rollup energy " << rollup.total_energy_j.value()
              << " J != exact " << exact << " J\n";
    return 2;
  }
  obs::Observer replay;
  traced_run("synthetic", replay);
  if (replay.tracer.jsonl() != observer.tracer.jsonl()) {
    std::cerr << "selftest: same-seed rerun produced different trace "
                 "bytes\n";
    return 2;
  }
  std::cout << "selftest profile: ok\n";
  return 0;
}

/// Determinism + sensitivity smoke of the streamed timeline and the diff
/// tooling, wired into ctest: a same-seed rerun must diff empty, and
/// extending the run must flag exactly the windows whose exported bytes
/// actually changed — with the shared prefix untouched.
int cmd_selftest_diff() {
  const workload::Workload w = synthetic_workload();
  const model::ClusterSpec spec = model::make_a9_k10_cluster(4, 2);
  const std::vector<traffic::TrafficClass> classes{
      traffic::TrafficClass{w, 1.0, traffic::SloTarget{}}};
  const double rate =
      0.7 * traffic::cluster_capacity_per_s(spec, classes);

  // Fixed window width across runs: the diff requires matching shapes,
  // and the perturbed run must land its changes in the TAIL windows.
  const auto run = [&](std::uint64_t requests) {
    traffic::TrafficOptions options;
    options.requests = requests;
    options.seed = 99;
    options.stream.window = Seconds{4000.0 / rate / 64.0};
    const auto arrivals = traffic::make_poisson(rate);
    return traffic::simulate_traffic(spec, classes, *arrivals, options)
        .timeline;
  };

  const obs::stream::StreamTimeline a = run(4000);
  const obs::stream::StreamTimeline rerun = run(4000);
  if (a.to_json().dump() != rerun.to_json().dump()) {
    std::cerr << "selftest: same-seed timelines are not byte-identical\n";
    return 2;
  }
  if (!obs::stream::diff_timelines(a, rerun).empty()) {
    std::cerr << "selftest: same-seed diff is not empty\n";
    return 2;
  }

  // Perturb one option (200 extra requests) and require the diff to
  // flag exactly the windows whose JSON bytes differ — no more, no less.
  const obs::stream::StreamTimeline b = run(4200);
  const obs::stream::TimelineDiff d = obs::stream::diff_timelines(a, b);
  if (d.empty()) {
    std::cerr << "selftest: extended run produced an empty diff\n";
    return 2;
  }
  const JsonValue ja = a.to_json();
  const JsonValue jb = b.to_json();
  const JsonValue& wa = ja.at("windows");
  const JsonValue& wb = jb.at("windows");
  std::vector<std::uint64_t> expected;
  const std::size_t shared = std::min(wa.size(), wb.size());
  for (std::size_t i = 0; i < shared; ++i) {
    if (wa.at(i).dump() != wb.at(i).dump())
      expected.push_back(static_cast<std::uint64_t>(i));
  }
  for (std::size_t i = shared; i < std::max(wa.size(), wb.size()); ++i)
    expected.push_back(static_cast<std::uint64_t>(i));
  if (d.flagged_windows() != expected) {
    std::cerr << "selftest: flagged windows do not match the byte-level "
                 "differences\n";
    return 2;
  }
  if (expected.empty() || expected.front() == 0) {
    std::cerr << "selftest: expected an unchanged shared window prefix\n";
    return 2;
  }
  std::cout << "selftest diff: ok (" << expected.size() << "/"
            << std::max(wa.size(), wb.size()) << " windows changed, first "
            << expected.front() << ")\n";
  return 0;
}

// ----------------------------------------------------------------- fed

/// The keystone federation scenario at CLI scale: three regions
/// ("alpha" twice the size of "beta"/"gamma") with diurnal demand
/// peaking a third of a compressed day apart, tariff and carbon curves
/// peaking with each region's local load, interactive (memcached,
/// tight SLO) plus batch (x264, loose SLO) traffic, and a WAN whose
/// transit excludes remote sites for interactive requests. The same
/// shape as tests/test_fed.cpp's FleetScenario; see docs/FEDERATION.md.
struct FedScenario {
  std::vector<fed::Site> sites;
  hw::InterSiteNetwork network;
  std::vector<traffic::TrafficClass> classes;
  fed::FleetOptions options;
};

FedScenario make_fed_scenario(std::uint64_t requests_per_site,
                              std::uint64_t seed) {
  FedScenario sc;
  const std::vector<unsigned> k10 = {4, 2, 2};
  const char* names[] = {"alpha", "beta", "gamma"};

  const auto probe = model::make_a9_k10_cluster(0, 1);
  const std::vector<traffic::TrafficClass> mc_only = {
      {study().workload("memcached"), 1.0, {}}};
  const std::vector<traffic::TrafficClass> x264_only = {
      {study().workload("x264"), 1.0, {}}};
  const Seconds s_i{1.0 / traffic::cluster_capacity_per_s(probe, mc_only)};
  const Seconds s_b{1.0 / traffic::cluster_capacity_per_s(probe, x264_only)};
  const Seconds slo_i{12.0 * s_i.value()};
  const Seconds slo_b{40.0 * s_b.value()};
  sc.classes = {
      {study().workload("memcached"), 0.80, traffic::SloTarget{slo_i, 0.95}},
      {study().workload("x264"), 0.20, traffic::SloTarget{slo_b, 0.95}}};

  sc.network = hw::InterSiteNetwork::uniform(3, Seconds{0.5 * slo_i.value()},
                                             BytesPerSecond{0.0});

  double fleet_capacity = 0.0;
  for (const unsigned n : k10)
    fleet_capacity += traffic::cluster_capacity_per_s(
        model::make_a9_k10_cluster(0, n), sc.classes);
  const double site_rate = 0.55 * fleet_capacity / 3.0;
  const Seconds period{static_cast<double>(requests_per_site) / site_rate};

  for (std::size_t s = 0; s < 3; ++s) {
    fed::Site site;
    site.name = names[s];
    site.cluster = model::make_a9_k10_cluster(0, k10[s]);
    site.rack_budget = site.cluster.nameplate_power();
    const Seconds offset{period.value() * static_cast<double>(s) / 3.0};
    site.arrivals = traffic::make_diurnal(site_rate, 0.85, period, offset);
    // The sinusoidal load peaks a quarter period past its offset; the
    // tariff and carbon curves peak with the local load.
    const Seconds price_peak{offset.value() + 0.25 * period.value()};
    site.price = fed::make_diurnal_curve(0.10, 0.8, period, price_peak,
                                         /*seed=*/100 + s, /*jitter=*/0.03);
    site.carbon = fed::make_diurnal_curve(420.0, 0.6, period, price_peak,
                                          /*seed=*/200 + s, /*jitter=*/0.03);
    sc.sites.push_back(std::move(site));
  }

  sc.options.requests_per_site = requests_per_site;
  sc.options.seed = seed;
  sc.options.stream.window = Seconds{period.value() / 48.0};
  sc.options.router.headroom = 0.60;
  sc.options.router.transit_slack = 0.25;
  // Short relative to the diurnal ramp — see RouterOptions::load_window.
  sc.options.router.load_window = Seconds{6.0 * s_b.value()};
  return sc;
}

int cmd_fed(const std::vector<std::string>& args) {
  std::string policy_name = "slo-hybrid";
  std::uint64_t requests = 3000;
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  std::size_t pinned = 0;
  std::string json_path;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--policy")
      policy_name = value;
    else if (key == "--requests")
      requests = parse_number<std::uint64_t>(key, value);
    else if (key == "--seed")
      seed = parse_number<std::uint64_t>(key, value);
    else if (key == "--shards")
      shards = parse_number<std::size_t>(key, value);
    else if (key == "--pinned")
      pinned = parse_number<std::size_t>(key, value);
    else if (key == "--json")
      json_path = value;
    else
      return usage();
  }

  FedScenario sc = make_fed_scenario(requests, seed);
  sc.options.router.policy = fed::parse_route_policy(policy_name);
  sc.options.router.pinned_site = pinned;
  sc.options.shards = shards;
  const fed::FleetReport r =
      fed::simulate_fleet(sc.sites, sc.network, sc.classes, sc.options);

  std::cout << "fleet of " << r.sites.size() << " sites, policy "
            << r.router_policy << ", seed " << r.seed << ", "
            << requests << " req/site:\n"
            << "  offered " << r.offered << "  completed " << r.completed
            << "  failed " << r.failed << "  cross-site " << r.cross_site
            << "\n  energy " << fmt(r.energy.value(), 1) << " J  cost $"
            << fmt(r.energy_cost, 4) << "  carbon " << fmt(r.carbon_g, 1)
            << " g  horizon " << fmt(r.horizon.value(), 1) << " s\n";
  TextTable sites_t(
      {"site", "routed", "local", "energy [J]", "cost [$]", "carbon [g]"});
  for (const auto& s : r.sites)
    sites_t.add_row({s.name, std::to_string(s.routed),
                     std::to_string(s.local), fmt(s.energy.value(), 1),
                     fmt(s.energy_cost, 4), fmt(s.carbon_g, 1)});
  std::cout << sites_t;
  TextTable cls_t({"class", "completed", "violations", "e2e p99 [ms]",
                   "slo [ms]", "mean transit [ms]"});
  for (const auto& c : r.classes)
    cls_t.add_row({c.name, std::to_string(c.completed),
                   std::to_string(c.slo_violations),
                   fmt(c.e2e.p99.value() * 1e3, 1),
                   fmt(c.slo.latency.value() * 1e3, 1),
                   fmt(c.mean_transit.value() * 1e3, 2)});
  std::cout << cls_t;
  if (!json_path.empty() &&
      !write_file(json_path, r.to_json().dump_pretty() + "\n"))
    return 2;
  return 0;
}

/// `hcep selftest fed`: the federation determinism contract through the
/// public surface — a same-seed fleet run must serialize byte-identically
/// across repeated runs AND across shard counts (shards only decide
/// whether the per-site simulations run concurrently), while a different
/// seed must produce a different document.
int cmd_selftest_fed() {
  const auto dump = [](std::uint64_t seed, std::size_t shards) {
    FedScenario sc = make_fed_scenario(900, seed);
    sc.options.shards = shards;
    return fed::simulate_fleet(sc.sites, sc.network, sc.classes, sc.options)
        .to_json()
        .dump_pretty();
  };
  const std::string first = dump(20260809, 1);
  if (dump(20260809, 1) != first) {
    std::cerr << "selftest: same-seed fleet reruns are not byte-identical\n";
    return 2;
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
    if (dump(20260809, shards) != first) {
      std::cerr << "selftest: fleet report changed with shards="
                << shards << "\n";
      return 2;
    }
  }
  if (dump(20260810, 1) == first) {
    std::cerr << "selftest: different seeds produced identical fleets\n";
    return 2;
  }
  std::cout << "selftest fed: ok (" << first.size()
            << "-byte report stable across reruns and shards 1/2/3)\n";
  return 0;
}

int cmd_selftest(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  if (args[0] == "profile") return cmd_selftest_profile();
  if (args[0] == "diff") return cmd_selftest_diff();
  if (args[0] == "fed") return cmd_selftest_fed();
  return usage();
}

// ------------------------------------------------------------- traffic

/// Sets `options.policy` from a --policy name; prints "unknown policy
/// <name>" and returns false when no dispatch policy has that name.
bool parse_policy(const std::string& name, traffic::TrafficOptions& options) {
  for (const auto p : cluster::all_dispatch_policies()) {
    if (cluster::to_string(p) == name) {
      options.policy = p;
      return true;
    }
  }
  std::cerr << "unknown policy " << name << "\n";
  return false;
}

/// The `traffic` and `timeline` --arrivals menu at a mean of `rate`
/// req/s; prints "unknown arrival process <name>" and returns null for
/// any other name.
std::unique_ptr<traffic::ArrivalProcess> menu_arrivals(const std::string& name,
                                                       double rate) {
  if (name == "poisson") return traffic::make_poisson(rate);
  if (name == "deterministic") return traffic::make_deterministic(rate);
  if (name == "bursty")
    // 4:1 quiet/burst dwell split with the same long-run mean rate.
    return traffic::make_bursty(0.5 * rate, Seconds{4.0 / rate * 100.0},
                                3.0 * rate, Seconds{1.0 / rate * 100.0});
  if (name == "diurnal")
    return traffic::make_diurnal(rate, 0.5, Seconds{200.0 / rate});
  std::cerr << "unknown arrival process " << name << "\n";
  return nullptr;
}

int cmd_traffic(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const bool synthetic = args[0] == "synthetic";
  const workload::Workload w =
      synthetic ? synthetic_workload() : study().workload(args[0]);

  std::string arrivals_name = "poisson";
  std::string policy_name = "join-shortest-queue";
  double util = 0.7;
  double slo_ms = 0.0;
  std::string json_path;
  traffic::TrafficOptions options;
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--arrivals")
      arrivals_name = value;
    else if (key == "--policy")
      policy_name = value;
    else if (key == "--util")
      util = parse_number<double>(key, value);
    else if (key == "--requests")
      options.requests = parse_number<std::uint64_t>(key, value);
    else if (key == "--seed")
      options.seed = parse_number<std::uint64_t>(key, value);
    else if (key == "--bucket-rate")
      options.admission.bucket_rate_per_s = parse_number<double>(key, value);
    else if (key == "--bucket-burst")
      options.admission.bucket_burst = parse_number<double>(key, value);
    else if (key == "--max-queue")
      options.admission.max_queue_depth =
          parse_number<std::uint64_t>(key, value);
    else if (key == "--retries")
      options.retry.max_attempts =
          1 + parse_number<std::uint32_t>(
                  key, value, std::numeric_limits<std::uint32_t>::max() - 1);
    else if (key == "--slo-ms")
      slo_ms = parse_number<double>(key, value);
    else if (key == "--json")
      json_path = value;
    else
      return usage();
  }

  if (!parse_policy(policy_name, options)) return 1;

  std::vector<traffic::TrafficClass> classes{
      traffic::TrafficClass{w, 1.0, traffic::SloTarget{}}};
  if (slo_ms > 0.0)
    classes[0].slo = traffic::SloTarget{Seconds{slo_ms * 1e-3}, 0.95};
  const double capacity = traffic::cluster_capacity_per_s(
      model::make_a9_k10_cluster(4, 2), classes);
  const double rate = util * capacity;

  const auto arrivals = menu_arrivals(arrivals_name, rate);
  if (arrivals == nullptr) return 1;

  const auto r = traffic::simulate_traffic(model::make_a9_k10_cluster(4, 2),
                                           classes, *arrivals, options);

  std::cout << w.name << " over 4xA9 + 2xK10, " << r.arrival_process
            << " arrivals at " << fmt(rate, 1) << " req/s (util "
            << fmt(util * 100.0, 0) << "% of " << fmt(capacity, 1)
            << " req/s), policy " << policy_name << ":\n"
            << "  offered " << r.offered << "  admitted " << r.admitted
            << "  shed " << r.shed_bucket + r.shed_queue << " (bucket "
            << r.shed_bucket << ", queue " << r.shed_queue << ")  retries "
            << r.retries << "  completed " << r.completed << "  failed "
            << r.failed << "\n";
  TextTable t({"latency", "mean [ms]", "p50 [ms]", "p95 [ms]", "p99 [ms]",
               "max [ms]"});
  const auto row = [&](const std::string& label,
                       const traffic::LatencySummary& s) {
    t.add_row({label, fmt(s.mean.value() * 1e3, 2),
               fmt(s.p50.value() * 1e3, 2), fmt(s.p95.value() * 1e3, 2),
               fmt(s.p99.value() * 1e3, 2), fmt(s.max.value() * 1e3, 2)});
  };
  row("queue wait", r.wait);
  row("service", r.service);
  row("sojourn", r.sojourn);
  std::cout << t;
  std::cout << "  energy " << fmt(r.energy.value(), 1) << " J over "
            << fmt(r.makespan.value(), 2) << " s  ("
            << fmt(r.energy_per_request.value(), 2)
            << " J/request, average power " << fmt(r.average_power.value(), 1)
            << " W)\n";
  if (!r.classes.empty() && r.classes[0].slo.enabled()) {
    const auto& c = r.classes[0];
    std::cout << "  SLO p95 <= " << fmt(slo_ms, 1) << " ms: "
              << c.slo_violations << " violations ("
              << fmt(100.0 * c.violation_fraction(), 1) << "%) — "
              << (c.slo_met() ? "met" : "MISSED") << "\n";
  }
  if (!json_path.empty() &&
      !write_file(json_path, r.to_json().dump_pretty() + "\n"))
    return 2;
  return 0;
}

// ------------------------------------------------------ timeline / diff

/// Streamed traffic run: tumbling-window telemetry computed online
/// during the simulation and exported as a deterministic timeline
/// document (JSON and/or RFC 4180 CSV).
int cmd_timeline(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const bool synthetic = args[0] == "synthetic";
  const workload::Workload w =
      synthetic ? synthetic_workload() : study().workload(args[0]);

  std::string arrivals_name = "poisson";
  std::string policy_name = "join-shortest-queue";
  double util = 0.7;
  double window_s = 0.0;
  std::string json_path, csv_path;
  traffic::TrafficOptions options;
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--arrivals")
      arrivals_name = value;
    else if (key == "--policy")
      policy_name = value;
    else if (key == "--util")
      util = parse_number<double>(key, value);
    else if (key == "--requests")
      options.requests = parse_number<std::uint64_t>(key, value);
    else if (key == "--seed")
      options.seed = parse_number<std::uint64_t>(key, value);
    else if (key == "--shards")
      options.shards = parse_number<std::size_t>(key, value);
    else if (key == "--window")
      window_s = parse_number<double>(key, value);
    else if (key == "--epsilon")
      options.stream.sketch_epsilon = parse_number<double>(key, value);
    else if (key == "--json")
      json_path = value;
    else if (key == "--csv")
      csv_path = value;
    else
      return usage();
  }

  if (!parse_policy(policy_name, options)) return 1;

  std::vector<traffic::TrafficClass> classes{
      traffic::TrafficClass{w, 1.0, traffic::SloTarget{}}};
  const model::ClusterSpec spec = model::make_a9_k10_cluster(4, 2);
  const double capacity = traffic::cluster_capacity_per_s(spec, classes);
  const double rate = util * capacity;

  const auto arrivals = menu_arrivals(arrivals_name, rate);
  if (arrivals == nullptr) return 1;

  // Default width: ~64 windows over the nominal run span, so the table
  // stays readable at any --requests scale.
  if (window_s <= 0.0)
    window_s = static_cast<double>(options.requests) / rate / 64.0;
  options.stream.window = Seconds{window_s};

  const auto r = traffic::simulate_traffic(spec, classes, *arrivals, options);
  const obs::stream::StreamTimeline& tl = r.timeline;

  std::uint64_t total_nodes = 0;
  for (const auto& c : tl.node_classes) total_nodes += c.nodes;
  std::cout << w.name << " over 4xA9 + 2xK10, " << r.arrival_process
            << " arrivals at " << fmt(rate, 1) << " req/s: "
            << tl.windows.size() << " windows of "
            << fmt(tl.window.value(), 3) << " s (sketch epsilon "
            << fmt(tl.sketch_epsilon, 4) << "), total energy "
            << fmt(tl.total_energy.value(), 1) << " J + "
            << fmt(tl.total_wake.value(), 1) << " J wake transients\n";

  TextTable t({"win", "t0 [s]", "arrive", "done", "shed", "util",
               "p95 [ms]", "energy [J]"});
  const std::size_t stride =
      tl.windows.empty() ? 1 : std::max<std::size_t>(1, tl.windows.size() / 12);
  for (std::size_t i = 0; i < tl.windows.size(); i += stride) {
    const auto& win = tl.windows[i];
    double busy = 0.0;
    for (const auto& c : win.classes) busy += c.busy.value();
    const double span =
        std::min(win.t1.value(), tl.horizon.value()) - win.t0.value();
    const double u =
        total_nodes > 0 && span > 0.0
            ? busy / (static_cast<double>(total_nodes) * span)
            : 0.0;
    t.add_row({std::to_string(win.index), fmt(win.t0.value(), 2),
               std::to_string(win.arrivals), std::to_string(win.completions),
               std::to_string(win.shed), fmt(u, 3),
               fmt(win.sojourn_p95.value() * 1e3, 2),
               fmt(win.energy.value(), 1)});
  }
  std::cout << t;

  if (!json_path.empty() &&
      !write_file(json_path, tl.to_json().dump() + "\n"))
    return 2;
  if (!csv_path.empty() && !write_file(csv_path, tl.csv())) return 2;
  return 0;
}

/// Loads a timeline document: either a raw `hcep timeline --json` export
/// or a run report / result bundle with an embedded "stream" section.
obs::stream::StreamTimeline load_timeline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());
  const JsonValue* stream = doc.find("stream");
  return obs::stream::StreamTimeline::from_json(
      stream != nullptr ? *stream : doc);
}

/// Window-by-window comparison of two timeline exports. Exit 0 when the
/// runs agree within tolerance, 1 when any metric is flagged.
int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  obs::stream::DiffTolerances tol;
  std::string json_path;
  for (std::size_t i = 2; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    if (args[i] == "--rel")
      tol.rel = parse_number<double>(args[i], args[i + 1]);
    else if (args[i] == "--abs")
      tol.abs = parse_number<double>(args[i], args[i + 1]);
    else if (args[i] == "--json")
      json_path = args[i + 1];
    else
      return usage();
  }

  const obs::stream::StreamTimeline a = load_timeline(args[0]);
  const obs::stream::StreamTimeline b = load_timeline(args[1]);
  const obs::stream::TimelineDiff d = obs::stream::diff_timelines(a, b, tol);

  if (!json_path.empty() && !write_file(json_path, d.to_json().dump() + "\n"))
    return 2;

  if (d.shape_mismatch)
    std::cout << "shape mismatch: " << d.note << "\n";
  if (d.empty()) {
    std::cout << "identical: " << d.windows_compared
              << " windows agree within tolerance (rel " << fmt(tol.rel, 12)
              << ", abs " << fmt(tol.abs, 15) << ")\n";
    return 0;
  }

  TextTable t({"win", "metric", "a", "b"});
  const std::size_t shown = std::min<std::size_t>(d.entries.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& e = d.entries[i];
    t.add_row({std::to_string(e.window), e.metric, fmt(e.a, 6),
               fmt(e.b, 6)});
  }
  std::cout << t;
  if (shown < d.entries.size())
    std::cout << "  ... " << d.entries.size() - shown << " more\n";
  const auto flagged = d.flagged_windows();
  std::cout << d.entries.size() << " metric deltas across "
            << flagged.size() << " windows (" << d.windows_compared
            << " compared in both runs)\n";
  return 1;
}

// ------------------------------------------------------------- control

/// Closed-loop traffic run vs the open-loop baseline on the same seed and
/// arrival stream: the keystone comparison of docs/CONTROL.md.
int cmd_control(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const bool synthetic = args[0] == "synthetic";
  const workload::Workload w =
      synthetic ? synthetic_workload() : study().workload(args[0]);

  std::string controller_name = "power_gate";
  std::string arrivals_name = "diurnal";
  double util = 0.5;
  double slo_ms = 50.0;
  double cap_w = 1000.0;
  std::string json_path;
  traffic::TrafficOptions options;
  options.requests = 20000;
  for (std::size_t i = 1; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) return usage();
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    if (key == "--controller")
      controller_name = value;
    else if (key == "--arrivals")
      arrivals_name = value;
    else if (key == "--util")
      util = parse_number<double>(key, value);
    else if (key == "--requests")
      options.requests = parse_number<std::uint64_t>(key, value);
    else if (key == "--seed")
      options.seed = parse_number<std::uint64_t>(key, value);
    else if (key == "--shards")
      options.shards = parse_number<std::size_t>(key, value);
    else if (key == "--period")
      options.control.period = Seconds{parse_number<double>(key, value)};
    else if (key == "--cap")
      cap_w = parse_number<double>(key, value);
    else if (key == "--slo-ms")
      slo_ms = parse_number<double>(key, value);
    else if (key == "--json")
      json_path = value;
    else
      return usage();
  }

  std::vector<traffic::TrafficClass> classes{
      traffic::TrafficClass{w, 1.0, traffic::SloTarget{}}};
  if (slo_ms > 0.0)
    classes[0].slo = traffic::SloTarget{Seconds{slo_ms * 1e-3}, 0.95};
  const model::ClusterSpec spec = model::make_a9_k10_cluster(4, 2);
  const double capacity = traffic::cluster_capacity_per_s(spec, classes);
  const double rate = util * capacity;

  std::unique_ptr<traffic::ArrivalProcess> arrivals;
  if (arrivals_name == "poisson")
    arrivals = traffic::make_poisson(rate);
  else if (arrivals_name == "diurnal")
    arrivals = traffic::make_diurnal(rate, 0.6, Seconds{400.0 / rate});
  else if (arrivals_name == "mmpp")
    arrivals = traffic::make_mmpp(
        {{0.4 * rate, Seconds{200.0 / rate}},
         {2.2 * rate, Seconds{100.0 / rate}}});
  else {
    std::cerr << "unknown arrival process " << arrivals_name << "\n";
    return 1;
  }

  if (controller_name == "power_gate" || controller_name == "power-gate")
    options.control.controller = control::make_power_gate({});
  else if (controller_name == "dvfs")
    options.control.controller = control::make_dvfs_governor({});
  else if (controller_name == "power_cap" || controller_name == "power-cap")
    options.control.controller =
        control::make_power_cap({.cap = Watts{cap_w}});
  else if (controller_name == "frozen")
    options.control.controller = control::make_frozen();
  else {
    std::cerr << "unknown controller " << controller_name << "\n";
    return 1;
  }

  traffic::TrafficOptions open = options;
  open.control = control::ControlOptions{};  // open loop
  const auto base = traffic::simulate_traffic(spec, classes, *arrivals, open);
  const auto r = traffic::simulate_traffic(spec, classes, *arrivals, options);

  std::cout << w.name << " over 4xA9 + 2xK10, " << r.arrival_process
            << " arrivals at " << fmt(rate, 1) << " req/s (util "
            << fmt(util * 100.0, 0) << "%), controller "
            << r.control.controller << ":\n";
  TextTable t({"run", "energy [J]", "J/request", "p99 [ms]", "completed",
               "shed"});
  const auto row = [&](const std::string& label,
                       const traffic::TrafficResult& x) {
    t.add_row({label, fmt(x.energy.value(), 1),
               fmt(x.energy_per_request.value(), 3),
               fmt(x.sojourn.p99.value() * 1e3, 2),
               std::to_string(x.completed),
               std::to_string(x.shed_bucket + x.shed_queue)});
  };
  row("open loop", base);
  row("closed loop", r);
  std::cout << t;
  const double saved =
      base.energy.value() > 0.0
          ? 100.0 * (1.0 - r.energy.value() / base.energy.value())
          : 0.0;
  std::cout << "  control: " << r.control.ticks << " ticks ("
            << r.control.event_ticks << " event-triggered), "
            << r.control.sleeps << " sleeps, " << r.control.wakes
            << " wakes, " << r.control.point_changes << " point changes\n"
            << "  gating saved " << fmt(r.control.gating_savings.value(), 1)
            << " J, wake transients cost "
            << fmt(r.control.wake_energy.value(), 1) << " J  ("
            << fmt(saved, 1) << "% total energy vs open loop)\n";
  if (!r.classes.empty() && r.classes[0].slo.enabled()) {
    const auto& c = r.classes[0];
    std::cout << "  SLO p95 <= " << fmt(slo_ms, 1) << " ms: "
              << (c.slo_met() ? "met" : "MISSED") << " ("
              << fmt(100.0 * c.violation_fraction(), 1)
              << "% violations)\n";
  }
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::object();
    doc.set("open_loop", base.to_json());
    doc.set("closed_loop", r.to_json());
    doc.set("control", r.control.to_json());
    if (!write_file(json_path, doc.dump_pretty() + "\n")) return 2;
  }
  return 0;
}

int cmd_governor(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  analysis::GovernorStudyOptions opts;
  if (args.size() > 2) {
    opts.mix = {parse_number<unsigned>("nA9", args[1]),
                parse_number<unsigned>("nK10", args[2])};
  }
  const auto r =
      analysis::run_governor_study(study().workload(args[0]), opts);
  TextTable t({"util", "race [W]", "pace [W]", "saving"});
  for (const auto& pt : r.points)
    t.add_row({fmt(pt.utilization * 100, 0) + "%",
               fmt(pt.race_power.value(), 1), fmt(pt.pace_power.value(), 1),
               fmt(pt.saving_percent, 1) + "%"});
  std::cout << t;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage();
    if (cmd == "report") return cmd_report(args);
    if (cmd == "table") return cmd_table(args);
    if (cmd == "metrics") return cmd_metrics(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "response") return cmd_response(args);
    if (cmd == "sensitivity") return cmd_sensitivity(args);
    if (cmd == "governor") return cmd_governor(args);
    if (cmd == "autoscale") return cmd_autoscale(args);
    if (cmd == "export") return cmd_export(args);
    if (cmd == "traffic") return cmd_traffic(args);
    if (cmd == "control") return cmd_control(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "profile") return cmd_profile(args);
    if (cmd == "timeline") return cmd_timeline(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "fed") return cmd_fed(args);
    if (cmd == "selftest") return cmd_selftest(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
