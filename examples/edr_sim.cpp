// edr_sim — the command-line front end to the whole system.
//
// Runs a configurable end-to-end simulation and prints a human-readable
// summary (or machine-readable JSON with --json), e.g.:
//
//   ./examples/edr_sim --algorithm lddm --app dfs --horizon 60 --seed 7
//   ./examples/edr_sim --algorithm cdpsm --app video --replicas 4 --json
//   ./examples/edr_sim --algorithm lddm --fail-replica 0 --fail-at 20 \
//                      --recover-at 40
//   ./examples/edr_sim --trace my_trace.csv --algorithm rr
//   ./examples/edr_sim --scenario replica-churn --watch
//   ./examples/edr_sim --scenario my_world.json --algorithm cdpsm
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "analysis/experiments.hpp"
#include "analysis/report_json.hpp"
#include "baselines/donar_algorithm.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "core/algorithm_registry.hpp"
#include "core/representation.hpp"
#include "optim/instance.hpp"
#include "runtime/live_report.hpp"
#include "runtime/local_cluster.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

using namespace edr;

namespace {

// --scenario mode: load, run, score, and report one dynamic-world
// scenario.  Returns the process exit code (0 = scenario PASSed).
int run_scenario(const std::string& name_or_path,
                 const std::string& algorithm_override, bool watch,
                 double slo_ms, bool traces, bool json) {
  auto scenario = scenario::load(name_or_path);
  if (slo_ms > 0.0) scenario.scoring.response_slo_ms = slo_ms;

  scenario::RunOptions options;
  options.algorithm = algorithm_override;
  options.record_traces = traces;
  if (watch) {
    options.on_epoch = [](const telemetry::EpochSummary& epoch) {
      std::fprintf(stderr,
                   "[watch] epoch %zu: %zu rounds, %zu replicas, "
                   "objective %.6g -> %.6g, %zu alerts\n",
                   epoch.epoch, epoch.rounds, epoch.replicas,
                   epoch.first_objective, epoch.final_objective,
                   epoch.alerts);
    };
    options.on_alert = [](const telemetry::Alert& alert) {
      std::fprintf(stderr, "[watch] %s %s: %s\n",
                   telemetry::to_string(alert.severity),
                   telemetry::to_string(alert.kind), alert.message.c_str());
    };
  }
  const auto result = scenario::run(scenario, options);

  if (json) {
    JsonWriter out;
    out.begin_object();
    out.field("scenario", result.name);
    out.field("algorithm", result.algorithm);
    out.field("passed", result.passed());
    out.field("alerts_total", result.alerts_total);
    out.field("alerts_cleared", result.alerts_cleared);
    out.field("end_converged", result.end_converged);
    out.field("total_cost_cents", result.report.total_cost);
    out.field("megabytes_served", result.report.megabytes_served);
    out.field("epochs", result.report.epochs);
    out.field("total_rounds", result.report.total_rounds);
    out.field("mean_response_ms", result.report.mean_response_ms());
    out.key("events").begin_array();
    for (const auto& v : result.events) {
      out.begin_object();
      out.field("label", v.mark.label);
      out.field("at", v.mark.at);
      out.field("reconverged", v.reconverged);
      out.field("epochs_waited", v.epochs_waited);
      out.field("rounds", v.rounds);
      out.field("expect_alert", v.mark.expect_alert);
      out.field("alert_fired", v.alert_fired);
      out.field("ok", v.ok());
      out.end_object();
    }
    out.end_array();
    out.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("%s", result.verdict_text().c_str());
  }
  return result.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string algorithm;
  std::string app_name = "dfs";
  std::string trace_path;
  double horizon = 60.0;
  std::uint64_t replicas = 8;
  std::uint64_t clients = 8;
  std::uint64_t seed = 7;
  std::uint64_t trace_seed = 42;
  double fail_at = -1.0, recover_at = -1.0;
  std::int64_t fail_replica = -1;
  bool json = false;
  bool traces = false;
  bool watch = false;
  double slo_ms = 0.0;
  std::string telemetry_out;
  std::string transport = "sim";
  std::string representation = "dense";
  std::string simd = "scalar";
  std::string scenario_name;
  bool list_algorithms = false;
  bool list_scenarios = false;

  ArgParser parser{"edr_sim", "run the EDR system end to end"};
  parser.add_option("algorithm",
                    "scheduler registry key, default lddm (see "
                    "--list-algorithms; with --scenario, overrides the "
                    "scenario's own algorithm)",
                    &algorithm);
  parser.add_flag("list-algorithms",
                  "print the registered schedulers and exit", &list_algorithms);
  parser.add_option("scenario",
                    "run a dynamic-world scenario: a builtin name (see "
                    "--list-scenarios) or a JSON file; the scenario owns the "
                    "world (horizon, demand, events) and only --algorithm, "
                    "--watch, --slo-ms, --power-traces and --json compose "
                    "with it; exits 0 iff the scenario PASSes",
                    &scenario_name);
  parser.add_flag("list-scenarios",
                  "print the builtin scenarios and exit", &list_scenarios);
  parser.add_option("representation",
                    "solver iterate storage: dense (golden path) | sparse "
                    "(latency-feasible pairs only) | aggregated (sparse + "
                    "client equivalence classes)",
                    &representation);
  parser.add_option("simd",
                    "solver kernel dispatch: scalar (byte-pinned golden "
                    "path, default) | auto (widest ISA this CPU supports)",
                    &simd);
  parser.add_option("transport",
                    "execution substrate: sim (deterministic simulator, "
                    "default) | inproc (live runtime over the threaded "
                    "transport) | tcp (live runtime over localhost sockets)",
                    &transport);
  parser.add_option("app", "workload: dfs|video (ignored with --trace)",
                    &app_name);
  parser.add_option("trace", "replay a CSV trace instead of generating one",
                    &trace_path);
  parser.add_option("horizon",
                    "generated-trace length in seconds (live transports run "
                    "one 1 s epoch per second of horizon)",
                    &horizon);
  parser.add_option("replicas", "number of replicas (paper prices repeat)",
                    &replicas);
  parser.add_option("clients", "number of clients", &clients);
  parser.add_option("seed", "system seed (latencies etc.)", &seed);
  parser.add_option("trace-seed", "workload seed", &trace_seed);
  parser.add_option("fail-replica", "replica to crash (-1 = none)",
                    &fail_replica);
  parser.add_option("fail-at", "crash time in seconds", &fail_at);
  parser.add_option("recover-at", "recovery time in seconds (-1 = never)",
                    &recover_at);
  parser.add_flag("json", "emit the run report as JSON", &json);
  parser.add_flag("power-traces", "record 50 Hz power traces", &traces);
  parser.add_flag("watch",
                  "live convergence watch: per-epoch summary and anomaly "
                  "alerts on stderr (enables the flight recorder + monitor)",
                  &watch);
  parser.add_option("slo-ms",
                    "alert when a client response exceeds this many "
                    "milliseconds (0 = off; implies --watch detectors)",
                    &slo_ms);
  parser.add_option("telemetry-out",
                    "write a chrome://tracing trace here (metrics land next "
                    "to it as <path>.metrics.jsonl)",
                    &telemetry_out);
  if (!parser.parse(argc, argv, std::cerr))
    return parser.help_requested() ? 0 : 2;

  // With --scenario an empty --algorithm means "keep the scenario's
  // algorithm"; everywhere else it means the default scheduler.
  const std::string algorithm_override = algorithm;
  if (algorithm.empty()) algorithm = "lddm";

  baselines::register_donar_algorithm();
  auto& registry = core::AlgorithmRegistry::instance();
  if (list_algorithms) {
    for (const auto& key : registry.keys())
      std::printf("%-8s %s\n", key.c_str(),
                  registry.description(key).c_str());
    return 0;
  }
  if (list_scenarios) {
    for (const auto& name : scenario::builtin_names())
      std::printf("%-14s %s\n", name.c_str(),
                  scenario::builtin(name).description.c_str());
    return 0;
  }
  if (!registry.contains(algorithm)) {
    std::cerr << "edr_sim: unknown --algorithm '" << algorithm
              << "' (choices:";
    for (const auto& key : registry.keys()) std::cerr << " " << key;
    std::cerr << "; run --list-algorithms for descriptions)\n";
    return 2;
  }
  common::simd::Mode simd_mode = common::simd::Mode::kScalar;
  try {
    simd_mode = common::simd::parse_mode(simd);
  } catch (const std::invalid_argument&) {
    std::cerr << "edr_sim: unknown --simd '" << simd
              << "' (choices: scalar, auto)\n";
    return 2;
  }
  if (transport != "sim" && transport != "inproc" && transport != "tcp") {
    std::cerr << "edr_sim: unknown --transport '" << transport
              << "' (choices: sim, inproc, tcp)\n";
    return 2;
  }
  const auto parsed_storage = core::parse_representation(representation);
  if (!parsed_storage) {
    std::cerr << "edr_sim: unknown --representation '" << representation
              << "' (choices: dense, sparse, aggregated)\n";
    return 2;
  }
  const core::SolverRepresentation storage = *parsed_storage;
  // A clients x replicas allocation must be addressable before anything
  // downstream multiplies the two; reject absurd --clients loudly instead
  // of wrapping std::size_t somewhere deep in the matrix layer.
  if (replicas != 0 && clients > SIZE_MAX / replicas) {
    std::cerr << "edr_sim: --clients " << clients << " x --replicas "
              << replicas << " overflows the allocation size (max "
              << SIZE_MAX / replicas << " clients for this replica count)\n";
    return 2;
  }
  if (!scenario_name.empty()) {
    if (transport != "sim") {
      std::cerr << "edr_sim: --scenario runs on the deterministic "
                   "simulator only (--transport sim)\n";
      return 2;
    }
    if (!trace_path.empty()) {
      std::cerr << "edr_sim: --scenario synthesizes its own demand trace; "
                   "--trace does not compose with it\n";
      return 2;
    }
    try {
      return run_scenario(scenario_name, algorithm_override, watch, slo_ms,
                          traces, json);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "edr_sim: %s\n", error.what());
      return 2;
    }
  }
  if (transport != "sim") {
    // The live runtime is a different execution substrate; simulator-only
    // flags are rejected loudly instead of silently ignored.
    const char* clash = nullptr;
    if (fail_replica >= 0 || fail_at >= 0.0 || recover_at >= 0.0)
      clash = "--fail-replica/--fail-at/--recover-at (live faults are "
              "injected by edr_live --kill-epoch or bench/chaos_suite)";
    else if (traces)
      clash = "--power-traces (power metering is sim-only)";
    else if (!trace_path.empty())
      clash = "--trace (the live runtime ships its own deterministic "
              "workload to every replica)";
    else if (watch)
      clash = "--watch (the live monitor reports through the run result; "
              "--slo-ms still works)";
    if (clash != nullptr) {
      std::cerr << "edr_sim: --transport " << transport
                << " does not support " << clash << "\n";
      return 2;
    }
    try {
      const auto epochs =
          horizon < 1.0 ? 1u : static_cast<std::uint32_t>(horizon);
      auto config =
          runtime::make_default_live_config(replicas, clients, epochs, seed);
      config.algorithm = algorithm;
      config.representation = storage;
      config.simd = simd_mode;
      runtime::LocalClusterOptions options;
      options.transport = transport == "tcp" ? runtime::LiveTransport::kTcp
                                             : runtime::LiveTransport::kInproc;
      options.coordinator.monitor.response_slo_ms = slo_ms;
      // Live telemetry export: trace every node and write the merged
      // cross-process Chrome trace (plus the coordinator's metrics dumps)
      // where sim mode would write its single-process export.
      options.observer.tracing = !telemetry_out.empty();
      runtime::LocalCluster cluster{config, options};
      const auto result = cluster.run();
      if (!telemetry_out.empty()) {
        bool wrote = true;
        const auto write_file = [&](const std::string& path,
                                    const std::string& content) {
          std::ofstream out{path, std::ios::binary};
          out << content;
          out.flush();
          if (!out) {
            std::fprintf(stderr, "edr_sim: cannot write %s\n", path.c_str());
            wrote = false;
          }
        };
        write_file(telemetry_out, cluster.merged_trace_json());
        if (auto* observer = cluster.coordinator_observer()) {
          const auto& metrics = observer->telemetry().metrics();
          write_file(telemetry_out + ".metrics.jsonl",
                     telemetry::metrics_to_jsonl(metrics));
          write_file(telemetry_out + ".prom",
                     telemetry::metrics_to_prometheus(metrics));
        }
        if (wrote && !json)
          std::fprintf(stderr, "edr_sim: merged live trace -> %s\n",
                       telemetry_out.c_str());
      }
      bool agree = true;
      for (const auto& epoch : result.epochs) agree &= epoch.digests_agree;
      if (json) {
        std::printf("%s\n", runtime::live_run_to_json(result).c_str());
      } else {
        std::printf("%s over %s: %zu/%u epochs, %llu generation(s)\n",
                    algorithm.c_str(), transport.c_str(),
                    result.epochs.size(), epochs,
                    static_cast<unsigned long long>(result.generations));
        std::printf("%s", runtime::live_run_to_table(result).c_str());
      }
      return result.completed && agree ? 0 : 1;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "edr_sim: %s\n", error.what());
      return 1;
    }
  }

  try {
    auto cfg = analysis::paper_config(algorithm, seed);
    if (replicas != 8) {
      const auto base = optim::paper_replica_set();
      cfg.replicas.clear();
      for (std::uint64_t n = 0; n < replicas; ++n)
        cfg.replicas.push_back(base[n % base.size()]);
    }
    cfg.num_clients = clients;
    cfg.record_traces = traces;
    cfg.representation = storage;
    cfg.simd = simd_mode;
    if (slo_ms > 0.0) watch = true;
    if (!telemetry_out.empty() || watch)
      cfg.telemetry = telemetry::make_telemetry();
    if (watch) {
      cfg.telemetry->enable_flight_recorder();
      telemetry::MonitorOptions monitor_options;
      monitor_options.response_slo_ms = slo_ms;
      cfg.telemetry->enable_monitor(monitor_options);
      auto& monitor = *cfg.telemetry->monitor();
      monitor.set_epoch_callback([](const telemetry::EpochSummary& epoch) {
        std::fprintf(stderr,
                     "[watch] epoch %zu: %zu rounds, %zu replicas, "
                     "objective %.6g -> %.6g, disagreement %.3g, "
                     "min slack %.3g, %zu alerts\n",
                     epoch.epoch, epoch.rounds, epoch.replicas,
                     epoch.first_objective, epoch.final_objective,
                     epoch.final_disagreement, epoch.min_capacity_slack,
                     epoch.alerts);
      });
      monitor.set_alert_callback([](const telemetry::Alert& alert) {
        std::fprintf(stderr, "[watch] %s %s: %s\n",
                     telemetry::to_string(alert.severity),
                     telemetry::to_string(alert.kind),
                     alert.message.c_str());
      });
    }

    workload::Trace trace;
    if (!trace_path.empty()) {
      std::ifstream in(trace_path);
      if (!in) throw std::runtime_error("cannot open trace " + trace_path);
      trace = workload::Trace::load_csv(in);
    } else {
      const auto app = app_name == "video"
                           ? workload::video_streaming()
                           : workload::distributed_file_service();
      Rng rng{trace_seed};
      workload::TraceOptions topts;
      topts.num_clients = clients;
      topts.horizon = horizon;
      trace = workload::Trace::generate(rng, app, topts);
    }

    core::EdrSystem system(cfg, std::move(trace));
    if (fail_replica >= 0 && fail_at >= 0.0) {
      system.inject_failure(static_cast<std::size_t>(fail_replica), fail_at);
      if (recover_at > fail_at)
        system.inject_recovery(static_cast<std::size_t>(fail_replica),
                               recover_at);
    }
    const auto report = system.run();
    if (cfg.telemetry && !telemetry_out.empty() &&
        telemetry::export_telemetry(*cfg.telemetry, telemetry_out)) {
      std::fprintf(stderr,
                   "edr_sim: telemetry written to %s (load in "
                   "chrome://tracing) and %s.metrics.jsonl\n",
                   telemetry_out.c_str(), telemetry_out.c_str());
    }

    if (watch && cfg.telemetry && cfg.telemetry->monitor()) {
      const auto& monitor = *cfg.telemetry->monitor();
      std::fprintf(
          stderr,
          "[watch] run complete: %zu alerts (divergence %zu, oscillation "
          "%zu, stall %zu, capacity %zu, slo %zu)\n",
          monitor.total_raised(),
          monitor.alerts_of(telemetry::AlertKind::kDivergence),
          monitor.alerts_of(telemetry::AlertKind::kOscillation),
          monitor.alerts_of(telemetry::AlertKind::kStall),
          monitor.alerts_of(telemetry::AlertKind::kCapacity),
          monitor.alerts_of(telemetry::AlertKind::kSlo));
    }

    if (json) {
      std::printf("%s\n", analysis::report_to_json(report, algorithm).c_str());
      return 0;
    }

    std::printf("%s on %zu replicas, %zu clients\n", algorithm.c_str(),
                report.replicas.size(), static_cast<std::size_t>(clients));
    Table table({"metric", "value"});
    table.add_row({"requests served", std::to_string(report.requests_served)});
    table.add_row({"requests dropped",
                   std::to_string(report.requests_dropped)});
    table.add_row({"megabytes served", Table::num(report.megabytes_served, 0)});
    table.add_row({"epochs / rounds", std::to_string(report.epochs) + " / " +
                                          std::to_string(report.total_rounds)});
    table.add_row({"active cost (mcents)",
                   Table::num(report.total_active_cost * 1e3, 3)});
    table.add_row({"active energy (J)",
                   Table::num(report.total_active_energy, 0)});
    table.add_row({"total cost (cents)", Table::num(report.total_cost, 4)});
    table.add_row({"mean response (ms)",
                   Table::num(report.mean_response_ms(), 1)});
    table.add_row({"p99 response (ms)",
                   Table::num(report.p99_response_ms(), 1)});
    table.add_row({"control traffic (MB)",
                   Table::num(static_cast<double>(report.control_bytes) / 1e6,
                              2)});
    std::printf("%s", table.to_string().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "edr_sim: %s\n", error.what());
    return 1;
  }
}
