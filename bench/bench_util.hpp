// Shared helpers for the figure-regeneration benchmarks.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiments.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::bench {

/// Print a banner tying the binary to its paper figure.
inline void banner(const char* figure, const char* description) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("EDR reproduction (CLUSTER 2013); shapes comparable, absolute\n");
  std::printf("numbers depend on the simulated substrate (see EXPERIMENTS.md).\n");
  std::printf("==================================================================\n\n");
}

/// Telemetry context shared by a bench binary's experiments; null until a
/// Harness sees --telemetry-out (so the default path stays bit-identical to
/// a build without telemetry at all).
inline std::shared_ptr<telemetry::Telemetry>& shared_telemetry() {
  static std::shared_ptr<telemetry::Telemetry> instance;
  return instance;
}

/// One machine-readable result row for the --json-out emission.
struct JsonMetric {
  std::string name;       ///< e.g. "iters_to_1pct" or "bytes_per_round/8"
  double value = 0.0;
  std::string unit;       ///< "rounds", "bytes", "KiB", ... ("" = unitless)
  std::string algorithm;  ///< registry key the row belongs to ("" = n/a)
};

/// Rows accumulated by record_metric; the Harness destructor writes them
/// out when --json-out was requested (recording is always cheap, so bench
/// bodies don't need to branch on the flag).
inline std::vector<JsonMetric>& json_metrics() {
  static std::vector<JsonMetric> rows;
  return rows;
}

/// Record one row; last write wins per (name, algorithm) so google-
/// benchmark's warmup/repetition re-runs of a bench body don't duplicate
/// rows in the emitted file.
inline void record_metric(std::string name, double value,
                          std::string unit = {}, std::string algorithm = {}) {
  for (auto& row : json_metrics()) {
    if (row.name == name && row.algorithm == algorithm) {
      row.value = value;
      row.unit = std::move(unit);
      return;
    }
  }
  json_metrics().push_back({std::move(name), value, std::move(unit),
                            std::move(algorithm)});
}

/// Per-binary boilerplate, hoisted: prints the banner, strips
/// --telemetry-out=<path> and --json-out[=<path>] from argv
/// (google-benchmark rejects flags it does not know), hands the rest to
/// benchmark::Initialize, and on destruction exports the telemetry and the
/// recorded JSON metrics (when requested) and shuts benchmark down.
/// --json-out without a path writes BENCH_<binary-name>.json in the working
/// directory, so CI can archive one artifact per bench.
///
/// Usage:
///   int main(int argc, char** argv) {
///     edr::bench::Harness harness(argc, argv, "Fig N", "what it shows");
///     harness.run_benchmarks();
///     ... print tables ...
///     return 0;
///   }
class Harness {
 public:
  Harness(int& argc, char** argv, const char* figure,
          const char* description)
      : bench_name_(figure), started_(std::chrono::steady_clock::now()) {
    banner(figure, description);
    constexpr std::string_view kTelemetryFlag = "--telemetry-out=";
    constexpr std::string_view kJsonFlag = "--json-out";
    constexpr std::string_view kTransportFlag = "--transport=";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg{argv[i]};
      bool strip = false;
      if (arg.substr(0, kTransportFlag.size()) == kTransportFlag ||
          arg == "--transport") {
        // The figure benches exist to regenerate the paper's numbers on
        // the deterministic simulator; the live transports run through
        // edr_sim --transport inproc|tcp, edr_live, or chaos_suite.
        std::string_view value;
        int consumed = 1;
        if (arg == "--transport") {
          if (i + 1 < argc) {
            value = argv[i + 1];
            consumed = 2;
          }
        } else {
          value = arg.substr(kTransportFlag.size());
        }
        if (value != "sim") {
          std::fprintf(stderr,
                       "%s: the figure benches run on the deterministic "
                       "simulator only (--transport=sim); for the live "
                       "runtime use edr_sim --transport inproc|tcp, "
                       "edr_live, or bench/chaos_suite\n",
                       argv[0]);
          std::exit(2);
        }
        for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
        argc -= consumed;
        --i;
        continue;
      }
      if (arg.substr(0, kTelemetryFlag.size()) == kTelemetryFlag) {
        telemetry_path_ = std::string(arg.substr(kTelemetryFlag.size()));
        strip = true;
      } else if (arg == kJsonFlag) {
        json_path_ = default_json_path(argv[0]);
        strip = true;
      } else if (arg.substr(0, kJsonFlag.size() + 1) ==
                 std::string(kJsonFlag) + "=") {
        json_path_ = std::string(arg.substr(kJsonFlag.size() + 1));
        strip = true;
      }
      if (!strip) continue;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
    json_metrics().clear();
    if (!telemetry_path_.empty())
      shared_telemetry() = telemetry::make_telemetry();
    benchmark::Initialize(&argc, argv);
  }

  ~Harness() {
    if (const auto& telemetry = shared_telemetry();
        telemetry != nullptr &&
        telemetry::export_telemetry(*telemetry, telemetry_path_)) {
      std::fprintf(stderr,
                   "telemetry written to %s (load in chrome://tracing) and "
                   "%s.metrics.jsonl\n",
                   telemetry_path_.c_str(), telemetry_path_.c_str());
    }
    shared_telemetry().reset();
    if (!json_path_.empty()) write_json();
    benchmark::Shutdown();
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void run_benchmarks() { benchmark::RunSpecifiedBenchmarks(); }

  [[nodiscard]] bool telemetry_enabled() const {
    return !telemetry_path_.empty();
  }
  [[nodiscard]] bool json_enabled() const { return !json_path_.empty(); }

 private:
  static std::string default_json_path(const char* argv0) {
    std::string_view name{argv0 != nullptr ? argv0 : "bench"};
    if (const auto slash = name.find_last_of('/');
        slash != std::string_view::npos)
      name.remove_prefix(slash + 1);
    return "BENCH_" + std::string(name) + ".json";
  }

  void write_json() const {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    JsonWriter json;
    json.begin_object()
        .field("bench", bench_name_)
        .field("wall_seconds", wall);
    json.key("metrics").begin_array();
    for (const auto& metric : json_metrics()) {
      json.begin_object()
          .field("name", metric.name)
          .field("value", metric.value)
          .field("unit", metric.unit)
          .field("algorithm", metric.algorithm)
          .end_object();
    }
    json.end_array().end_object();
    std::ofstream out(json_path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", json_path_.c_str());
      return;
    }
    out << json.str() << "\n";
    std::fprintf(stderr, "bench metrics written to %s\n", json_path_.c_str());
  }

  std::string bench_name_;
  std::string telemetry_path_;
  std::string json_path_;
  std::chrono::steady_clock::time_point started_;
};

/// Run a power-profile experiment (Figs 3-4) and print the per-replica
/// summary that characterizes the paper's traces.
inline core::RunReport run_power_profile(const std::string& algorithm,
                                         SimTime horizon) {
  auto cfg = analysis::paper_config(algorithm);
  cfg.record_traces = true;
  cfg.telemetry = shared_telemetry();
  core::EdrSystem system(
      cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                 horizon));
  return system.run();
}

inline void print_power_table(const core::RunReport& report) {
  Table table({"replica", "min W", "mean W", "max W", "energy J",
               "active J", "assigned MB"});
  for (std::size_t n = 0; n < report.replicas.size(); ++n) {
    const auto& rep = report.replicas[n];
    table.add_row({"replica" + std::to_string(n + 1),
                   Table::num(rep.trace.min_watts(), 1),
                   Table::num(rep.trace.mean_watts(), 1),
                   Table::num(rep.trace.max_watts(), 1),
                   Table::num(rep.energy, 0), Table::num(rep.active_energy, 0),
                   Table::num(rep.assigned_mb, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace edr::bench
