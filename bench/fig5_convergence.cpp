// Fig 5 — convergence-rate comparison of CDPSM vs LDDM on a 3-replica
// instance (the paper's MatLab simulation, reimplemented natively).
//
// Three series are printed:
//   * CDPSM (diminishing step d/√k) — the Nedić-Ozdaglar-Parrilo schedule
//     whose convergence theory the paper's method rests on; this is the
//     variant the paper's plot shows converging slower than LDDM,
//   * CDPSM (constant step 1/L) — this repository's stronger default,
//     which benefits from exact complete-graph consensus every round,
//   * LDDM (runtime constant step) — cold-started (μ = 0) so both methods
//     begin equally far from the optimum,
//   * ADMM (scaled consensus form, residual-balanced ρ) — the exact local
//     energy model in the x-update plus a full demand projection every
//     round reaches the 1%% band in a handful of rounds at LDDM-class
//     per-round traffic.
// The table reports objective gap vs iteration; counters also give the gap
// per *kilobyte exchanged*, where LDDM dominates regardless of stepping
// (its rounds cost O(|C|·|N|) vs CDPSM's O(|C|·|N|³)).
#include "bench_util.hpp"

#include "core/admm.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"

namespace {

using namespace edr;

optim::Problem fig5_instance() {
  Rng rng{5};
  optim::InstanceOptions opts;
  opts.num_clients = 9;
  opts.num_replicas = 3;  // the paper simulates three replicas
  return optim::make_random_instance(rng, opts);
}

struct Fig5Data {
  optim::ConvergenceTrace cdpsm_constant;
  optim::ConvergenceTrace cdpsm_diminishing;
  optim::ConvergenceTrace lddm;
  optim::ConvergenceTrace admm;
  double optimum = 0.0;
};
Fig5Data g_data;

core::LddmOptions lddm_options() {
  core::LddmOptions options;
  options.initial_mu = 0.0;
  options.mu_step_factor = 3.0;  // the runtime's constant step
  return options;
}

void BM_Fig5_CdpsmConstant(benchmark::State& state) {
  const auto problem = fig5_instance();
  core::CdpsmOptions options;
  for (auto _ : state) {
    core::CdpsmEngine engine{problem, options};
    g_data.cdpsm_constant = engine.run();
  }
  const auto central = optim::solve_exact(problem);
  g_data.optimum = central->cost;
  state.counters["iters_to_1pct"] = static_cast<double>(
      g_data.cdpsm_constant.iterations_to_reach(g_data.optimum, 0.01));
}
BENCHMARK(BM_Fig5_CdpsmConstant)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig5_CdpsmDiminishing(benchmark::State& state) {
  const auto problem = fig5_instance();
  core::CdpsmOptions options;
  options.diminishing_step = true;
  for (auto _ : state) {
    core::CdpsmEngine engine{problem, options};
    g_data.cdpsm_diminishing = engine.run();
  }
  state.counters["iters_to_1pct"] = static_cast<double>(
      g_data.cdpsm_diminishing.iterations_to_reach(g_data.optimum, 0.01));
}
BENCHMARK(BM_Fig5_CdpsmDiminishing)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Fig5_Lddm(benchmark::State& state) {
  const auto problem = fig5_instance();
  for (auto _ : state) {
    core::LddmEngine engine{problem, lddm_options()};
    g_data.lddm = engine.run();
  }
  state.counters["iters_to_1pct"] = static_cast<double>(
      g_data.lddm.iterations_to_reach(g_data.optimum, 0.01));
}
BENCHMARK(BM_Fig5_Lddm)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig5_Admm(benchmark::State& state) {
  const auto problem = fig5_instance();
  core::AdmmOptions options;
  for (auto _ : state) {
    core::AdmmEngine engine{problem, options};
    g_data.admm = engine.run();
  }
  state.counters["iters_to_1pct"] = static_cast<double>(
      g_data.admm.iterations_to_reach(g_data.optimum, 0.01));
}
BENCHMARK(BM_Fig5_Admm)->Unit(benchmark::kMillisecond)->Iterations(1);

std::string gap_cell(const optim::ConvergenceTrace& trace, std::size_t i,
                     double optimum) {
  if (i >= trace.size()) return "(converged)";
  const double gap =
      (trace.points()[i].objective - optimum) / optimum * 100.0;
  return Table::num(gap, 4) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Fig 5",
                     "convergence of CDPSM vs LDDM, 3 replicas (objective "
                     "gap vs iteration)");
  harness.run_benchmarks();

  Table table({"iteration", "CDPSM dimin.", "CDPSM const.", "LDDM", "ADMM"});
  const std::size_t rows =
      std::max({g_data.cdpsm_constant.size(), g_data.cdpsm_diminishing.size(),
                g_data.lddm.size(), g_data.admm.size()});
  for (std::size_t i = 0; i < rows; i += std::max<std::size_t>(rows / 20, 1))
    table.add_row({std::to_string(i + 1),
                   gap_cell(g_data.cdpsm_diminishing, i, g_data.optimum),
                   gap_cell(g_data.cdpsm_constant, i, g_data.optimum),
                   gap_cell(g_data.lddm, i, g_data.optimum),
                   gap_cell(g_data.admm, i, g_data.optimum)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("optimum (centralized): %.4f cents/model-unit\n",
              g_data.optimum);
  auto report = [&](const char* name, const char* key,
                    const optim::ConvergenceTrace& trace) {
    const auto iters = trace.iterations_to_reach(g_data.optimum, 0.01);
    const double kb =
        trace.empty() || iters == static_cast<std::size_t>(-1)
            ? -1.0
            : trace.points()[std::min(std::max<std::size_t>(iters, 1),
                                      trace.size()) -
                             1]
                      .communication /
                  1024.0;
    std::printf("  %-22s iterations to 1%%: %6zd   traffic to 1%%: %8.1f KiB\n",
                name, static_cast<ssize_t>(iters), kb);
    edr::bench::record_metric("iters_to_1pct",
                              static_cast<double>(static_cast<ssize_t>(iters)),
                              "rounds", key);
    edr::bench::record_metric("traffic_to_1pct", kb, "KiB", key);
  };
  report("CDPSM (diminishing)", "cdpsm_diminishing", g_data.cdpsm_diminishing);
  report("CDPSM (constant)", "cdpsm", g_data.cdpsm_constant);
  report("LDDM", "lddm", g_data.lddm);
  report("ADMM", "admm", g_data.admm);
  edr::bench::record_metric("optimum", g_data.optimum, "cents", "central");

  if (harness.telemetry_enabled()) {
    // A short end-to-end run so the exported trace also carries the runtime
    // spans (epoch / solver.round / file_transfer), not just the standalone
    // engine rounds benchmarked above.
    const auto profile =
        edr::bench::run_power_profile("lddm", 10.0);
    std::printf("\ntelemetry profile run: %zu epochs, %zu rounds, "
                "%llu control messages\n",
                profile.epochs, profile.total_rounds,
                static_cast<unsigned long long>(profile.control_messages));
  }
  return 0;
}
