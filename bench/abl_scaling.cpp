// Ablation — scaling of coordination cost with system size (paper §III-D
// and §IV-D): CDPSM's per-round traffic grows O(|C|·|N|³), LDDM's
// O(|C|·|N|), DONAR's O(|C|·|N|·|M|); "with the increasing system size,
// EDR will eventually outperform DONAR in a large scale cloud system".
// Also measures real wall-clock schedule() time per algorithm, and says of
// each row whether the solve converged or stopped at its round cap (then
// the row times the cap, not a solve) and how far it ended from the exact
// optimum.
#include "bench_util.hpp"

#include <chrono>

#include "baselines/donar.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "core/scheduler.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"

namespace {

using namespace edr;

optim::Problem instance(std::size_t replicas, std::uint64_t seed = 21) {
  Rng rng{seed};
  optim::InstanceOptions opts;
  opts.num_clients = 2 * replicas;
  opts.num_replicas = replicas;
  return optim::make_random_instance(rng, opts);
}

/// The counters and JSON rows every size row shares.
void record_row(benchmark::State& state, const optim::Problem& problem,
                const core::ScheduleResult& result, const char* algorithm) {
  const std::string size = std::to_string(state.range(0));
  const auto exact = optim::solve_exact(problem);
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["bytes_per_round"] =
      result.rounds ? static_cast<double>(result.bytes) / result.rounds : 0.0;
  state.counters["converged"] = result.converged ? 1.0 : 0.0;
  state.counters["gap_pct"] =
      100.0 * optim::relative_gap(problem, result.allocation, exact->cost);
  bench::record_metric("bytes_per_round/" + size,
                       state.counters["bytes_per_round"], "bytes", algorithm);
  bench::record_metric("converged/" + size, state.counters["converged"],
                       "bool", algorithm);
  bench::record_metric("gap_pct/" + size, state.counters["gap_pct"], "%",
                       algorithm);
}

void BM_Scaling_Lddm(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  core::LddmScheduler scheduler;
  core::ScheduleResult result;
  for (auto _ : state) result = scheduler.schedule(problem);
  state.counters["replicas"] = static_cast<double>(state.range(0));
  record_row(state, problem, result, "lddm");
}
BENCHMARK(BM_Scaling_Lddm)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Scaling_Cdpsm(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  // Per-round traffic is what this ablation measures and it is invariant
  // to the round count, so cap the rounds at the largest size — a full
  // dense CDPSM solve at 32 replicas costs minutes of Dykstra sweeps for
  // the exact same bytes_per_round (this is why the 32-replica row used to
  // be missing from BENCH_abl_scaling.json).
  core::CdpsmOptions options;
  if (state.range(0) >= 32) {
    options.max_rounds = 8;
    options.tolerance = 0.0;
  }
  core::CdpsmScheduler scheduler{options};
  core::ScheduleResult result;
  for (auto _ : state) result = scheduler.schedule(problem);
  state.counters["replicas"] = static_cast<double>(state.range(0));
  record_row(state, problem, result, "cdpsm");
}
BENCHMARK(BM_Scaling_Cdpsm)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Scaling_Donar(benchmark::State& state) {
  const auto problem = instance(static_cast<std::size_t>(state.range(0)));
  baselines::DonarOptions options;
  options.num_mapping_nodes =
      static_cast<std::size_t>(state.range(0));  // mapping tier scales too
  baselines::DonarScheduler scheduler{options};
  core::ScheduleResult result;
  for (auto _ : state) result = scheduler.schedule(problem);
  state.counters["mapping_nodes"] = static_cast<double>(state.range(0));
  record_row(state, problem, result, "donar");
}
BENCHMARK(BM_Scaling_Donar)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// ---- client-count sweep (SystemConfig::representation) ----
//
// Fixed-round single-threaded wall clock of both iterative engines on a
// geo-local instance (16 replicas, contiguous 2-replica feasibility
// windows, so 12.5% density and exactly 16 client equivalence classes) at
// 10^3, 10^4 and 10^5 clients, across the three iterate representations.
// Rounds are pinned (tolerance 0) so every timing covers identical work.
// The dense path is capped at 10^4 clients: a dense 10^5 x 16 CDPSM round
// sweeps 200 Dykstra iterations over 1.6M entries per replica and takes
// minutes; that wall cliff is the point of the sparse representations.

double cdpsm_rep_wall_ms(const optim::Problem& problem,
                         core::SolverRepresentation representation,
                         std::size_t rounds) {
  core::CdpsmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.representation = representation;
  core::CdpsmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double lddm_rep_wall_ms(const optim::Problem& problem,
                        core::SolverRepresentation representation,
                        std::size_t rounds) {
  core::LddmOptions options;
  options.max_rounds = rounds;
  options.tolerance = 0.0;
  options.representation = representation;
  core::LddmEngine engine{problem, options};
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void client_sweep() {
  constexpr std::size_t kReplicas = 16;
  constexpr std::size_t kWindow = 2;
  constexpr std::size_t kCdpsmRounds = 4;
  constexpr std::size_t kLddmRounds = 30;
  constexpr std::size_t kDenseMaxClients = 10000;
  const std::size_t sizes[] = {1000, 10000, 100000};
  const core::SolverRepresentation representations[] = {
      core::SolverRepresentation::kDense,
      core::SolverRepresentation::kSparse,
      core::SolverRepresentation::kAggregated,
  };

  std::printf("client-count sweep, %zu replicas, window %zu "
              "(single-threaded, cdpsm %zu / lddm %zu pinned rounds; dense "
              "capped at %zu clients):\n",
              kReplicas, kWindow, kCdpsmRounds, kLddmRounds,
              kDenseMaxClients);
  Table table({"engine", "clients", "dense ms", "sparse ms", "agg ms",
               "sparse speedup"});
  for (const std::size_t clients : sizes) {
    Rng rng{33};
    optim::GeoInstanceOptions geo;
    geo.num_clients = clients;
    geo.num_replicas = kReplicas;
    geo.window = kWindow;
    const auto problem = optim::make_geo_instance(rng, geo);
    const auto sweep = [&](const char* name, auto&& wall_ms,
                           std::size_t rounds) {
      double by_rep[3] = {0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < 3; ++i) {
        const auto rep = representations[i];
        if (rep == core::SolverRepresentation::kDense &&
            clients > kDenseMaxClients)
          continue;
        by_rep[i] = wall_ms(problem, rep, rounds);
        bench::record_metric(
            "solve_wall_ms/clients/" + std::to_string(clients) + "/" +
                std::string(core::to_string(rep)),
            by_rep[i], "ms", name);
      }
      const bool have_dense = clients <= kDenseMaxClients;
      const double speedup =
          have_dense && by_rep[1] > 0.0 ? by_rep[0] / by_rep[1] : 0.0;
      if (have_dense)
        bench::record_metric(
            "sparse_speedup/clients/" + std::to_string(clients), speedup,
            "x", name);
      table.add_row({name, std::to_string(clients),
                     have_dense ? Table::num(by_rep[0], 1) : "-",
                     Table::num(by_rep[1], 1), Table::num(by_rep[2], 1),
                     have_dense ? Table::num(speedup, 2) : "-"});
    };
    sweep("cdpsm", cdpsm_rep_wall_ms, kCdpsmRounds);
    sweep("lddm", lddm_rep_wall_ms, kLddmRounds);
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: scaling",
                     "per-round coordination bytes & wall time vs system "
                     "size (LDDM O(CN) / CDPSM O(CN^3) / DONAR O(CNM))");
  harness.run_benchmarks();
  client_sweep();
  return 0;
}
