// Ablation — step-size sensitivity (paper §III-D: "the step size we choose
// in the algorithm can affect the convergence speed or even determine if
// the algorithm can converge successfully"; both methods use constant
// steps).  Sweeps CDPSM's gradient step around the safe 1/L and LDDM's dual
// step around its auto ρ/|N| and reports rounds + final gap.
#include "bench_util.hpp"

#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"

namespace {

using namespace edr;

optim::Problem instance() {
  Rng rng{12};
  optim::InstanceOptions opts;
  opts.num_clients = 12;
  opts.num_replicas = 6;
  return optim::make_random_instance(rng, opts);
}

void BM_Abl_CdpsmStep(benchmark::State& state) {
  const auto problem = instance();
  const auto central = optim::solve_exact(problem);
  const double lipschitz = problem.gradient_lipschitz_bound();
  const double factor = static_cast<double>(state.range(0)) / 10.0;
  core::CdpsmOptions options;
  options.step = factor / lipschitz;
  std::size_t rounds = 0;
  double gap = 0.0;
  for (auto _ : state) {
    core::CdpsmEngine engine{problem, options};
    engine.run();
    rounds = engine.rounds_executed();
    gap = (problem.total_cost(engine.solution()) - central->cost) /
          central->cost;
  }
  state.counters["step_over_1_div_L"] = factor;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["final_gap_pct"] = gap * 100.0;
}
BENCHMARK(BM_Abl_CdpsmStep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)    // 0.1/L: slow
    ->Arg(10)   // 1/L: the auto choice
    ->Arg(20)   // 2/L: borderline
    ->Arg(50)   // 5/L: past the safe region
    ->Iterations(1);

void BM_Abl_LddmMuStep(benchmark::State& state) {
  const auto problem = instance();
  const auto central = optim::solve_exact(problem);
  const double factor = static_cast<double>(state.range(0)) / 10.0;
  core::LddmOptions options;
  options.mu_step =
      factor * options.rho / static_cast<double>(problem.num_replicas());
  std::size_t rounds = 0;
  double gap = 0.0;
  for (auto _ : state) {
    core::LddmEngine engine{problem, options};
    engine.run();
    rounds = engine.rounds_executed();
    gap = (problem.total_cost(engine.solution()) - central->cost) /
          central->cost;
  }
  state.counters["step_over_auto"] = factor;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["final_gap_pct"] = gap * 100.0;
}
BENCHMARK(BM_Abl_LddmMuStep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2)
    ->Arg(10)
    ->Arg(30)
    ->Arg(100)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  edr::bench::Harness harness(argc, argv,
                             "Ablation: step size",
                     "constant-step sensitivity of CDPSM (gradient step) "
                     "and LDDM (dual step)");
  harness.run_benchmarks();
  return 0;
}
