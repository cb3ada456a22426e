#include "core/admm.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"

namespace edr::core {
namespace {

optim::Problem small_instance(std::uint64_t seed, std::size_t clients = 10,
                              std::size_t replicas = 5) {
  Rng rng{seed};
  optim::InstanceOptions opts;
  opts.num_clients = clients;
  opts.num_replicas = replicas;
  return optim::make_random_instance(rng, opts);
}

TEST(Admm, RejectsBadOptions) {
  const auto problem = small_instance(81);
  AdmmOptions options;
  options.rho = 0.0;
  EXPECT_THROW((AdmmEngine{problem, options}), std::invalid_argument);
  options = {};
  options.adapt_factor = 1.0;
  EXPECT_THROW((AdmmEngine{problem, options}), std::invalid_argument);
  options = {};
  options.adapt_threshold = 0.5;
  EXPECT_THROW((AdmmEngine{problem, options}), std::invalid_argument);
}

TEST(Admm, SolutionAlwaysFeasible) {
  const auto problem = small_instance(82);
  AdmmEngine engine{problem};
  for (int k = 0; k < 40; ++k) {
    engine.round();
    EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5));
  }
}

TEST(Admm, DualResidualStopsTheRun) {
  // Convergence is residual-based: after the engine reports convergence,
  // both residuals of the final round must sit below the stopping band, and
  // running with patience=1 must stop no later than with a longer patience.
  const auto problem = small_instance(83);
  AdmmOptions options;
  options.tolerance = 1e-4;
  AdmmEngine engine{problem, options};
  const auto trace = engine.run();
  ASSERT_TRUE(engine.converged());
  ASSERT_FALSE(trace.empty());

  double total_demand = 0.0;
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    total_demand += problem.demand(c);
  const double band = options.tolerance * std::max(total_demand, 1.0);

  AdmmEngine replay{problem, options};
  AdmmRoundStats last;
  for (std::size_t k = 0; k < engine.rounds_executed(); ++k)
    last = replay.round();
  EXPECT_LE(last.primal_residual, band);
  EXPECT_LE(last.dual_residual, band);

  AdmmOptions eager = options;
  eager.patience = 1;
  AdmmEngine impatient{problem, eager};
  impatient.run();
  ASSERT_TRUE(impatient.converged());
  EXPECT_LE(impatient.rounds_executed(), engine.rounds_executed());
}

TEST(Admm, RhoAdaptationBalancesResiduals) {
  // With adaptation off, ρ never moves; with it on, ρ reacts exactly when
  // one residual outweighs the other by adapt_threshold — and the adapted
  // run may converge in no more rounds than the frozen one on an instance
  // whose scales are skewed.
  const auto problem = small_instance(84);
  AdmmOptions frozen;
  frozen.adapt_rho = false;
  frozen.rho = 20.0;  // deliberately too aggressive
  AdmmEngine fixed{problem, frozen};
  for (int k = 0; k < 30; ++k) fixed.round();
  EXPECT_DOUBLE_EQ(fixed.rho(), 20.0);

  AdmmOptions adaptive = frozen;
  adaptive.adapt_rho = true;
  AdmmEngine adapted{problem, adaptive};
  bool rho_moved = false;
  for (int k = 0; k < 30; ++k) {
    const auto stats = adapted.round();
    rho_moved = rho_moved || stats.rho != frozen.rho;
    // Residual balancing only ever multiplies/divides by adapt_factor.
    const double log_ratio = std::log(stats.rho / frozen.rho) /
                             std::log(adaptive.adapt_factor);
    EXPECT_NEAR(log_ratio, std::round(log_ratio), 1e-9);
  }
  EXPECT_TRUE(rho_moved) << "over-penalized start never triggered balancing";
}

TEST(Admm, CommunicationVolumeMatchesComplexityModel) {
  // LDDM-class traffic: one 12-byte share per feasible (client, replica)
  // pair each way, no replica<->replica exchange.
  const auto problem = small_instance(85, 6, 4);
  AdmmEngine engine{problem};
  EXPECT_EQ(engine.bytes_per_replica_round(), 6u * 12u);
  EXPECT_EQ(engine.bytes_per_client_round(), 4u * 12u);
  const auto stats = engine.round();
  EXPECT_EQ(stats.bytes_exchanged, 2u * 6u * 4u * 12u);
}

TEST(Admm, WarmStartReducesRounds) {
  const auto problem = small_instance(86);
  AdmmEngine cold{problem};
  cold.run();
  ASSERT_TRUE(cold.converged());

  AdmmEngine warm{problem};
  warm.set_state(cold.consensus(), cold.duals());
  warm.run();
  EXPECT_TRUE(warm.converged());
  EXPECT_LT(warm.rounds_executed(), cold.rounds_executed());
}

TEST(Admm, SetStateRejectedAfterFirstRound) {
  const auto problem = small_instance(87);
  AdmmEngine engine{problem};
  const Matrix z = engine.consensus();
  const Matrix u = engine.duals();
  engine.round();
  EXPECT_THROW(engine.set_state(z, u), std::logic_error);
}

TEST(Admm, SetStateRejectedOnCompactRepresentations) {
  const auto problem = small_instance(88);
  AdmmOptions options;
  options.representation = SolverRepresentation::kSparse;
  AdmmEngine engine{problem, options};
  Matrix zero(problem.num_clients(), problem.num_replicas(), 0.0);
  EXPECT_THROW(engine.set_state(zero, zero), std::logic_error);
}

TEST(Admm, RepresentationsAgreeOnTheSolution) {
  const auto problem = small_instance(89, 12, 4);
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());
  for (const auto representation :
       {SolverRepresentation::kDense, SolverRepresentation::kSparse,
        SolverRepresentation::kAggregated}) {
    AdmmOptions options;
    options.representation = representation;
    AdmmEngine engine{problem, options};
    engine.run();
    EXPECT_TRUE(engine.converged());
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-5));
    EXPECT_LT(optim::relative_gap(problem, solution, central->cost), 5e-3)
        << to_string(representation);
  }
}

class AdmmConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmmConvergence, ReachesCentralizedOptimum) {
  const auto problem = small_instance(GetParam());
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());

  AdmmEngine engine{problem};
  engine.run();
  EXPECT_TRUE(engine.converged())
      << "no convergence in " << engine.rounds_executed() << " rounds";
  const auto solution = engine.solution();
  EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-5));
  EXPECT_LT(optim::relative_gap(problem, solution, central->cost), 5e-3)
      << "admm=" << problem.total_cost(solution)
      << " central=" << central->cost;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmmConvergence,
                         ::testing::Range<std::uint64_t>(700, 710));

}  // namespace
}  // namespace edr::core
