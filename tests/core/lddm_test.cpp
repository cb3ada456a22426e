#include "core/lddm.hpp"

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

TEST(Lddm, RejectsBadOptions) {
  const auto problem = small_instance(61);
  LddmOptions options;
  options.rho = 0.0;
  EXPECT_THROW((LddmEngine{problem, options}), std::invalid_argument);
}

TEST(Lddm, RejectsInfeasibleOnlyAtSolve) {
  // LDDM never routes more than capacity per replica, but an instance whose
  // total capacity cannot carry the demand still yields a feasible-repaired
  // partial solution; the engine itself does not throw.  The system layer
  // handles admission control.  Validate that the repaired solution caps out.
  Matrix latency(1, 1, 0.5);
  std::vector<optim::ReplicaParams> reps(1);
  reps[0].bandwidth = 5.0;
  optim::Problem starved({10.0}, reps, latency, 1.8);
  // Demand repair is impossible here; project_feasible cannot satisfy both
  // sets.  The engine is only contracted for feasible instances, so this is
  // exercised through validate-before-use in callers:
  EXPECT_EQ(starved.validate(), "");  // structurally fine...
  EXPECT_FALSE(optim::initial_feasible_point(starved).has_value());  // ...but infeasible
}

TEST(Lddm, MultiplierUpdateFollowsDualGradient) {
  const auto problem = small_instance(62);
  LddmEngine engine{problem};
  const double mu_before = engine.multipliers()[0];
  // Serving more than demanded must push mu up (discourage serving).
  const double mu_after =
      engine.update_multiplier(0, problem.demand(0) + 10.0);
  EXPECT_GT(mu_after, mu_before);
  // Under-serving pushes it down.
  const double mu_third = engine.update_multiplier(0, 0.0);
  EXPECT_LT(mu_third, mu_after);
}

TEST(Lddm, SetMultipliersValidation) {
  const auto problem = small_instance(63);
  LddmEngine engine{problem};
  std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(engine.set_multipliers(wrong_size), std::invalid_argument);
  std::vector<double> right(problem.num_clients(), -2.0);
  engine.set_multipliers(right);
  EXPECT_DOUBLE_EQ(engine.multipliers()[0], -2.0);
  engine.round();
  EXPECT_THROW(engine.set_multipliers(right), std::logic_error);
}

TEST(Lddm, ColumnsRespectCapacityAndMask) {
  const auto problem = small_instance(64);
  LddmEngine engine{problem};
  for (int k = 0; k < 30; ++k) {
    engine.round();
    for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
      const auto& column = engine.column(n);
      double load = 0.0;
      for (std::size_t c = 0; c < problem.num_clients(); ++c) {
        EXPECT_GE(column[c], 0.0);
        if (!problem.feasible_pair(c, n)) EXPECT_DOUBLE_EQ(column[c], 0.0);
        load += column[c];
      }
      EXPECT_LE(load, problem.replica(n).bandwidth + 1e-6);
    }
  }
}

TEST(Lddm, SolutionAlwaysFeasible) {
  const auto problem = small_instance(65);
  LddmEngine engine{problem};
  for (int k = 0; k < 40; ++k) {
    engine.round();
    EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5));
  }
}

TEST(Lddm, CommunicationVolumeMatchesComplexityModel) {
  const auto problem = small_instance(66, 6, 4);
  LddmEngine engine{problem};
  EXPECT_EQ(engine.bytes_per_replica_round(), 6u * 12u);
  EXPECT_EQ(engine.bytes_per_client_round(), 4u * 12u);
  const auto stats = engine.round();
  EXPECT_EQ(stats.bytes_exchanged, 4u * 72u + 6u * 48u);
}

TEST(Lddm, LowerPerRoundTrafficThanCdpsm) {
  // The O(|C|·|N|) vs O(|C|·|N|³) comparison from §III-D, in bytes.
  const auto problem = small_instance(67, 16, 8);
  LddmEngine lddm{problem};
  const std::size_t lddm_round_bytes =
      8 * lddm.bytes_per_replica_round() + 16 * lddm.bytes_per_client_round();
  // CDPSM: 8 replicas x 7 peers x matrix(16x8).
  const std::size_t cdpsm_round_bytes = 8 * 7 * (8 + 8 * 16 * 8);
  EXPECT_LT(lddm_round_bytes * 10, cdpsm_round_bytes);
}

TEST(Lddm, WarmStartReducesRounds) {
  const auto problem = small_instance(68);
  LddmEngine cold{problem};
  cold.run();
  ASSERT_TRUE(cold.converged());

  // Warm-start duals AND primal columns (the system carries both across
  // epochs; dual-only warm starts do not shorten the averaged recovery).
  LddmEngine warm{problem};
  warm.set_multipliers(cold.multipliers());
  for (std::size_t n = 0; n < problem.num_replicas(); ++n)
    warm.set_column_state(n, cold.column(n));
  warm.run();
  EXPECT_TRUE(warm.converged());
  EXPECT_LT(warm.rounds_executed(), cold.rounds_executed());
}

TEST(Lddm, InitialMuOverridesAutoHeuristic) {
  const auto problem = small_instance(69);
  LddmOptions neutral;
  neutral.initial_mu = 0.0;
  LddmEngine cold{problem, neutral};
  for (const double mu : cold.multipliers()) EXPECT_DOUBLE_EQ(mu, 0.0);

  LddmEngine smart{problem};  // auto heuristic: strictly negative start
  for (const double mu : smart.multipliers()) EXPECT_LT(mu, 0.0);
}

TEST(Lddm, MuStepFactorAcceleratesEarlyProgress) {
  const auto problem = small_instance(70);
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());

  auto gap_after = [&](double factor, int rounds) {
    LddmOptions options;
    options.initial_mu = 0.0;
    options.mu_step_factor = factor;
    options.patience = 1000;  // fixed budget
    LddmEngine engine{problem, options};
    for (int k = 0; k < rounds; ++k) engine.round();
    return optim::relative_gap(problem, engine.solution(), central->cost);
  };
  EXPECT_LT(gap_after(3.0, 60), gap_after(1.0, 60));
}

class LddmConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LddmConvergence, ReachesCentralizedOptimum) {
  const auto problem = small_instance(GetParam());
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());

  LddmEngine engine{problem};
  engine.run();
  EXPECT_TRUE(engine.converged())
      << "no convergence in " << engine.rounds_executed() << " rounds";
  const auto solution = engine.solution();
  EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-5));
  EXPECT_LT(optim::relative_gap(problem, solution, central->cost), 5e-3)
      << "lddm=" << problem.total_cost(solution)
      << " central=" << central->cost;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LddmConvergence,
                         ::testing::Range<std::uint64_t>(600, 610));

}  // namespace
}  // namespace edr::core
