#include "core/cdpsm.hpp"

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

TEST(Cdpsm, RejectsInvalidProblem) {
  Matrix latency(1, 1, 5.0);  // above the bound: client unreachable
  std::vector<optim::ReplicaParams> reps(1);
  optim::Problem bad({1.0}, reps, latency, 1.8);
  EXPECT_THROW(CdpsmEngine{bad}, std::invalid_argument);
}

TEST(Cdpsm, RejectsInfeasibleProblem) {
  Matrix latency(1, 1, 0.5);
  std::vector<optim::ReplicaParams> reps(1);
  reps[0].bandwidth = 1.0;
  optim::Problem starved({10.0}, reps, latency, 1.8);
  EXPECT_THROW(CdpsmEngine{starved}, std::runtime_error);
}

TEST(Cdpsm, EverySolutionIsFeasible) {
  const auto problem = small_instance(41);
  CdpsmEngine engine{problem};
  for (int k = 0; k < 50; ++k) {
    engine.round();
    EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5))
        << "round " << k;
  }
}

TEST(Cdpsm, StepReplicaIsPureAndDeterministic) {
  const auto problem = small_instance(42);
  CdpsmEngine engine{problem};
  std::vector<Matrix> peers;
  for (std::size_t n = 0; n < problem.num_replicas(); ++n)
    peers.push_back(engine.estimate(n));
  const Matrix a = engine.step_replica(0, peers);
  const Matrix b = engine.step_replica(0, peers);
  EXPECT_EQ(a, b);
  // Engine state untouched by step_replica.
  EXPECT_EQ(engine.rounds_executed(), 0u);
}

TEST(Cdpsm, ObjectiveTrendsDownward) {
  const auto problem = small_instance(43);
  CdpsmEngine engine{problem};
  const auto trace = engine.run();
  ASSERT_GE(trace.size(), 10u);
  const auto& points = trace.points();
  // Not strictly monotone (consensus wobble), but the tail must be well
  // below the head.
  EXPECT_LT(points.back().objective, points.front().objective);
}

TEST(Cdpsm, CommunicationVolumeMatchesComplexityModel) {
  const auto problem = small_instance(44, 6, 4);
  CdpsmEngine engine{problem};
  // Each replica ships its full 6x4 estimate to 3 peers.
  EXPECT_EQ(engine.bytes_per_replica_round(),
            3u * (8 + 8 * 6 * 4));
  const auto stats = engine.round();
  EXPECT_EQ(stats.bytes_exchanged, 4u * engine.bytes_per_replica_round());
}

TEST(Cdpsm, HonorsExplicitStepSize) {
  const auto problem = small_instance(45);
  CdpsmOptions options;
  options.step = 1e-6;  // absurdly small: should barely move
  CdpsmEngine slow{problem, options};
  const Matrix before = slow.solution();
  slow.round();
  const Matrix after = slow.solution();
  EXPECT_LT(after.distance(before), 1.0);
}

TEST(Cdpsm, SingleReplicaDegenerateCase) {
  Rng rng{46};
  optim::InstanceOptions opts;
  opts.num_clients = 4;
  opts.num_replicas = 1;
  opts.bandwidth = 500.0;
  const auto problem = optim::make_random_instance(rng, opts);
  CdpsmEngine engine{problem};
  engine.run();
  const auto solution = engine.solution();
  EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-6));
  // Only one replica: everything lands on it.
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(solution(c, 0), problem.demand(c), 1e-6);
}

TEST(Cdpsm, DiminishingStepConvergesSlower) {
  // The Nedić-prescribed d/√k schedule trades speed for its convergence
  // guarantee; at a fixed round budget it must sit farther from the optimum
  // than the constant-step default (the Fig 5 comparison).
  const auto problem = small_instance(47);
  CdpsmOptions constant;
  constant.max_rounds = 150;
  constant.patience = 1000;  // force the full budget for a fair snapshot
  CdpsmOptions diminishing = constant;
  diminishing.diminishing_step = true;

  CdpsmEngine a{problem, constant};
  CdpsmEngine b{problem, diminishing};
  for (int k = 0; k < 150; ++k) {
    a.round();
    b.round();
  }
  EXPECT_LT(problem.total_cost(a.solution()),
            problem.total_cost(b.solution()));
  // Both still produce feasible schedules at every point.
  EXPECT_TRUE(optim::check_feasibility(problem, b.solution()).ok(1e-5));
}

class CdpsmConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdpsmConvergence, ReachesCentralizedOptimum) {
  const auto problem = small_instance(GetParam());
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());

  CdpsmEngine engine{problem};
  engine.run();
  EXPECT_TRUE(engine.converged())
      << "no convergence in " << engine.rounds_executed() << " rounds";
  const auto solution = engine.solution();
  EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-5));
  EXPECT_LT(optim::relative_gap(problem, solution, central->cost), 5e-3)
      << "cdpsm=" << problem.total_cost(solution)
      << " central=" << central->cost;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdpsmConvergence,
                         ::testing::Range<std::uint64_t>(500, 510));

}  // namespace
}  // namespace edr::core
