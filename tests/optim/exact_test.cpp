#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"
#include "optim/projection.hpp"

namespace edr::optim {
namespace {

Problem single_client(Megabytes demand, std::vector<ReplicaParams> replicas) {
  Matrix latency(1, replicas.size(), 0.5);
  return Problem({demand}, std::move(replicas), latency, 1.8);
}

Problem with_replicas(const Problem& problem,
                      std::vector<ReplicaParams> replicas) {
  Matrix latency(problem.num_clients(), problem.num_replicas());
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      latency(c, n) = problem.latency(c, n);
  return Problem(problem.demands(), std::move(replicas), std::move(latency),
                 problem.max_latency());
}

Problem random_instance(std::uint64_t seed, std::size_t clients,
                        std::size_t replicas) {
  Rng rng{seed};
  InstanceOptions opts;
  opts.num_clients = clients;
  opts.num_replicas = replicas;
  return make_random_instance(rng, opts);
}

/// Feasible, and certified optimal by the Frank–Wolfe gap to 1e-9 relative.
void expect_certified(const Problem& problem, const ExactResult& result) {
  EXPECT_TRUE(check_feasibility(problem, result.allocation).ok(1e-6));
  EXPECT_LE(optimality_gap(problem, result.allocation), 1e-9 * result.cost);
}

// Single client, two identical replicas: the optimum splits the demand
// evenly (strict convexity of the cubic term forces balance).
TEST(CentralizedSolver, IdenticalReplicasBalanceLoad) {
  std::vector<ReplicaParams> reps(2);
  for (auto& r : reps) {
    r.price = 2.0;
    r.alpha = 1.0;
    r.beta = 0.01;
    r.gamma = 3.0;
    r.bandwidth = 100.0;
  }
  const Problem problem = single_client(40.0, reps);

  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->allocation(0, 0), 20.0, 1e-9);
  EXPECT_NEAR(result->allocation(0, 1), 20.0, 1e-9);
  const double expected = 2.0 * (2.0 * (20.0 + 0.01 * 20.0 * 20.0 * 20.0));
  EXPECT_NEAR(result->cost, expected, 1e-12 * expected);
}

// Two replicas with different prices: optimal split equalizes *marginal*
// costs u_i(α + 3β s_i²) where both loads are positive.  Verify against a
// closed-form bisection on the scalar optimality condition.
TEST(CentralizedSolver, MarginalCostsEqualizeAcrossPrices) {
  const double R = 60.0, u1 = 1.0, u2 = 4.0, alpha = 1.0, beta = 0.01;
  std::vector<ReplicaParams> reps(2);
  reps[0].price = u1;
  reps[1].price = u2;
  for (auto& r : reps) {
    r.alpha = alpha;
    r.beta = beta;
    r.gamma = 3.0;
    r.bandwidth = 1000.0;
  }
  const Problem problem = single_client(R, reps);

  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());

  // Scalar reference: minimize f(s) = u1·e(s) + u2·e(R−s) over s ∈ [0, R].
  auto marginal = [&](double s) {
    return u1 * (alpha + 3 * beta * s * s) -
           u2 * (alpha + 3 * beta * (R - s) * (R - s));
  };
  double lo = 0.0, hi = R;
  // f'(0) = u1·α − u2·(α+3βR²) < 0 and f'(R) > 0 here, so the optimum is
  // interior; bisect the monotone marginal.
  ASSERT_LT(marginal(lo), 0.0);
  ASSERT_GT(marginal(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (marginal(mid) < 0.0 ? lo : hi) = mid;
  }
  const double s_star = 0.5 * (lo + hi);

  EXPECT_NEAR(result->allocation(0, 0), s_star, 1e-9);
  EXPECT_NEAR(result->allocation(0, 1), R - s_star, 1e-9);
  // The expensive replica must get strictly less.
  EXPECT_GT(result->allocation(0, 0), result->allocation(0, 1));
}

TEST(CentralizedSolver, CapacityConstraintRedirectsOverflow) {
  // Cheap replica capped at 10 MB; the remaining 20 MB must go to the
  // expensive one even though its marginal cost is higher.
  std::vector<ReplicaParams> reps(2);
  reps[0].price = 1.0;
  reps[0].bandwidth = 10.0;
  reps[1].price = 10.0;
  reps[1].bandwidth = 100.0;
  for (auto& r : reps) {
    r.alpha = 1.0;
    r.beta = 0.0001;  // nearly linear => cheap one saturates
    r.gamma = 3.0;
  }
  const Problem problem = single_client(30.0, reps);

  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->allocation(0, 0), 10.0, 1e-9);
  EXPECT_NEAR(result->allocation(0, 1), 20.0, 1e-9);
}

TEST(CentralizedSolver, LatencyMaskExcludesFastButCheapReplica) {
  std::vector<Megabytes> demands{10.0, 10.0};
  std::vector<ReplicaParams> reps(2);
  reps[0].price = 10.0;
  reps[1].price = 1.0;
  Matrix latency(2, 2, 0.5);
  latency(0, 1) = 3.0;  // client 0 cannot reach the cheap replica
  Problem problem(demands, reps, latency, 1.8);

  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->allocation(0, 1), 0.0);
  EXPECT_NEAR(result->allocation(0, 0), 10.0, 1e-9);
  // Client 1 should still prefer the cheap replica.
  EXPECT_GT(result->allocation(1, 1), result->allocation(1, 0));
  expect_certified(problem, *result);
}

TEST(CentralizedSolver, InfeasibleInstanceReturnsNullopt) {
  std::vector<ReplicaParams> reps(1);
  reps[0].bandwidth = 10.0;
  EXPECT_FALSE(solve_exact(single_client(100.0, reps)).has_value());

  // Enough total capacity, but the latency mask strands client 0's demand
  // on a replica too small for it.
  std::vector<ReplicaParams> two(2);
  two[0].bandwidth = 5.0;
  two[1].bandwidth = 100.0;
  Matrix latency(2, 2, 0.5);
  latency(0, 1) = 3.0;
  EXPECT_FALSE(
      solve_exact(Problem({10.0, 10.0}, two, latency, 1.8)).has_value());
}

class CentralizedPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CentralizedPropertyTest, ConvergesToKktPointOnRandomInstances) {
  // The Frank–Wolfe gap is zero exactly at a KKT point.
  const Problem problem = random_instance(GetParam(), 10, 6);
  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  expect_certified(problem, *result);
}

TEST_P(CentralizedPropertyTest, NoFeasiblePointBeatsTheSolver) {
  Rng rng{GetParam() + 5000};
  InstanceOptions opts;
  opts.num_clients = 6;
  opts.num_replicas = 4;
  const Problem problem = make_random_instance(rng, opts);

  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());

  // Random feasible competitors (Dykstra projections of random matrices)
  // must all cost at least as much.
  for (int trial = 0; trial < 10; ++trial) {
    Matrix candidate(6, 4);
    for (auto& v : candidate.flat()) v = rng.uniform(0.0, 30.0);
    project_feasible(problem, candidate);
    if (!check_feasibility(problem, candidate).ok(1e-5)) continue;
    EXPECT_GE(problem.total_cost(candidate), result->cost - 1e-5)
        << "random feasible point beat the solver on trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentralizedPropertyTest,
                         ::testing::Range<std::uint64_t>(300, 310));

class OptimalityGapCrossCheck
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalityGapCrossCheck, BoundsTheExcessOverTheExactOptimum) {
  // Two methods that share only the max-flow must agree: for any feasible
  // point, the Frank–Wolfe gap bounds its excess over the exact optimum
  // from above, and closes to zero at the optimum.
  Rng rng{GetParam()};
  const Problem problem = random_instance(GetParam(), 10, 6);
  const auto exact = solve_exact(problem);
  ASSERT_TRUE(exact.has_value());
  expect_certified(problem, *exact);

  Matrix random(10, 6);
  for (auto& v : random.flat()) v = rng.uniform(0.0, 30.0);
  project_feasible(problem, random);
  for (const Matrix& point : {*initial_feasible_point(problem), random}) {
    ASSERT_TRUE(check_feasibility(problem, point).ok(1e-6));
    const double excess = problem.total_cost(point) - exact->cost;
    EXPECT_GE(excess, -1e-9 * exact->cost);
    EXPECT_GE(optimality_gap(problem, point), excess - 1e-6 * exact->cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityGapCrossCheck,
                         ::testing::Range<std::uint64_t>(700, 708));

TEST(ExactSolver, LinearCostsFillCheapestReplicasFirst) {
  // γ = 1: every marginal cost is constant, so the optimum is Edmonds'
  // greedy — the cheapest replica fills to capacity first.
  std::vector<ReplicaParams> reps(3);
  const double prices[] = {3.0, 1.0, 2.0};
  for (std::size_t n = 0; n < 3; ++n) {
    reps[n].price = prices[n];
    reps[n].gamma = 1.0;
    reps[n].bandwidth = 20.0;
  }
  const Problem problem = single_client(30.0, reps);
  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->loads[1], 20.0, 1e-9);
  EXPECT_NEAR(result->loads[2], 10.0, 1e-9);
  EXPECT_EQ(result->loads[0], 0.0);
  expect_certified(problem, *result);
}

TEST(ExactSolver, EqualPriceLinearReplicasFillInIndexOrder) {
  std::vector<ReplicaParams> reps(3);
  for (auto& r : reps) {
    r.beta = 0.0;
    r.bandwidth = 30.0;
  }
  const Problem problem = single_client(50.0, reps);
  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->loads[0], 30.0, 1e-9);
  EXPECT_NEAR(result->loads[1], 20.0, 1e-9);
  EXPECT_EQ(result->loads[2], 0.0);
  expect_certified(problem, *result);
}

TEST(ExactSolver, CertifiedOnLinearAndMixedDegreeInstances) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const Problem base = random_instance(seed, 12, 6);
    std::vector<ReplicaParams> linear = base.replicas();
    std::vector<ReplicaParams> mixed = base.replicas();
    for (std::size_t n = 0; n < mixed.size(); ++n) {
      linear[n].gamma = 1.0;
      mixed[n].gamma = 1.0 + static_cast<double>(n % 4);
    }
    mixed[1].beta = 0.0;
    for (const Problem& problem :
         {with_replicas(base, linear), with_replicas(base, mixed)}) {
      const auto result = solve_exact(problem);
      ASSERT_TRUE(result.has_value()) << "seed " << seed;
      expect_certified(problem, *result);
    }
  }
}

TEST(ExactSolver, GeoInstanceSplitsAndIsCertified) {
  Rng rng{5};
  GeoInstanceOptions geo;
  geo.num_clients = 200;
  geo.num_replicas = 16;
  geo.window = 3;
  const Problem problem = make_geo_instance(rng, geo);
  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  // More than one max-flow: the first water-fill was not routable, so the
  // split path ran.
  EXPECT_GE(result->max_flows, 2u);
  expect_certified(problem, *result);
}

TEST(ExactSolver, RepeatedCallsAreBitIdentical) {
  Rng rng{5};
  GeoInstanceOptions geo;
  geo.num_clients = 200;
  const Problem problem = make_geo_instance(rng, geo);
  const auto first = solve_exact(problem);
  const auto second = solve_exact(problem);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  const auto a = first->allocation.flat();
  const auto b = second->allocation.flat();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  EXPECT_EQ(first->max_flows, second->max_flows);
}

TEST(ExactSolver, LoadsAndCostDescribeTheAllocation) {
  const Problem problem = random_instance(9, 16, 8);
  const auto result = solve_exact(problem);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->loads, result->allocation.col_sums());
  EXPECT_EQ(result->cost, problem.total_cost(result->allocation));
}

}  // namespace
}  // namespace edr::optim
