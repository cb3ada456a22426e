#include "optim/problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "optim/instance.hpp"

namespace edr::optim {
namespace {

Problem tiny_problem() {
  // 2 clients, 2 replicas; client 1 may only use replica 0.
  std::vector<Megabytes> demands{10.0, 5.0};
  std::vector<ReplicaParams> replicas(2);
  replicas[0].price = 2.0;
  replicas[1].price = 5.0;
  replicas[0].bandwidth = 100.0;
  replicas[1].bandwidth = 100.0;
  Matrix latency(2, 2);
  latency(0, 0) = 0.5;
  latency(0, 1) = 0.5;
  latency(1, 0) = 0.5;
  latency(1, 1) = 3.0;  // masked (above T)
  return Problem(demands, replicas, latency, 1.8);
}

TEST(ReplicaEnergy, LinearPlusPolynomial) {
  ReplicaParams p;
  p.alpha = 1.0;
  p.beta = 0.01;
  p.gamma = 3.0;
  EXPECT_DOUBLE_EQ(replica_energy(p, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(replica_energy(p, 10.0), 10.0 + 0.01 * 1000.0);
  p.price = 4.0;
  EXPECT_DOUBLE_EQ(replica_cost(p, 10.0), 4.0 * 20.0);
}

TEST(ReplicaEnergy, NegativeLoadTreatedAsZero) {
  ReplicaParams p;
  EXPECT_DOUBLE_EQ(replica_energy(p, -3.0), 0.0);
}

TEST(ReplicaEnergy, DerivativeMatchesFiniteDifference) {
  ReplicaParams p;
  p.alpha = 2.0;
  p.beta = 0.05;
  p.gamma = 3.0;
  p.price = 7.0;
  const double s = 12.0, h = 1e-6;
  const double fd = (replica_cost(p, s + h) - replica_cost(p, s - h)) / (2 * h);
  EXPECT_NEAR(replica_cost_derivative(p, s), fd, 1e-4);
}

TEST(ReplicaEnergy, GammaOneIsPureLinear) {
  ReplicaParams p;
  p.alpha = 1.0;
  p.beta = 0.5;
  p.gamma = 1.0;
  EXPECT_DOUBLE_EQ(replica_energy(p, 10.0), 15.0);
  EXPECT_DOUBLE_EQ(replica_energy_derivative(p, 10.0), 1.5);
}

TEST(Problem, FeasibilityMaskFollowsLatencyBound) {
  const Problem problem = tiny_problem();
  EXPECT_TRUE(problem.feasible_pair(0, 0));
  EXPECT_TRUE(problem.feasible_pair(0, 1));
  EXPECT_TRUE(problem.feasible_pair(1, 0));
  EXPECT_FALSE(problem.feasible_pair(1, 1));
  EXPECT_EQ(problem.feasible_count(0), 2u);
  EXPECT_EQ(problem.feasible_count(1), 1u);
}

TEST(Problem, TotalDemand) {
  EXPECT_DOUBLE_EQ(tiny_problem().total_demand(), 15.0);
}

TEST(Problem, CostSumsPerReplicaCosts) {
  const Problem problem = tiny_problem();
  Matrix alloc(2, 2);
  alloc(0, 0) = 4.0;
  alloc(0, 1) = 6.0;
  alloc(1, 0) = 5.0;
  const double s0 = 9.0, s1 = 6.0;
  const double expected = replica_cost(problem.replica(0), s0) +
                          replica_cost(problem.replica(1), s1);
  EXPECT_DOUBLE_EQ(problem.total_cost(alloc), expected);
  const double expected_energy = replica_energy(problem.replica(0), s0) +
                                 replica_energy(problem.replica(1), s1);
  EXPECT_DOUBLE_EQ(problem.total_energy(alloc), expected_energy);
}

TEST(Problem, GradientMatchesFiniteDifference) {
  Rng rng{77};
  InstanceOptions opts;
  opts.num_clients = 3;
  opts.num_replicas = 3;
  const Problem problem = make_random_instance(rng, opts);

  Matrix alloc(3, 3);
  for (auto& v : alloc.flat()) v = rng.uniform(0.0, 20.0);

  Matrix grad;
  problem.cost_gradient(alloc, grad);

  const double h = 1e-6;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t n = 0; n < 3; ++n) {
      Matrix up = alloc, down = alloc;
      up(c, n) += h;
      down(c, n) -= h;
      const double fd =
          (problem.total_cost(up) - problem.total_cost(down)) / (2 * h);
      EXPECT_NEAR(grad(c, n), fd, 1e-3)
          << "gradient mismatch at (" << c << "," << n << ")";
    }
  }
}

TEST(Problem, LipschitzBoundDominatesSampledCurvature) {
  Rng rng{78};
  InstanceOptions opts;
  opts.num_clients = 4;
  opts.num_replicas = 3;
  const Problem problem = make_random_instance(rng, opts);
  const double lipschitz = problem.gradient_lipschitz_bound();

  // Sample gradient differences along random feasible directions.
  for (int trial = 0; trial < 20; ++trial) {
    Matrix a(4, 3), b(4, 3);
    for (std::size_t n = 0; n < 3; ++n) {
      const double cap = problem.replica(n).bandwidth;
      for (std::size_t c = 0; c < 4; ++c) {
        a(c, n) = rng.uniform(0.0, cap / 4.0);
        b(c, n) = rng.uniform(0.0, cap / 4.0);
      }
    }
    Matrix ga, gb;
    problem.cost_gradient(a, ga);
    problem.cost_gradient(b, gb);
    ga.axpy(-1.0, gb);
    const double dist = a.distance(b);
    if (dist > 1e-9)
      EXPECT_LE(ga.frobenius_norm() / dist, lipschitz * (1.0 + 1e-6));
  }
}

TEST(Problem, ValidateCatchesBadInstances) {
  EXPECT_EQ(tiny_problem().validate(), "");

  // Negative demand.
  {
    Matrix latency(1, 1, 0.5);
    std::vector<ReplicaParams> reps(1);
    Problem bad({-1.0}, reps, latency, 1.8);
    EXPECT_NE(bad.validate(), "");
  }
  // Client with no feasible replica.
  {
    Matrix latency(1, 1, 5.0);
    std::vector<ReplicaParams> reps(1);
    Problem bad({1.0}, reps, latency, 1.8);
    EXPECT_NE(bad.validate(), "");
  }
  // Non-convex gamma.
  {
    Matrix latency(1, 1, 0.5);
    std::vector<ReplicaParams> reps(1);
    reps[0].gamma = 0.5;
    Problem bad({1.0}, reps, latency, 1.8);
    EXPECT_NE(bad.validate(), "");
  }
  // Zero bandwidth.
  {
    Matrix latency(1, 1, 0.5);
    std::vector<ReplicaParams> reps(1);
    reps[0].bandwidth = 0.0;
    Problem bad({1.0}, reps, latency, 1.8);
    EXPECT_NE(bad.validate(), "");
  }
}

TEST(Problem, ConstructorRejectsShapeMismatch) {
  Matrix latency(2, 3);
  std::vector<ReplicaParams> reps(2);  // says 2 replicas but matrix has 3
  EXPECT_THROW(Problem({1.0, 2.0}, reps, latency, 1.8),
               std::invalid_argument);
}

TEST(FeasibilityReport, DetectsEachViolationKind) {
  const Problem problem = tiny_problem();

  Matrix good(2, 2);
  good(0, 0) = 5.0;
  good(0, 1) = 5.0;
  good(1, 0) = 5.0;
  EXPECT_TRUE(check_feasibility(problem, good).ok());

  Matrix bad_demand = good;
  bad_demand(0, 0) = 1.0;
  EXPECT_GT(check_feasibility(problem, bad_demand).max_demand_violation, 1.0);

  Matrix bad_mask = good;
  bad_mask(1, 1) = 2.0;
  bad_mask(1, 0) = 3.0;
  EXPECT_GT(check_feasibility(problem, bad_mask).max_mask_violation, 1.0);

  Matrix negative = good;
  negative(0, 0) = -2.0;
  negative(0, 1) = 12.0;
  EXPECT_GT(check_feasibility(problem, negative).max_negative, 1.0);
}

TEST(FeasibilityReport, DetectsCapacityViolation) {
  std::vector<Megabytes> demands{50.0};
  std::vector<ReplicaParams> reps(1);
  reps[0].bandwidth = 10.0;
  Matrix latency(1, 1, 0.5);
  Problem problem(demands, reps, latency, 1.8);
  Matrix alloc(1, 1, 50.0);
  EXPECT_NEAR(check_feasibility(problem, alloc).max_capacity_violation, 40.0,
              1e-12);
}


// The dense report is one row-major pass; it must match the separate
// passes it replaced (copied below) bit for bit, non-finite entries and
// signed zeros included.
FeasibilityReport separate_pass_report(const Problem& problem,
                                       const Matrix& allocation) {
  FeasibilityReport report;
  for (const double v : allocation.flat())
    if (!std::isfinite(v)) report.has_non_finite = true;
  std::vector<double> loads;
  allocation.col_sums(loads);
  for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
    const double excess = loads[n] - problem.replica(n).bandwidth;
    report.max_capacity_violation =
        std::max(report.max_capacity_violation, excess);
  }
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const double gap = std::abs(allocation.row_sum(c) - problem.demand(c));
    report.max_demand_violation = std::max(report.max_demand_violation, gap);
    for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
      report.max_negative =
          std::max(report.max_negative, -allocation(c, n));
      if (!problem.feasible_pair(c, n))
        report.max_mask_violation =
            std::max(report.max_mask_violation, std::abs(allocation(c, n)));
    }
  }
  report.max_capacity_violation = std::max(report.max_capacity_violation, 0.0);
  return report;
}

TEST(FeasibilityReport, SinglePassMatchesSeparatePassesBitwise) {
  Rng rng{8128};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int trial = 0; trial < 500; ++trial) {
    InstanceOptions opts;
    opts.num_clients = 1 + static_cast<std::size_t>(rng.uniform_int(0, 20));
    opts.num_replicas = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const Problem problem = make_random_instance(rng, opts);
    Matrix alloc(opts.num_clients, opts.num_replicas);
    for (double& v : alloc.flat()) {
      const double u = rng.uniform(0.0, 1.0);
      v = u < 0.05   ? -0.0
          : u < 0.07 ? std::numeric_limits<double>::quiet_NaN()
          : u < 0.08 ? -std::numeric_limits<double>::infinity()
                     : rng.uniform(-2.0, 40.0);
    }
    const FeasibilityReport got = check_feasibility(problem, alloc);
    const FeasibilityReport want = separate_pass_report(problem, alloc);
    EXPECT_EQ(got.has_non_finite, want.has_non_finite) << trial;
    EXPECT_EQ(bits(got.max_capacity_violation),
              bits(want.max_capacity_violation)) << trial;
    EXPECT_EQ(bits(got.max_demand_violation), bits(want.max_demand_violation))
        << trial;
    EXPECT_EQ(bits(got.max_negative), bits(want.max_negative)) << trial;
    EXPECT_EQ(bits(got.max_mask_violation), bits(want.max_mask_violation))
        << trial;
  }
}

}  // namespace
}  // namespace edr::optim
