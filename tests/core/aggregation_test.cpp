#include "core/aggregation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"

namespace edr::core {
namespace {

optim::Problem geo_problem(std::size_t clients, std::uint64_t seed = 11) {
  Rng rng{seed};
  optim::GeoInstanceOptions options;
  options.num_clients = clients;
  options.num_replicas = 6;
  options.window = 2;
  return optim::make_geo_instance(rng, options);
}

TEST(ClientAggregation, GroupsIdenticalFeasibleSets) {
  const auto problem = geo_problem(200);
  const auto agg = build_client_aggregation(problem);
  ASSERT_EQ(agg.class_of.size(), problem.num_clients());
  // A 2-wide window on a 6-replica ring has exactly 6 start positions.
  EXPECT_LE(agg.num_classes(), 6u);
  EXPECT_GE(agg.num_classes(), 2u);

  // Every member of a class has exactly the representative's feasible set.
  const auto& pattern = *problem.sparsity();
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const auto rep_cols = pattern.row_cols(agg.representative[agg.class_of[c]]);
    const auto cols = pattern.row_cols(c);
    ASSERT_EQ(cols.size(), rep_cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_EQ(cols[i], rep_cols[i]);
  }

  // Class demands partition the total; shares sum to 1 within each class.
  std::vector<double> share_sum(agg.num_classes(), 0.0);
  double demand_sum = 0.0;
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    share_sum[agg.class_of[c]] += agg.share[c];
  for (const double d : agg.class_demand) demand_sum += d;
  EXPECT_NEAR(demand_sum, problem.total_demand(), 1e-9 * demand_sum);
  for (const double s : share_sum) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(ClientAggregation, ClassIdsAreFirstAppearanceOrdered) {
  const auto problem = geo_problem(64, 3);
  const auto agg = build_client_aggregation(problem);
  std::uint32_t next = 0;
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    ASSERT_LE(agg.class_of[c], next);
    if (agg.class_of[c] == next) {
      EXPECT_EQ(agg.representative[next], static_cast<std::uint32_t>(c));
      ++next;
    }
  }
  EXPECT_EQ(next, agg.num_classes());
}

TEST(ClientAggregation, AggregatedProblemPreservesStructure) {
  const auto problem = geo_problem(150);
  const auto agg = build_client_aggregation(problem);
  const auto aggregated = aggregate_problem(problem, agg);
  EXPECT_EQ(aggregated.num_clients(), agg.num_classes());
  EXPECT_EQ(aggregated.num_replicas(), problem.num_replicas());
  EXPECT_NEAR(aggregated.total_demand(), problem.total_demand(),
              1e-9 * problem.total_demand());
  for (std::size_t k = 0; k < agg.num_classes(); ++k) {
    EXPECT_DOUBLE_EQ(aggregated.demand(k), agg.class_demand[k]);
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      EXPECT_EQ(aggregated.feasible_pair(k, n),
                problem.feasible_pair(agg.representative[k], n));
  }
}

TEST(ClientAggregation, ExpandPreservesSumsAndFeasibility) {
  const auto problem = geo_problem(150);
  const auto agg = build_client_aggregation(problem);
  const auto aggregated = aggregate_problem(problem, agg);

  // Solve the aggregated instance centrally and fan the result back out.
  const auto solution = optim::solve_exact(aggregated);
  ASSERT_TRUE(solution.has_value());
  Matrix expanded;
  expand_allocation(agg, solution->allocation, expanded);
  ASSERT_EQ(expanded.rows(), problem.num_clients());
  ASSERT_EQ(expanded.cols(), problem.num_replicas());

  // Column sums (and hence the objective) are exactly those of the
  // aggregated solution; row sums recover each client's demand.
  for (std::size_t n = 0; n < problem.num_replicas(); ++n)
    EXPECT_NEAR(expanded.col_sum(n), solution->allocation.col_sum(n),
                1e-9 * (1.0 + solution->allocation.col_sum(n)));
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    EXPECT_NEAR(expanded.row_sum(c), problem.demand(c),
                1e-9 * (1.0 + problem.demand(c)));
  EXPECT_TRUE(optim::check_feasibility(problem, expanded).ok(1e-6));
  EXPECT_NEAR(problem.total_cost(expanded),
              aggregated.total_cost(solution->allocation),
              1e-9 * (1.0 + aggregated.total_cost(solution->allocation)));
}

}  // namespace
}  // namespace edr::core
