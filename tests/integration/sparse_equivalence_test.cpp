// Sparse / aggregated representation equivalence.
//
// The representation knob changes how the iterative engines STORE their
// iterates, not what they solve: kSparse keeps the same algorithm on the
// latency-feasible pairs only, kAggregated additionally collapses client
// equivalence classes (an exact transform — DESIGN.md §12).  These tests
// pin that contract end to end:
//
//  * the full system, every registry backend, all three representations —
//    non-iterative backends (central, rr, donar) ignore the knob and must
//    be byte-identical; the iterative ones (lddm, cdpsm) must agree to
//    solver tolerance;
//  * the engines head-to-head on one Problem, same rounds, with feasible
//    solutions and near-identical objectives;
//  * class-weighted aggregated LDDM against dense LDDM on classes of
//    equal-demand clients: the same per-round column sums up to rounding;
//  * a 10^5-client geo-local instance solving within a single-digit-seconds
//    wall budget — the scale the dense path cannot touch — whose exact
//    optimum is the same on the class graph as on the full client graph.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/report_json.hpp"
#include "baselines/donar_algorithm.hpp"
#include "core/aggregation.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "core/representation.hpp"
#include "core/system.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"
#include "workload/apps.hpp"

namespace edr {
namespace {

constexpr core::SolverRepresentation kRepresentations[] = {
    core::SolverRepresentation::kDense,
    core::SolverRepresentation::kSparse,
    core::SolverRepresentation::kAggregated,
};

struct SystemRun {
  std::string json;
  double total_cost = 0.0;
  double megabytes_served = 0.0;
};

SystemRun run_system(const std::string& algorithm,
                     core::SolverRepresentation representation) {
  auto cfg = analysis::paper_config(algorithm, 7);
  cfg.representation = representation;
  core::EdrSystem system(
      cfg, analysis::paper_trace(workload::distributed_file_service(), 42,
                                 8.0));
  const auto report = system.run();
  return {analysis::report_to_json(report, algorithm), report.total_cost,
          report.megabytes_served};
}

TEST(SparseEquivalence, NonIterativeBackendsIgnoreTheKnob) {
  baselines::register_donar_algorithm();
  for (const char* algorithm : {"central", "rr", "donar"}) {
    const auto dense = run_system(algorithm, kRepresentations[0]);
    for (std::size_t i = 1; i < 3; ++i) {
      const auto compact = run_system(algorithm, kRepresentations[i]);
      EXPECT_EQ(compact.json, dense.json)
          << algorithm << " diverged under "
          << core::to_string(kRepresentations[i]);
    }
  }
}

TEST(SparseEquivalence, IterativeBackendsAgreeToSolverTolerance) {
  for (const char* algorithm : {"lddm", "cdpsm"}) {
    const auto dense = run_system(algorithm, kRepresentations[0]);
    ASSERT_GT(dense.total_cost, 0.0);
    for (std::size_t i = 1; i < 3; ++i) {
      const auto compact = run_system(algorithm, kRepresentations[i]);
      EXPECT_NEAR(compact.total_cost, dense.total_cost,
                  2e-2 * dense.total_cost)
          << algorithm << " cost diverged under "
          << core::to_string(kRepresentations[i]);
      EXPECT_NEAR(compact.megabytes_served, dense.megabytes_served,
                  1e-6 * dense.megabytes_served)
          << algorithm << " served mass diverged under "
          << core::to_string(kRepresentations[i]);
    }
  }
}

TEST(SparseEquivalence, EnginesNearCentralizedOptimumUnderEveryStorage) {
  Rng rng{19};
  optim::GeoInstanceOptions geo;
  geo.num_clients = 300;
  geo.num_replicas = 8;
  geo.window = 3;
  const auto problem = optim::make_geo_instance(rng, geo);
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());
  const double optimum = central->cost;
  ASSERT_GT(optimum, 0.0);

  // kSparse runs the same iteration on compact storage, so it must track
  // the dense objective tightly at equal rounds.  kAggregated's class-
  // weighted iteration follows the dense trajectory only where each class
  // holds equal-demand clients (pinned round by round further down); here
  // demands differ within a class, so it is only required to be feasible,
  // no worse than the dense iterate (plus slack), and never below the true
  // optimum.  How fast either engine approaches the optimum is convergence
  // behavior, not representation equivalence, and is not pinned here.
  const auto check = [&](const char* name, auto&& make_solution) {
    double objective[3] = {0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < 3; ++i) {
      const Matrix solution = make_solution(kRepresentations[i]);
      EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-4))
          << name << " infeasible under "
          << core::to_string(kRepresentations[i]);
      objective[i] = problem.total_cost(solution);
      EXPECT_GE(objective[i], optimum * (1.0 - 1e-6))
          << name << " beat the optimum under "
          << core::to_string(kRepresentations[i]);
    }
    EXPECT_NEAR(objective[1], objective[0], 1e-3 * objective[0])
        << name << ": sparse diverged from dense at equal rounds";
    EXPECT_LE(objective[2], objective[0] * 1.10)
        << name << ": aggregated diverged from dense at equal rounds";
  };

  {
    core::CdpsmOptions options;
    options.max_rounds = 60;
    options.tolerance = 1e-5;
    check("cdpsm", [&](core::SolverRepresentation representation) {
      auto opts = options;
      opts.representation = representation;
      core::CdpsmEngine engine{problem, opts};
      engine.run();
      return engine.solution();
    });
  }
  {
    core::LddmOptions options;
    options.max_rounds = 150;
    options.tolerance = 1e-5;
    check("lddm", [&](core::SolverRepresentation representation) {
      auto opts = options;
      opts.representation = representation;
      core::LddmEngine engine{problem, opts};
      engine.run();
      return engine.solution();
    });
  }
}

/// Each replica's raw LDDM column sum after every round, tolerance 0 so no
/// round stops early.
std::vector<std::vector<double>> lddm_column_sums(
    const optim::Problem& problem, core::SolverRepresentation representation,
    std::size_t rounds) {
  core::LddmOptions options;
  options.mu_step_factor = 3.0;
  options.tolerance = 0.0;
  options.max_rounds = rounds;
  options.representation = representation;
  core::LddmEngine engine{problem, options};
  std::vector<std::vector<double>> sums;
  for (std::size_t r = 0; r < rounds; ++r) {
    (void)engine.round();
    std::vector<double>& row = sums.emplace_back();
    for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
      double sum = 0.0;
      for (const double q : engine.column(n)) sum += q;
      row.push_back(sum);
    }
  }
  return sums;
}

/// `problem` with every client's demand replaced by `class_demand` of its
/// client class, so each class holds equal-demand clients.
optim::Problem with_class_demands(const optim::Problem& problem,
                                  const std::vector<double>& class_demand) {
  const auto agg = core::build_client_aggregation(problem);
  std::vector<Megabytes> demands(problem.num_clients());
  Matrix latency(problem.num_clients(), problem.num_replicas());
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    demands[c] = class_demand[agg.class_of[c] % class_demand.size()];
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      latency(c, n) = problem.latency(c, n);
  }
  return optim::Problem(std::move(demands), problem.replicas(),
                        std::move(latency), problem.max_latency());
}

TEST(SparseEquivalence,
     AggregatedLddmFollowsDenseColumnSumsOnEqualDemandClasses) {
  // Weighted by class size, the aggregated iteration takes the steps the
  // dense one takes on the class's members: a class of m equal-demand
  // clients moves m times one member's mass.  So, round by round, every
  // replica's column sum must match the dense one up to rounding.
  constexpr std::size_t kRounds = 60;
  const auto check = [&](const char* name, const optim::Problem& problem) {
    const auto agg = core::build_client_aggregation(problem);
    ASSERT_LT(agg.num_classes(), problem.num_clients()) << name;
    const auto dense = lddm_column_sums(
        problem, core::SolverRepresentation::kDense, kRounds);
    const auto aggregated = lddm_column_sums(
        problem, core::SolverRepresentation::kAggregated, kRounds);
    for (std::size_t r = 0; r < kRounds; ++r)
      for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
        const double d = dense[r][n];
        const double a = aggregated[r][n];
        EXPECT_LE(std::abs(a - d), 1e-9 * std::abs(d))
            << name << ": round " << r + 1 << ", replica " << n << ": dense "
            << d << ", aggregated " << a;
      }
  };

  {
    // One class: every client reaches every replica.  The cheapest
    // replica's cap binds, so the capacity search runs too.
    std::vector<optim::ReplicaParams> replicas(4);
    const double prices[] = {1.0, 8.0, 2.0, 5.0};
    for (std::size_t n = 0; n < replicas.size(); ++n)
      replicas[n].price = prices[n];
    replicas[0].bandwidth = 40.0;
    const optim::Problem problem(std::vector<Megabytes>(24, 10.0),
                                 std::move(replicas), Matrix(24, 4, 0.2),
                                 1.8);
    check("single class", problem);
  }
  {
    // Geo-local: each client reaches 2 of 6 replicas, one class per window
    // start, each class with its own per-client demand.
    Rng rng{29};
    optim::GeoInstanceOptions geo;
    geo.num_clients = 120;
    geo.num_replicas = 6;
    geo.window = 2;
    check("geo", with_class_demands(optim::make_geo_instance(rng, geo),
                                    {4.0, 6.0, 8.0, 10.0, 12.0, 14.0}));
  }
}

// 10^5 clients: generation + both compact engines, a handful of pinned
// rounds each, within a generous single-core wall budget.  The point is
// the asymptotic cliff, not the constant: the dense path at this size
// spends minutes in a single CDPSM round.
TEST(SparseScale, HundredThousandClientsSolvesWithinWallBudget) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Rng rng{5};
  optim::GeoInstanceOptions geo;
  geo.num_clients = 100000;
  geo.num_replicas = 16;
  geo.window = 2;
  const auto problem = optim::make_geo_instance(rng, geo);

  {
    core::CdpsmOptions options;
    options.max_rounds = 4;
    options.tolerance = 0.0;
    options.representation = core::SolverRepresentation::kSparse;
    core::CdpsmEngine engine{problem, options};
    engine.run();
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-4));
  }
  {
    core::LddmOptions options;
    options.max_rounds = 30;
    options.tolerance = 0.0;
    options.representation = core::SolverRepresentation::kAggregated;
    core::LddmEngine engine{problem, options};
    engine.run();
    const auto solution = engine.solution();
    EXPECT_TRUE(optim::check_feasibility(problem, solution).ok(1e-4));
  }
  {
    // Aggregation is exact: the class graph's optimum is the full graph's,
    // and fanned back out it is a feasible allocation at that cost.
    const auto dense = optim::solve_exact(problem);
    const auto agg = core::build_client_aggregation(problem);
    const auto classes =
        optim::solve_exact(core::aggregate_problem(problem, agg));
    ASSERT_TRUE(dense.has_value());
    ASSERT_TRUE(classes.has_value());
    EXPECT_NEAR(classes->cost, dense->cost, 1e-9 * dense->cost);
    Matrix expanded;
    core::expand_allocation(agg, classes->allocation, expanded);
    EXPECT_TRUE(optim::check_feasibility(problem, expanded).ok(1e-6));
    EXPECT_NEAR(problem.total_cost(expanded), dense->cost,
                1e-9 * dense->cost);
  }

  // Generous for CI noise; the measured wall on one core is ~2 s.
  EXPECT_LT(elapsed_s(), 60.0);
}

}  // namespace
}  // namespace edr
