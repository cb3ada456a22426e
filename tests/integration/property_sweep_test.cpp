// Parameterized property sweeps across algorithms, seeds and problem
// shapes: the invariants every configuration must satisfy, regardless of
// which scheduler runs or how the workload falls.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/experiments.hpp"
#include "core/algorithm_registry.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "optim/flow.hpp"
#include "optim/instance.hpp"

namespace edr {
namespace {


// ---------------------------------------------------------------------------
// System-level sweep: every algorithm x several workload seeds.
// ---------------------------------------------------------------------------

// The algorithm key is a std::string, not a const char*: gtest prints a
// pointer parameter as its address, which would put an ASLR-dependent
// value into every listed test name.
class SystemSweep : public ::testing::TestWithParam<
                        std::tuple<std::string, std::uint64_t>> {
 protected:
  core::RunReport run() const {
    const auto [algorithm, seed] = GetParam();
    auto cfg = analysis::paper_config(algorithm, 7);
    cfg.record_traces = false;
    core::EdrSystem system(
        cfg, analysis::paper_trace(workload::distributed_file_service(), seed,
                                   12.0));
    return system.run();
  }
};

TEST_P(SystemSweep, ServesEveryByteOfTheTrace) {
  const auto [algorithm, seed] = GetParam();
  const auto trace =
      analysis::paper_trace(workload::distributed_file_service(), seed, 12.0);
  const auto report = run();
  EXPECT_EQ(report.requests_served + report.requests_dropped, trace.size());
  EXPECT_EQ(report.requests_dropped, 0u);
  EXPECT_NEAR(report.megabytes_served, trace.total_megabytes(),
              trace.total_megabytes() * 1e-6);
}

TEST_P(SystemSweep, EnergyAccountingIsConsistent) {
  const auto report = run();
  EXPECT_GT(report.total_energy, 0.0);
  EXPECT_GT(report.total_active_energy, 0.0);
  EXPECT_LT(report.total_active_energy, report.total_energy);
  EXPECT_GT(report.total_cost, report.total_active_cost);
  double cost = 0.0;
  for (const auto& replica : report.replicas) cost += replica.active_cost;
  EXPECT_NEAR(cost, report.total_active_cost,
              std::max(1e-12, report.total_active_cost * 1e-9));
}

TEST_P(SystemSweep, EveryRequestGetsAResponseTime) {
  const auto [algorithm, seed] = GetParam();
  const auto trace =
      analysis::paper_trace(workload::distributed_file_service(), seed, 12.0);
  const auto report = run();
  EXPECT_EQ(report.response_times_ms.size(), trace.size());
  for (const double ms : report.response_times_ms) EXPECT_GT(ms, 0.0);
}

TEST_P(SystemSweep, RunsAreDeterministic) {
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  EXPECT_DOUBLE_EQ(a.total_active_energy, b.total_active_energy);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, SystemSweep,
    ::testing::Combine(::testing::Values(std::string("lddm"),
                                         std::string("cdpsm"),
                                         std::string("rr"),
                                         std::string("central")),
                       ::testing::Values(42u, 1337u)),
    [](const auto& info) {
      std::string name = core::algorithm_display_name(std::get<0>(info.param));
      std::erase_if(name, [](char ch) { return !std::isalnum(ch); });
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Solver-shape sweep: distributed == centralized across problem shapes.
// ---------------------------------------------------------------------------

class ShapeSweep : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t>> {
 protected:
  optim::Problem make() const {
    const auto [clients, replicas] = GetParam();
    Rng rng{clients * 1000 + replicas};
    optim::InstanceOptions opts;
    opts.num_clients = clients;
    opts.num_replicas = replicas;
    return optim::make_random_instance(rng, opts);
  }
};

TEST_P(ShapeSweep, LddmMatchesCentralized) {
  const auto problem = make();
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());
  core::LddmEngine engine{problem};
  engine.run();
  EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5));
  EXPECT_LT(optim::relative_gap(problem, engine.solution(), central->cost),
            1e-2);
}

TEST_P(ShapeSweep, CdpsmMatchesCentralized) {
  const auto problem = make();
  const auto central = optim::solve_exact(problem);
  ASSERT_TRUE(central.has_value());
  core::CdpsmEngine engine{problem};
  engine.run();
  EXPECT_TRUE(optim::check_feasibility(problem, engine.solution()).ok(1e-5));
  // Constant-step consensus-projection methods converge to a *neighborhood*
  // of the optimum whose radius grows with the local-projection mismatch —
  // worst on wide instances (few clients, many replicas), where the limit
  // point can sit a few percent off no matter how many rounds run.  LDDM
  // does not share this bias (see LddmMatchesCentralized's 1% bound) —
  // one more reason the paper prefers it.
  EXPECT_LT(optim::relative_gap(problem, engine.solution(), central->cost),
            7e-2);
}

TEST_P(ShapeSweep, EdrNeverLosesToRoundRobin) {
  const auto problem = make();
  core::LddmEngine engine{problem};
  engine.run();
  const double edr = problem.total_cost(engine.solution());
  const double rr =
      problem.total_cost(core::round_robin_allocation(problem));
  EXPECT_LE(edr, rr * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweep,
    ::testing::Values(std::make_tuple(2u, 2u), std::make_tuple(5u, 3u),
                      std::make_tuple(8u, 8u), std::make_tuple(20u, 4u),
                      std::make_tuple(3u, 12u), std::make_tuple(24u, 12u)),
    [](const auto& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace edr
