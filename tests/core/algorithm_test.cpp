// Driving DistributedAlgorithm backends synchronously against a fabricated
// EpochContext — no simulator, no network — to pin the interface contract:
// warm-start state must carry across epochs (and measurably shorten the
// second solve), abort must drop the engine but keep the warm state, and
// one-shot backends must honor their rotation state.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/builtin_algorithms.hpp"
#include "core/lddm.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::core {
namespace {

/// A 4-client x 4-replica epoch with mildly skewed demand.
optim::Problem make_problem(double demand_scale) {
  std::vector<Megabytes> demands = {30.0 * demand_scale,
                                    22.0 * demand_scale,
                                    18.0 * demand_scale,
                                    26.0 * demand_scale};
  std::vector<optim::ReplicaParams> replicas(4);
  replicas[0].price = 1.0;
  replicas[1].price = 8.0;
  replicas[2].price = 2.0;
  replicas[3].price = 5.0;
  Matrix latency(4, 4, 0.2);
  return optim::Problem(std::move(demands), std::move(replicas),
                        std::move(latency), 1.8);
}

struct FabricatedEpoch {
  optim::Problem problem;
  std::vector<std::size_t> active_replicas = {0, 1, 2, 3};
  std::vector<std::uint32_t> active_clients = {0, 1, 2, 3};
  std::vector<PendingRequest> requests;
  std::vector<bool> alive = {true, true, true, true};

  explicit FabricatedEpoch(double demand_scale)
      : problem(make_problem(demand_scale)) {}

  [[nodiscard]] EpochContext context() {
    EpochContext ctx;
    ctx.problem = &problem;
    ctx.active_replicas = &active_replicas;
    ctx.active_clients = &active_clients;
    ctx.requests = &requests;
    ctx.replica_alive = &alive;
    ctx.num_replicas = 4;
    ctx.num_clients = 4;
    ctx.num_solvers = 4;
    return ctx;
  }
};

/// Run one full epoch synchronously; returns the number of rounds stepped.
std::size_t solve_epoch(DistributedAlgorithm& algorithm, EpochContext ctx,
                        Matrix* allocation_out = nullptr) {
  algorithm.begin_epoch(ctx);
  std::size_t rounds = 0;
  while (!algorithm.step_round(ctx)) ++rounds;
  ++rounds;
  Matrix allocation = algorithm.extract_allocation(ctx);
  if (allocation_out != nullptr) *allocation_out = std::move(allocation);
  return rounds;
}

LddmOptions test_lddm_options() {
  LddmOptions options;
  options.mu_step_factor = 3.0;
  options.max_rounds = 300;
  options.tolerance = 1e-4;
  options.patience = 3;
  return options;
}

TEST(LddmAlgorithm, WarmSecondEpochConvergesInFewerRounds) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);  // next epoch: similar shape, more demand

  LddmAlgorithm warm(test_lddm_options(), /*warm_start=*/true);
  const std::size_t warm_first = solve_epoch(warm, first.context());
  const std::size_t warm_second = solve_epoch(warm, second.context());

  LddmAlgorithm cold(test_lddm_options(), /*warm_start=*/false);
  (void)solve_epoch(cold, first.context());
  const std::size_t cold_second = solve_epoch(cold, second.context());

  // The first epoch starts from nothing either way; the carried duals +
  // scaled primal columns must shorten the second solve.
  EXPECT_LT(warm_second, cold_second);
  EXPECT_LT(warm_second, warm_first);
}

TEST(LddmAlgorithm, WarmAndColdAgreeOnTheAllocation) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);

  Matrix warm_allocation, cold_allocation;
  LddmAlgorithm warm(test_lddm_options(), true);
  (void)solve_epoch(warm, first.context());
  (void)solve_epoch(warm, second.context(), &warm_allocation);

  LddmAlgorithm cold(test_lddm_options(), false);
  (void)solve_epoch(cold, first.context());
  (void)solve_epoch(cold, second.context(), &cold_allocation);

  // Warm starting changes the iteration count, not the answer: column
  // loads agree to solver tolerance.
  ASSERT_EQ(warm_allocation.cols(), cold_allocation.cols());
  const double total = second.problem.total_demand();
  for (std::size_t col = 0; col < warm_allocation.cols(); ++col)
    EXPECT_NEAR(warm_allocation.col_sum(col), cold_allocation.col_sum(col),
                total * 0.02)
        << "replica " << col;
}

TEST(LddmAlgorithm, AbortKeepsWarmStateForTheRestart) {
  FabricatedEpoch first(1.0);
  FabricatedEpoch second(1.15);

  LddmAlgorithm algorithm(test_lddm_options(), true);
  (void)solve_epoch(algorithm, first.context());

  // Membership change mid-epoch: engine dropped, warm state retained.
  algorithm.begin_epoch(second.context());
  (void)algorithm.step_round(second.context());
  algorithm.abort_epoch();

  const std::size_t restarted = solve_epoch(algorithm, second.context());
  LddmAlgorithm cold(test_lddm_options(), false);
  (void)solve_epoch(cold, first.context());
  const std::size_t cold_second = solve_epoch(cold, second.context());
  EXPECT_LT(restarted, cold_second)
      << "warm state should survive an aborted epoch";
}

TEST(RoundRobinAlgorithm, RotationCursorCarriesAcrossEpochs) {
  // One request per epoch: without cross-epoch cursor state every epoch
  // would start at replica 0; with it, consecutive epochs hit consecutive
  // replicas.
  RoundRobinAlgorithm algorithm;
  std::vector<std::size_t> first_hit;
  for (int epoch = 0; epoch < 3; ++epoch) {
    FabricatedEpoch fab(1.0);
    fab.active_clients = {0};
    fab.problem = optim::Problem({25.0}, fab.problem.replicas(),
                                 Matrix(1, 4, 0.2), 1.8);
    fab.requests.push_back({/*id=*/static_cast<std::uint64_t>(epoch),
                            /*client=*/0, /*arrival=*/0.0,
                            /*size_mb=*/25.0, /*retries=*/0});
    auto ctx = fab.context();
    ASSERT_FALSE(algorithm.iterative());
    const auto allocation = algorithm.solve_oneshot(ctx);
    ASSERT_TRUE(allocation.has_value());
    for (std::size_t col = 0; col < allocation->cols(); ++col)
      if (allocation->col_sum(col) > 0.0) first_hit.push_back(col);
  }
  ASSERT_EQ(first_hit.size(), 3u);
  EXPECT_EQ(first_hit[0], 0u);
  EXPECT_EQ(first_hit[1], 1u);
  EXPECT_EQ(first_hit[2], 2u);
}

TEST(AlgorithmObserve, RoundMessagesMatchThePlannedReportsInEveryStorage) {
  // A geo-local epoch (each client reaches 2 of 6 replicas, 6 client
  // classes), so dense, sparse and aggregated storage plan 240, 80 and 12
  // replica->client reports per round.  The flight recorder's per-replica
  // messages_sent must add up to what plan_round schedules.
  Rng rng{23};
  optim::GeoInstanceOptions geo;
  geo.num_clients = 40;
  geo.num_replicas = 6;
  geo.window = 2;
  const optim::Problem problem = optim::make_geo_instance(rng, geo);
  std::vector<std::size_t> active_replicas(geo.num_replicas);
  std::iota(active_replicas.begin(), active_replicas.end(), 0);
  std::vector<std::uint32_t> active_clients(geo.num_clients);
  std::iota(active_clients.begin(), active_clients.end(), 0u);
  const std::vector<PendingRequest> requests;
  const std::vector<bool> alive(geo.num_replicas, true);
  const auto telemetry = telemetry::make_telemetry();
  telemetry->enable_flight_recorder();
  EpochContext ctx;
  ctx.problem = &problem;
  ctx.active_replicas = &active_replicas;
  ctx.active_clients = &active_clients;
  ctx.requests = &requests;
  ctx.replica_alive = &alive;
  ctx.num_replicas = geo.num_replicas;
  ctx.num_clients = geo.num_clients;
  ctx.num_solvers = geo.num_replicas;
  ctx.telemetry = telemetry.get();

  for (const SolverRepresentation representation :
       {SolverRepresentation::kDense, SolverRepresentation::kSparse,
        SolverRepresentation::kAggregated}) {
    LddmOptions lddm_options;
    lddm_options.representation = representation;
    AdmmOptions admm_options;
    admm_options.representation = representation;
    LddmAlgorithm lddm(lddm_options, /*warm_start=*/false);
    AdmmAlgorithm admm(admm_options, /*warm_start=*/false);
    for (DistributedAlgorithm* algorithm :
         {static_cast<DistributedAlgorithm*>(&lddm),
          static_cast<DistributedAlgorithm*>(&admm)}) {
      algorithm->begin_epoch(ctx);
      std::vector<PlannedMessage> planned;
      algorithm->plan_round(ctx, planned);
      (void)algorithm->step_round(ctx);
      std::vector<telemetry::RoundSample> samples;
      algorithm->observe(ctx, samples);
      algorithm->abort_epoch();

      std::uint64_t reports = 0;
      for (const PlannedMessage& message : planned)
        if (message.from_kind == Endpoint::kSolver &&
            message.to_kind == Endpoint::kClient)
          ++reports;
      std::uint64_t recorded = 0;
      for (const telemetry::RoundSample& sample : samples)
        recorded += sample.messages_sent;
      ASSERT_EQ(samples.size(), geo.num_replicas)
          << algorithm->name() << " under " << to_string(representation);
      EXPECT_GT(reports, 0u);
      EXPECT_EQ(recorded, reports)
          << algorithm->name() << " under " << to_string(representation);
    }
  }
}

}  // namespace
}  // namespace edr::core
