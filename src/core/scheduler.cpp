#include "core/scheduler.hpp"

#include <stdexcept>

#include "optim/flow.hpp"

namespace edr::core {

ScheduleResult CentralizedScheduler::schedule(const optim::Problem& problem) {
  auto solved = optim::solve_exact(problem);
  if (!solved)
    throw std::runtime_error("CentralizedScheduler: infeasible instance");
  ScheduleResult result;
  result.allocation = std::move(solved->allocation);
  // A central coordinator still needs each client's demand in and the
  // assignment out: 2 messages per (client, replica) pair.
  result.messages = 2 * problem.num_clients();
  result.bytes = result.messages * 16;
  return result;
}

ScheduleResult CdpsmScheduler::schedule(const optim::Problem& problem) {
  CdpsmEngine engine(problem, options_);
  const auto trace = engine.run();
  ScheduleResult result;
  result.allocation = engine.solution();
  result.rounds = engine.rounds_executed();
  result.converged = engine.converged();
  // Fed from the engine's per-round traffic counters (the same counters the
  // telemetry registry mirrors), not recomputed from a closed-form tally.
  result.messages = engine.messages_exchanged();
  result.bytes = engine.bytes_exchanged();
  return result;
}

ScheduleResult LddmScheduler::schedule(const optim::Problem& problem) {
  LddmEngine engine(problem, options_);
  const auto trace = engine.run();
  ScheduleResult result;
  result.allocation = engine.solution();
  result.rounds = engine.rounds_executed();
  result.converged = engine.converged();
  result.messages = engine.messages_exchanged();
  result.bytes = engine.bytes_exchanged();
  return result;
}

Matrix round_robin_allocation(const optim::Problem& problem) {
  const std::size_t clients = problem.num_clients();
  const std::size_t replicas = problem.num_replicas();
  Matrix allocation(clients, replicas, 0.0);
  std::vector<double> remaining_capacity(replicas);
  for (std::size_t n = 0; n < replicas; ++n)
    remaining_capacity[n] = problem.replica(n).bandwidth;

  // First pass: equal split over feasible replicas, clipped to capacity.
  std::vector<double> unplaced(clients, 0.0);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t feasible = problem.feasible_count(c);
    if (feasible == 0) continue;
    const double share = problem.demand(c) / static_cast<double>(feasible);
    for (std::size_t n = 0; n < replicas; ++n) {
      if (!problem.feasible_pair(c, n)) continue;
      const double placed = std::min(share, remaining_capacity[n]);
      allocation(c, n) = placed;
      remaining_capacity[n] -= placed;
      unplaced[c] += share - placed;
    }
  }
  // Waterfall pass: push overflow onto whatever feasible capacity is left.
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t n = 0; n < replicas && unplaced[c] > 1e-12; ++n) {
      if (!problem.feasible_pair(c, n)) continue;
      const double placed = std::min(unplaced[c], remaining_capacity[n]);
      allocation(c, n) += placed;
      remaining_capacity[n] -= placed;
      unplaced[c] -= placed;
    }
  }
  return allocation;
}

}  // namespace edr::core
