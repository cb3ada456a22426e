#include "core/lddm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/wire.hpp"
#include "optim/objective.hpp"
#include "optim/projection.hpp"

namespace edr::core {

LddmEngine::LddmEngine(const optim::Problem& problem, LddmOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("LddmEngine: invalid problem: " + issue);
  if (options_.rho <= 0.0)
    throw std::invalid_argument("LddmEngine: rho must be > 0");

  sparse_ = options_.representation != SolverRepresentation::kDense;
  work_ = problem_;
  if (options_.representation == SolverRepresentation::kAggregated) {
    aggregation_ = std::make_unique<ClientAggregation>(
        build_client_aggregation(problem));
    aggregated_problem_ = std::make_unique<optim::Problem>(
        aggregate_problem(problem, *aggregation_));
    work_ = aggregated_problem_.get();
  }

  const std::size_t clients = work_->num_clients();
  const std::size_t replicas = work_->num_replicas();
  mu_step_ = options_.mu_step > 0.0
                 ? options_.mu_step
                 : options_.mu_step_factor * options_.rho /
                       static_cast<double>(replicas);

  if (std::isnan(options_.initial_mu)) {
    // Auto: make serving immediately attractive — the negative of a
    // mid-range marginal cost.  (Any start converges; this one starts the
    // primal near sensible loads instead of at zero.)
    double marginal = 0.0;
    for (std::size_t n = 0; n < replicas; ++n)
      marginal += optim::replica_cost_derivative(
          work_->replica(n),
          work_->total_demand() / static_cast<double>(replicas));
    marginal /= static_cast<double>(replicas);
    mu_.assign(clients, -marginal);
  } else {
    mu_.assign(clients, options_.initial_mu);
  }

  // Class sizes: an aggregated entry stands for its member clients, so its
  // prox step and dual step are scaled to move the class's mass as fast as
  // the dense iteration moves its members (DESIGN.md §12).
  weights_.assign(clients, 1.0);
  if (aggregation_ != nullptr) {
    weights_.assign(clients, 0.0);
    for (const std::uint32_t k : aggregation_->class_of) weights_[k] += 1.0;
  }

  if (sparse_) {
    // Compact columns: one entry per feasible client, in the pattern's
    // ascending-row column order.  No masks — infeasible entries don't
    // exist in this storage.
    const common::SparsityPattern& pattern = *work_->sparsity();
    columns_.resize(replicas);
    average_.resize(replicas);
    solve_scratch_.resize(replicas);
    mu_gather_.resize(replicas);
    weight_gather_.resize(replicas);
    for (std::size_t n = 0; n < replicas; ++n) {
      const auto rows = pattern.col_rows(n);
      columns_[n].assign(rows.size(), 0.0);
      average_[n].assign(rows.size(), 0.0);
      solve_scratch_[n].assign(rows.size(), 0.0);
      mu_gather_[n].assign(rows.size(), 0.0);
      weight_gather_[n].resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i)
        weight_gather_[n][i] = weights_[rows[i]];
    }
  } else {
    columns_.assign(replicas, std::vector<double>(clients, 0.0));
    average_.assign(replicas, std::vector<double>(clients, 0.0));
    masks_.assign(replicas, std::vector<double>(clients, 0.0));
    solve_scratch_.assign(replicas, std::vector<double>(clients, 0.0));
    for (std::size_t n = 0; n < replicas; ++n)
      for (std::size_t c = 0; c < clients; ++c)
        masks_[n][c] = problem.feasible_pair(c, n) ? 1.0 : 0.0;
  }
}

void LddmEngine::solve_local_inplace(std::size_t n,
                                     std::span<const double> multipliers) {
  // Solve into the per-replica scratch, then swap: the current column is
  // the prox center, which the subproblem search re-reads throughout, so a
  // true in-place solve is not possible — but the swap keeps this
  // allocation-free after the first round.
  if (sparse_) {
    // Gather the multipliers of this replica's feasible clients and run the
    // maskless weighted subproblem.
    const auto rows = work_->sparsity()->col_rows(n);
    std::vector<double>& gathered = mu_gather_[n];
    for (std::size_t i = 0; i < rows.size(); ++i)
      gathered[i] = multipliers[rows[i]];
    optim::solve_weighted_subproblem_into(work_->replica(n), gathered,
                                          weight_gather_[n], columns_[n],
                                          options_.rho, solve_scratch_[n]);
  } else {
    optim::solve_replica_subproblem_into(problem_->replica(n), multipliers,
                                         masks_[n], columns_[n], options_.rho,
                                         solve_scratch_[n]);
  }
  std::swap(columns_[n], solve_scratch_[n]);
  // Running average for primal recovery (Cesàro average of iterates).
  const double k = static_cast<double>(rounds_ + 1);
  std::vector<double>& average = average_[n];
  const std::vector<double>& column = columns_[n];
  for (std::size_t i = 0; i < average.size(); ++i)
    average[i] += (column[i] - average[i]) / k;
}

void LddmEngine::set_multipliers(std::span<const double> mu) {
  if (mu.size() != mu_.size())
    throw std::invalid_argument("LddmEngine::set_multipliers: size mismatch");
  if (rounds_ != 0)
    throw std::logic_error(
        "LddmEngine::set_multipliers: only valid before the first round");
  std::copy(mu.begin(), mu.end(), mu_.begin());
}

void LddmEngine::set_column_state(std::size_t n,
                                  std::span<const double> column) {
  if (sparse_)
    throw std::logic_error(
        "LddmEngine::set_column_state: dense representation only");
  if (n >= columns_.size())
    throw std::out_of_range("LddmEngine::set_column_state: bad replica");
  if (column.size() != columns_[n].size())
    throw std::invalid_argument("LddmEngine::set_column_state: size mismatch");
  if (rounds_ != 0)
    throw std::logic_error(
        "LddmEngine::set_column_state: only valid before the first round");
  for (std::size_t c = 0; c < column.size(); ++c) {
    const double value = masks_[n][c] != 0.0 ? std::max(column[c], 0.0) : 0.0;
    columns_[n][c] = value;
    average_[n][c] = value;
  }
}

double LddmEngine::update_multiplier(std::size_t c, double total_served) {
  mu_[c] += mu_step_ * (total_served - work_->demand(c)) / weights_[c];
  return mu_[c];
}

LddmRoundStats LddmEngine::round() {
  const std::size_t clients = work_->num_clients();
  const std::size_t replicas = work_->num_replicas();

  LddmRoundStats stats;

  {
    telemetry::ScopedSpan span(*tracer_, "lddm.local_solves", "solver");
    // Per-replica subproblem solves against the shared read-only μ; each
    // touches only replica-owned state (columns_[n], average_[n],
    // solve_scratch_[n]).
    for (std::size_t n = 0; n < replicas; ++n) solve_local_inplace(n, mu_);
  }

  // Dual ascent.  The summation order of served[c] (replica-major, index
  // order) is part of the pinned behaviour.
  telemetry::ScopedSpan dual_span(*tracer_, "lddm.dual_update", "solver");
  served_.assign(clients, 0.0);
  if (sparse_) {
    // Same n-outer accumulation order as the dense sweep; the skipped
    // entries are exact zeros there.
    for (std::size_t n = 0; n < replicas; ++n) {
      const auto rows = work_->sparsity()->col_rows(n);
      for (std::size_t i = 0; i < rows.size(); ++i)
        served_[rows[i]] += columns_[n][i];
    }
  } else {
    for (std::size_t n = 0; n < replicas; ++n)
      accumulate(served_, columns_[n]);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    update_multiplier(c, served_[c]);
    stats.demand_residual = std::max(
        stats.demand_residual, std::abs(served_[c] - work_->demand(c)));
  }

  for (std::size_t n = 0; n < replicas; ++n) {
    // solve_local_inplace swapped the previous column into
    // solve_scratch_[n].  Compact columns hold col_nnz(n) entries, dense
    // ones `clients`; the skipped infeasible entries are exact zeros in
    // dense storage, so the movement norm is identical either way.
    stats.movement = std::max(stats.movement,
                              l2_distance(columns_[n], solve_scratch_[n]));
  }

  stats.round = ++rounds_;
  std::size_t round_messages = 2 * clients * replicas;
  if (sparse_) {
    // Client↔replica traffic exists only on feasible pairs: one compact
    // (row id, load) report and one μ update per pair per round.
    const std::size_t nnz = work_->sparsity()->nnz();
    round_messages = 2 * nnz;
    stats.bytes_exchanged = 2 * nnz * (4 + 8);
  } else {
    stats.bytes_exchanged = replicas * bytes_per_replica_round() +
                            clients * bytes_per_client_round();
  }
  messages_exchanged_ += round_messages;
  bytes_exchanged_ += stats.bytes_exchanged;
  rounds_metric_.add(1);
  messages_metric_.add(round_messages);
  bytes_metric_.add(stats.bytes_exchanged);

  // Convergence: the recovered solution stops moving for `patience` rounds.
  if (sparse_) {
    solution_into_sparse(sparse_scratch_solution_);
    // The aggregated objective equals the disaggregated one (the fan-out
    // preserves column sums), so this is the true E_g either way.
    stats.objective = work_->total_cost(sparse_scratch_solution_);
  } else {
    solution_into(scratch_solution_);
    stats.objective = problem_->total_cost(scratch_solution_);
  }
  objective_metric_.set(stats.objective);
  residual_metric_.set(stats.demand_residual);
  movement_metric_.set(stats.movement);
  if (collect_stats_) {
    // Observe the *recovered* solution, not the raw columns: dual iterates
    // oscillate even at the optimum (see solution()), so raw per-column
    // loads would read as pathological to any downstream monitor.
    replica_stats_.assign(replicas, {});
    for (std::size_t n = 0; n < replicas; ++n) {
      auto& replica = replica_stats_[n];
      double load = 0.0;
      double previous_load = 0.0;
      double sq = 0.0;
      if (sparse_) {
        const auto positions = work_->sparsity()->col_positions(n);
        const auto current_values = sparse_scratch_solution_.values();
        const auto last_values = sparse_last_solution_.values();
        for (const std::uint32_t p : positions) {
          const double value = current_values[p];
          const double prev = sparse_has_last_ ? last_values[p] : 0.0;
          load += value;
          previous_load += prev;
          const double d = value - prev;
          sq += d * d;
        }
      } else {
        for (std::size_t c = 0; c < clients; ++c) {
          const double value = scratch_solution_(c, n);
          const double prev =
              last_solution_.empty() ? 0.0 : last_solution_(c, n);
          load += value;
          previous_load += prev;
          const double d = value - prev;
          sq += d * d;
        }
      }
      replica.local_objective =
          optim::replica_cost(work_->replica(n), load);
      replica.movement = std::sqrt(sq);
      replica.load = load;
      replica.load_delta = load - previous_load;
    }
  }
  const double scale = std::max(problem_->total_demand(), 1.0);
  const bool stable =
      sparse_ ? (sparse_has_last_ &&
                 sparse_scratch_solution_.distance(sparse_last_solution_) <=
                     options_.tolerance * scale)
              : (!last_solution_.empty() &&
                 scratch_solution_.distance(last_solution_) <=
                     options_.tolerance * scale);
  if (stable) {
    if (++stable_rounds_ >= options_.patience) converged_ = true;
  } else {
    stable_rounds_ = 0;
  }
  // Double-buffer: the new solution becomes last_solution_, the old buffer
  // becomes next round's scratch.
  if (sparse_) {
    std::swap(sparse_last_solution_, sparse_scratch_solution_);
    sparse_has_last_ = true;
  } else {
    std::swap(last_solution_, scratch_solution_);
  }
  return stats;
}

optim::ConvergenceTrace LddmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective,
                  std::max(stats.demand_residual, stats.movement),
                  bytes_total});
  }
  return trace;
}

Matrix LddmEngine::solution() const {
  Matrix current;
  if (sparse_) {
    solution_into_sparse(sparse_solution_tmp_);
    if (aggregation_ != nullptr) {
      thread_local Matrix aggregated_dense;
      sparse_solution_tmp_.to_dense(aggregated_dense);
      expand_allocation(*aggregation_, aggregated_dense, current);
    } else {
      sparse_solution_tmp_.to_dense(current);
    }
    return current;
  }
  solution_into(current);
  return current;
}

void LddmEngine::solution_into_sparse(common::SparseAllocation& out) const {
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  const std::span<double> values = out.values();
  const common::SparsityPattern& pattern = out.pattern();
  for (std::size_t n = 0; n < work_->num_replicas(); ++n) {
    const auto positions = pattern.col_positions(n);
    for (std::size_t i = 0; i < positions.size(); ++i)
      values[positions[i]] = average_[n][i];
  }
  optim::project_feasible(*work_, out);
}

void LddmEngine::solution_into(Matrix& out) const {
  const std::size_t clients = problem_->num_clients();
  const std::size_t replicas = problem_->num_replicas();
  // Cesàro average of the primal iterates: the raw dual-decomposition
  // iterates oscillate around the optimum, but their running average
  // converges (standard primal recovery); feasibility repair makes the
  // demand rows exact.
  out.reshape(clients, replicas, 0.0);
  for (std::size_t n = 0; n < replicas; ++n)
    for (std::size_t c = 0; c < clients; ++c) out(c, n) = average_[n][c];
  optim::project_feasible(*problem_, out);
}

void LddmEngine::attach_telemetry(telemetry::Telemetry& telemetry) {
  tracer_ = &telemetry.tracer();
  auto& metrics = telemetry.metrics();
  rounds_metric_ = metrics.counter("solver.lddm.rounds");
  messages_metric_ = metrics.counter("solver.lddm.messages");
  bytes_metric_ = metrics.counter("solver.lddm.bytes");
  objective_metric_ = metrics.gauge("solver.lddm.objective");
  residual_metric_ = metrics.gauge("solver.lddm.residual");
  movement_metric_ = metrics.gauge("solver.lddm.movement");
}

std::size_t LddmEngine::bytes_per_replica_round() const {
  if (sparse_) {
    // One (client id, load) pair per *feasible* client; per-replica traffic
    // varies with the column population, so report the mean.
    return work_->sparsity()->nnz() * (4 + 8) /
           std::max<std::size_t>(work_->num_replicas(), 1);
  }
  // One (client id, load) pair per client, shipped to that client.
  return problem_->num_clients() * (4 + 8);
}

std::size_t LddmEngine::bytes_per_client_round() const {
  if (sparse_) {
    // μ_c to each feasible replica; mean over clients.
    return work_->sparsity()->nnz() * (4 + 8) /
           std::max<std::size_t>(work_->num_clients(), 1);
  }
  // μ_c to every replica.
  return problem_->num_replicas() * (4 + 8);
}

}  // namespace edr::core
