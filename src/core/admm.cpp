#include "core/admm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "optim/flow.hpp"
#include "optim/objective.hpp"
#include "optim/projection.hpp"

namespace edr::core {

AdmmEngine::AdmmEngine(const optim::Problem& problem, AdmmOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("AdmmEngine: invalid problem: " + issue);
  if (options_.rho <= 0.0)
    throw std::invalid_argument("AdmmEngine: rho must be > 0");
  if (options_.adapt_factor <= 1.0)
    throw std::invalid_argument("AdmmEngine: adapt_factor must be > 1");
  if (options_.adapt_threshold <= 1.0)
    throw std::invalid_argument("AdmmEngine: adapt_threshold must be > 1");
  rho_ = options_.rho;

  sparse_ = options_.representation != SolverRepresentation::kDense;
  work_ = problem_;
  if (options_.representation == SolverRepresentation::kAggregated) {
    aggregation_ = std::make_unique<ClientAggregation>(
        build_client_aggregation(problem));
    aggregated_problem_ = std::make_unique<optim::Problem>(
        aggregate_problem(problem, *aggregation_));
    work_ = aggregated_problem_.get();
  }

  auto start = optim::initial_feasible_point(*work_);
  if (!start)
    throw std::runtime_error("AdmmEngine: instance is not feasible");

  const std::size_t clients = work_->num_clients();
  const std::size_t replicas = work_->num_replicas();
  zero_mu_.assign(clients, 0.0);
  prox_scratch_.resize(replicas);
  column_scratch_.resize(replicas);
  if (sparse_) {
    const common::SparsityPattern& pattern = *work_->sparsity();
    sparse_x_ = common::SparseAllocation(work_->sparsity());
    sparse_z_ = common::SparseAllocation(work_->sparsity());
    sparse_u_ = common::SparseAllocation(work_->sparsity());
    sparse_z_prev_ = common::SparseAllocation(work_->sparsity());
    sparse_z_.from_dense(*start);
    for (std::size_t n = 0; n < replicas; ++n) {
      const std::size_t size = pattern.col_nnz(n);
      prox_scratch_[n].assign(size, 0.0);
      column_scratch_[n].assign(size, 0.0);
    }
  } else {
    x_.reshape(clients, replicas, 0.0);
    z_ = *start;
    u_.reshape(clients, replicas, 0.0);
    z_prev_.reshape(clients, replicas, 0.0);
    masks_.assign(replicas, std::vector<double>(clients, 0.0));
    for (std::size_t n = 0; n < replicas; ++n) {
      prox_scratch_[n].assign(clients, 0.0);
      column_scratch_[n].assign(clients, 0.0);
      for (std::size_t c = 0; c < clients; ++c)
        masks_[n][c] = problem.feasible_pair(c, n) ? 1.0 : 0.0;
    }
  }
}

void AdmmEngine::set_state(const Matrix& z, const Matrix& u) {
  if (sparse_)
    throw std::logic_error("AdmmEngine::set_state: dense representation only");
  if (rounds_ != 0)
    throw std::logic_error(
        "AdmmEngine::set_state: only valid before the first round");
  if (z.rows() != z_.rows() || z.cols() != z_.cols() ||
      u.rows() != u_.rows() || u.cols() != u_.cols())
    throw std::invalid_argument("AdmmEngine::set_state: shape mismatch");
  z_ = z;
  u_ = u;
  // Zero both on infeasible pairs (the warm carrier may hold stale mass
  // there after a membership change) and restore demand feasibility — the
  // x-update assumes its prox center came from a point in A.
  for (std::size_t n = 0; n < z_.cols(); ++n)
    for (std::size_t c = 0; c < z_.rows(); ++c)
      if (masks_[n][c] == 0.0) {
        z_(c, n) = 0.0;
        u_(c, n) = 0.0;
      }
  optim::project_demand_set(*work_, z_);
}

void AdmmEngine::solve_replica(std::size_t n) {
  // Prox center z_n − u_n; the subproblem enforces mask, nonnegativity and
  // the capacity cap, so x_n lands in B_n exactly.
  std::vector<double>& prox = prox_scratch_[n];
  for (std::size_t c = 0; c < z_.rows(); ++c) prox[c] = z_(c, n) - u_(c, n);
  optim::solve_replica_subproblem_into(work_->replica(n), zero_mu_, masks_[n],
                                       prox, rho_, column_scratch_[n]);
  for (std::size_t c = 0; c < z_.rows(); ++c) x_(c, n) = column_scratch_[n][c];
}

void AdmmEngine::solve_replica_sparse(std::size_t n) {
  const auto positions = work_->sparsity()->col_positions(n);
  const std::span<const double> z_values = sparse_z_.values();
  const std::span<const double> u_values = sparse_u_.values();
  std::vector<double>& prox = prox_scratch_[n];
  for (std::size_t i = 0; i < positions.size(); ++i)
    prox[i] = z_values[positions[i]] - u_values[positions[i]];
  optim::solve_replica_subproblem_into(
      work_->replica(n),
      std::span<const double>(zero_mu_.data(), positions.size()), prox, rho_,
      column_scratch_[n]);
  const std::span<double> x_values = sparse_x_.values();
  for (std::size_t i = 0; i < positions.size(); ++i)
    x_values[positions[i]] = column_scratch_[n][i];
}

AdmmRoundStats AdmmEngine::round() {
  const std::size_t replicas = work_->num_replicas();
  AdmmRoundStats stats;
  stats.round = ++rounds_;
  rounds_metric_.add(1);

  {
    telemetry::ScopedSpan span(*tracer_, "admm.local_solves", "solver");
    // Per-replica x-update: each replica reads the shared Z/U and writes
    // only its own column of X.
    for (std::size_t n = 0; n < replicas; ++n) {
      if (sparse_)
        solve_replica_sparse(n);
      else
        solve_replica(n);
    }
  }

  telemetry::ScopedSpan consensus_span(*tracer_, "admm.consensus_update",
                                       "solver");
  double primal = 0.0;
  double dual = 0.0;
  if (sparse_) {
    sparse_z_prev_ = sparse_z_;  // copy-assign reuses the buffer
    const std::span<double> z_values = sparse_z_.values();
    const std::span<const double> x_values = sparse_x_.values();
    std::copy(x_values.begin(), x_values.end(), z_values.begin());
    accumulate(z_values, sparse_u_.values());
    optim::project_demand_set(*work_, sparse_z_);
    accumulate(sparse_u_.values(), x_values);
    axpy(sparse_u_.values(), -1.0, z_values);
    primal = sparse_x_.distance(sparse_z_);
    dual = rho_ * sparse_z_.distance(sparse_z_prev_);
  } else {
    z_prev_ = z_;
    z_ = x_;
    z_.axpy(1.0, u_);
    optim::project_demand_set(*work_, z_);
    u_.axpy(1.0, x_);
    u_.axpy(-1.0, z_);
    primal = x_.distance(z_);
    dual = rho_ * z_.distance(z_prev_);
  }
  stats.primal_residual = primal;
  stats.dual_residual = dual;

  // Residual balancing (Boyd §3.4.1): rescaling U keeps the unscaled dual
  // ρ·U invariant across the ρ change.
  if (options_.adapt_rho) {
    if (primal > options_.adapt_threshold * dual) {
      rho_ *= options_.adapt_factor;
      if (sparse_)
        sparse_u_.scale(1.0 / options_.adapt_factor);
      else
        u_.scale(1.0 / options_.adapt_factor);
    } else if (dual > options_.adapt_threshold * primal) {
      rho_ /= options_.adapt_factor;
      if (sparse_)
        sparse_u_.scale(options_.adapt_factor);
      else
        u_.scale(options_.adapt_factor);
    }
  }
  stats.rho = rho_;

  std::size_t round_messages = 2 * work_->num_clients() * replicas;
  if (sparse_) {
    // Client↔replica traffic exists only on feasible pairs: one compact
    // (row id, share) report and one consensus feedback per pair per round.
    const std::size_t nnz = work_->sparsity()->nnz();
    round_messages = 2 * nnz;
    stats.bytes_exchanged = 2 * nnz * (4 + 8);
  } else {
    stats.bytes_exchanged = replicas * bytes_per_replica_round() +
                            work_->num_clients() * bytes_per_client_round();
  }
  messages_exchanged_ += round_messages;
  bytes_exchanged_ += stats.bytes_exchanged;
  messages_metric_.add(round_messages);
  bytes_metric_.add(stats.bytes_exchanged);

  // Recovered solution (Z repaired to full feasibility) for the objective,
  // observability and the double buffer — same convention as the other
  // engines.
  if (sparse_) {
    solution_into_sparse(sparse_scratch_solution_);
    stats.objective = work_->total_cost(sparse_scratch_solution_);
  } else {
    solution_into(scratch_solution_);
    stats.objective = problem_->total_cost(scratch_solution_);
  }
  objective_metric_.set(stats.objective);
  primal_metric_.set(primal);
  dual_metric_.set(dual);
  rho_metric_.set(rho_);

  if (collect_stats_) {
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
        for (std::size_t c = 0; c < work_->num_clients(); ++c) {
          const double value = scratch_solution_(c, n);
          const double prev =
              last_solution_.empty() ? 0.0 : last_solution_(c, n);
          load += value;
          previous_load += prev;
          const double d = value - prev;
          sq += d * d;
        }
      }
      replica.local_objective = optim::replica_cost(work_->replica(n), load);
      replica.movement = std::sqrt(sq);
      replica.load = load;
      replica.load_delta = load - previous_load;
    }
  }

  // Residual-based stopping: both residuals small (relative to the demand
  // scale) for `patience` consecutive rounds.
  const double scale = std::max(problem_->total_demand(), 1.0);
  const bool stable = primal <= options_.tolerance * scale &&
                      dual <= options_.tolerance * scale;
  if (stable) {
    if (++stable_rounds_ >= options_.patience) converged_ = true;
  } else {
    stable_rounds_ = 0;
  }
  if (sparse_) {
    std::swap(sparse_last_solution_, sparse_scratch_solution_);
    sparse_has_last_ = true;
  } else {
    std::swap(last_solution_, scratch_solution_);
  }
  return stats;
}

optim::ConvergenceTrace AdmmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective,
                  std::max(stats.primal_residual, stats.dual_residual),
                  bytes_total});
  }
  return trace;
}

Matrix AdmmEngine::solution() const {
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

void AdmmEngine::solution_into(Matrix& out) const {
  // Z is demand-feasible by construction; Dykstra repairs the (vanishing)
  // capacity violation so the reported point is exactly feasible.
  out = z_;
  optim::project_feasible(*problem_, out);
}

void AdmmEngine::solution_into_sparse(common::SparseAllocation& out) const {
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  const std::span<const double> z_values = sparse_z_.values();
  std::copy(z_values.begin(), z_values.end(), out.values().begin());
  optim::project_feasible(*work_, out);
}

void AdmmEngine::attach_telemetry(telemetry::Telemetry& telemetry) {
  tracer_ = &telemetry.tracer();
  auto& metrics = telemetry.metrics();
  rounds_metric_ = metrics.counter("solver.admm.rounds");
  messages_metric_ = metrics.counter("solver.admm.messages");
  bytes_metric_ = metrics.counter("solver.admm.bytes");
  objective_metric_ = metrics.gauge("solver.admm.objective");
  primal_metric_ = metrics.gauge("solver.admm.primal_residual");
  dual_metric_ = metrics.gauge("solver.admm.dual_residual");
  rho_metric_ = metrics.gauge("solver.admm.rho");
}

std::size_t AdmmEngine::bytes_per_replica_round() const {
  if (sparse_) {
    // One (client id, share) pair per *feasible* client; per-replica
    // traffic varies with the column population, so report the mean.
    return work_->sparsity()->nnz() * (4 + 8) /
           std::max<std::size_t>(work_->num_replicas(), 1);
  }
  // One (client id, share) pair per client, shipped to that client.
  return problem_->num_clients() * (4 + 8);
}

std::size_t AdmmEngine::bytes_per_client_round() const {
  if (sparse_) {
    // Consensus feedback to each feasible replica; mean over clients.
    return work_->sparsity()->nnz() * (4 + 8) /
           std::max<std::size_t>(work_->num_clients(), 1);
  }
  // Consensus feedback to every replica.
  return problem_->num_replicas() * (4 + 8);
}

}  // namespace edr::core
