#include "core/cdpsm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/wire.hpp"
#include "optim/flow.hpp"
#include "optim/projection.hpp"

namespace edr::core {
namespace {

/// Project one column onto {q ≥ 0, Σq ≤ B_n}, leaving other columns alone.
/// Thread-local scratch: runs up to 200 times per projection in every
/// replica's step, so it must not allocate.
void project_column_capacity(const optim::Problem& problem, std::size_t n,
                             Matrix& allocation, common::simd::Mode simd) {
  thread_local std::vector<double> column;
  column.resize(problem.num_clients());
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    column[c] = allocation(c, n);
  optim::project_capped_nonneg(column, problem.replica(n).bandwidth, simd);
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    allocation(c, n) = column[c];
}

/// Compact counterpart: project column n of a sparse allocation through the
/// pattern's column view.
void project_column_capacity(const optim::Problem& problem, std::size_t n,
                             common::SparseAllocation& allocation,
                             common::simd::Mode simd) {
  thread_local std::vector<double> column;
  const auto positions = allocation.pattern().col_positions(n);
  const std::span<double> values = allocation.values();
  column.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    column[i] = values[positions[i]];
  optim::project_capped_nonneg(column, problem.replica(n).bandwidth, simd);
  for (std::size_t i = 0; i < positions.size(); ++i)
    values[positions[i]] = column[i];
}

}  // namespace

CdpsmEngine::CdpsmEngine(const optim::Problem& problem, CdpsmOptions options)
    : problem_(&problem), options_(options) {
  const std::string issue = problem.validate();
  if (!issue.empty())
    throw std::invalid_argument("CdpsmEngine: invalid problem: " + issue);
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
    throw std::runtime_error("CdpsmEngine: instance is not feasible");
  step_ = options_.step > 0.0
              ? options_.step
              : 1.0 / std::max(work_->gradient_lipschitz_bound(), 1e-9);
  if (sparse_) {
    common::SparseAllocation seed(work_->sparsity());
    seed.from_dense(*start);
    sparse_estimates_.assign(work_->num_replicas(), seed);
  } else {
    estimates_.assign(problem.num_replicas(), *start);
  }
}

void CdpsmEngine::project_local(std::size_t n, Matrix& estimate) const {
  // Dykstra between the shared demand set and this replica's capacity
  // column — the projection onto X_n.  Thread-local scratch: this runs once
  // per replica per round and must not re-allocate four |C|×|N| matrices
  // each time.
  thread_local Matrix corr_demand;
  thread_local Matrix corr_capacity;
  thread_local Matrix previous;
  thread_local Matrix before;
  corr_demand.reshape(estimate.rows(), estimate.cols(), 0.0);
  corr_capacity.reshape(estimate.rows(), estimate.cols(), 0.0);
  previous = estimate;
  for (std::size_t iter = 0; iter < 200; ++iter) {
    estimate.axpy(1.0, corr_demand, options_.simd);
    before = estimate;
    optim::project_demand_set(*problem_, estimate, options_.simd);
    corr_demand = before;
    corr_demand.axpy(-1.0, estimate, options_.simd);

    estimate.axpy(1.0, corr_capacity, options_.simd);
    before = estimate;
    project_column_capacity(*problem_, n, estimate, options_.simd);
    corr_capacity = before;
    corr_capacity.axpy(-1.0, estimate, options_.simd);

    const double change = estimate.distance(previous, options_.simd);
    previous = estimate;
    if (change <= 1e-11) break;
  }
  // End on the demand set so row sums are exact.
  optim::project_demand_set(*problem_, estimate, options_.simd);
}

Matrix CdpsmEngine::step_replica(std::size_t n,
                                 std::span<const Matrix> peer_estimates,
                                 CdpsmReplicaStats* stats) const {
  if (sparse_)
    throw std::logic_error(
        "CdpsmEngine::step_replica: dense representation only");
  Matrix consensus;
  step_replica_into(n, peer_estimates, consensus, stats);
  return consensus;
}

void CdpsmEngine::project_local_sparse(
    std::size_t n, common::SparseAllocation& estimate) const {
  // Same Dykstra scheme as project_local, with flat per-feasible-pair
  // correction vectors instead of |C|×|N| matrices.
  thread_local std::vector<double> corr_demand;
  thread_local std::vector<double> corr_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> before;
  const std::span<double> values = estimate.values();
  corr_demand.assign(values.size(), 0.0);
  corr_capacity.assign(values.size(), 0.0);
  previous.assign(values.begin(), values.end());
  before.resize(values.size());
  for (std::size_t iter = 0; iter < 200; ++iter) {
    common::simd::axpy(options_.simd, values, 1.0, corr_demand);
    std::copy(values.begin(), values.end(), before.begin());
    optim::project_demand_set(*work_, estimate, options_.simd);
    corr_demand.assign(before.begin(), before.end());
    common::simd::axpy(options_.simd, corr_demand, -1.0, values);

    common::simd::axpy(options_.simd, values, 1.0, corr_capacity);
    std::copy(values.begin(), values.end(), before.begin());
    project_column_capacity(*work_, n, estimate, options_.simd);
    corr_capacity.assign(before.begin(), before.end());
    common::simd::axpy(options_.simd, corr_capacity, -1.0, values);

    const double change = common::simd::distance(options_.simd, values,
                                                 previous);
    previous.assign(values.begin(), values.end());
    if (change <= 1e-11) break;
  }
  // End on the demand set so row sums are exact.
  optim::project_demand_set(*work_, estimate, options_.simd);
}

void CdpsmEngine::step_replica_into_sparse(
    std::size_t n, std::span<const common::SparseAllocation> peer_estimates,
    common::SparseAllocation& out, CdpsmReplicaStats* stats) const {
  if (peer_estimates.size() != sparse_estimates_.size())
    throw std::invalid_argument(
        "CdpsmEngine::step_replica: need one estimate per replica");

  const double weight = 1.0 / static_cast<double>(peer_estimates.size());
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  out.fill(0.0);
  for (const common::SparseAllocation& peer : peer_estimates)
    out.axpy(weight, peer, options_.simd);

  // Gradient of the local objective E_n on the feasible entries of column n
  // only — the dense path also steps the latency-masked entries (the
  // projection re-zeroes them), so the iterates agree at tolerance level,
  // not bitwise.
  const double load = out.col_sum(n);
  const double derivative =
      optim::replica_cost_derivative(work_->replica(n), load);
  const double step =
      options_.diminishing_step
          ? step_ / std::sqrt(static_cast<double>(rounds_ + 1))
          : step_;
  const std::span<double> values = out.values();
  for (const std::uint32_t p : out.pattern().col_positions(n))
    values[p] -= step * derivative;

  if (stats != nullptr) {
    stats->local_objective = optim::replica_cost(work_->replica(n), load);
    stats->gradient_norm =
        std::abs(derivative) *
        std::sqrt(static_cast<double>(work_->num_clients()));
    thread_local std::vector<double> pre_projection;
    pre_projection.assign(values.begin(), values.end());
    project_local_sparse(n, out);
    stats->projection_correction =
        common::simd::distance(options_.simd, values, pre_projection);
    stats->load = out.col_sum(n);
    return;
  }
  project_local_sparse(n, out);
}

void CdpsmEngine::step_replica_into(std::size_t n,
                                    std::span<const Matrix> peer_estimates,
                                    Matrix& out,
                                    CdpsmReplicaStats* stats) const {
  if (peer_estimates.size() != estimates_.size())
    throw std::invalid_argument(
        "CdpsmEngine::step_replica: need one estimate per replica");

  // Consensus with uniform weights a_j = 1/|N| (doubly stochastic on the
  // complete exchange graph the paper uses).
  const double weight = 1.0 / static_cast<double>(peer_estimates.size());
  out.reshape(problem_->num_clients(), problem_->num_replicas(), 0.0);
  for (const Matrix& peer : peer_estimates)
    out.axpy(weight, peer, options_.simd);

  // Gradient of the *local* objective E_n: only column n is non-zero.
  const double load = out.col_sum(n);
  const double derivative =
      optim::replica_cost_derivative(problem_->replica(n), load);
  const double step =
      options_.diminishing_step
          ? step_ / std::sqrt(static_cast<double>(rounds_ + 1))
          : step_;
  for (std::size_t c = 0; c < problem_->num_clients(); ++c)
    out(c, n) -= step * derivative;

  if (stats != nullptr) {
    stats->local_objective = optim::replica_cost(problem_->replica(n), load);
    stats->gradient_norm =
        std::abs(derivative) *
        std::sqrt(static_cast<double>(problem_->num_clients()));
    const Matrix pre_projection = out;
    project_local(n, out);
    stats->projection_correction = out.distance(pre_projection, options_.simd);
    stats->load = out.col_sum(n);
    return;
  }
  project_local(n, out);
}

CdpsmRoundStats CdpsmEngine::round() {
  const std::size_t replicas = estimate_count();
  CdpsmRoundStats stats;
  stats.round = ++rounds_;
  rounds_metric_.add(1);

  if (collect_stats_) replica_stats_.assign(replicas, {});
  {
    telemetry::ScopedSpan span(*tracer_, "cdpsm.consensus_gradient",
                               "solver");
    // Per-replica consensus+gradient+projection, Jacobi style: every
    // replica steps against the previous round's snapshot of all estimates
    // and writes only its own.
    if (sparse_) {
      sparse_previous_ = sparse_estimates_;  // copy-assign reuses scratch
      for (std::size_t n = 0; n < replicas; ++n) {
        step_replica_into_sparse(n, sparse_previous_, sparse_estimates_[n],
                                 collect_stats_ ? &replica_stats_[n]
                                                : nullptr);
        if (collect_stats_)
          replica_stats_[n].load_delta =
              replica_stats_[n].load - sparse_previous_[n].col_sum(n);
      }
    } else {
      previous_estimates_ = estimates_;
      for (std::size_t n = 0; n < replicas; ++n) {
        step_replica_into(n, previous_estimates_, estimates_[n],
                          collect_stats_ ? &replica_stats_[n] : nullptr);
        if (collect_stats_)
          replica_stats_[n].load_delta =
              replica_stats_[n].load - previous_estimates_[n].col_sum(n);
      }
    }
  }

  for (std::size_t n = 0; n < replicas; ++n) {
    stats.movement = std::max(
        stats.movement,
        sparse_
            ? sparse_estimates_[n].distance(sparse_previous_[n], options_.simd)
            : estimates_[n].distance(previous_estimates_[n], options_.simd));
    for (std::size_t m = n + 1; m < replicas; ++m)
      stats.disagreement = std::max(
          stats.disagreement,
          sparse_ ? sparse_estimates_[n].distance(sparse_estimates_[m],
                                                  options_.simd)
                  : estimates_[n].distance(estimates_[m], options_.simd));
  }
  stats.bytes_exchanged = bytes_per_replica_round() * replicas;
  messages_exchanged_ += replicas * (replicas - 1);
  bytes_exchanged_ += stats.bytes_exchanged;
  messages_metric_.add(replicas * (replicas - 1));
  bytes_metric_.add(stats.bytes_exchanged);

  telemetry::ScopedSpan recover_span(*tracer_, "cdpsm.recover", "solver");
  const double scale = std::max(problem_->total_demand(), 1.0);
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
  disagreement_metric_.set(stats.disagreement);
  movement_metric_.set(stats.movement);
  const bool stable =
      sparse_ ? (sparse_has_last_ &&
                 sparse_scratch_solution_.distance(
                     sparse_last_solution_, options_.simd) <=
                     options_.tolerance * scale)
              : (!last_solution_.empty() &&
                 scratch_solution_.distance(last_solution_, options_.simd) <=
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

optim::ConvergenceTrace CdpsmEngine::run() {
  optim::ConvergenceTrace trace;
  double bytes_total = 0.0;
  while (!converged_ && rounds_ < options_.max_rounds) {
    const auto stats = round();
    bytes_total += static_cast<double>(stats.bytes_exchanged);
    trace.record({stats.round, stats.objective,
                  std::max(stats.disagreement, stats.movement), bytes_total});
  }
  return trace;
}

Matrix CdpsmEngine::solution() const {
  Matrix mean;
  if (sparse_) {
    solution_into_sparse(sparse_solution_tmp_);
    if (aggregation_ != nullptr) {
      thread_local Matrix aggregated_dense;
      sparse_solution_tmp_.to_dense(aggregated_dense);
      expand_allocation(*aggregation_, aggregated_dense, mean);
    } else {
      sparse_solution_tmp_.to_dense(mean);
    }
    return mean;
  }
  solution_into(mean);
  return mean;
}

void CdpsmEngine::solution_into(Matrix& out) const {
  const double weight = 1.0 / static_cast<double>(estimates_.size());
  out.reshape(problem_->num_clients(), problem_->num_replicas(), 0.0);
  for (const Matrix& estimate : estimates_)
    out.axpy(weight, estimate, options_.simd);
  optim::project_feasible(*problem_, out);
}

void CdpsmEngine::solution_into_sparse(common::SparseAllocation& out) const {
  if (out.empty()) out = common::SparseAllocation(work_->sparsity());
  const double weight = 1.0 / static_cast<double>(sparse_estimates_.size());
  out.fill(0.0);
  for (const common::SparseAllocation& estimate : sparse_estimates_)
    out.axpy(weight, estimate, options_.simd);
  optim::project_feasible(*work_, out);
}

void CdpsmEngine::attach_telemetry(telemetry::Telemetry& telemetry) {
  tracer_ = &telemetry.tracer();
  auto& metrics = telemetry.metrics();
  rounds_metric_ = metrics.counter("solver.cdpsm.rounds");
  messages_metric_ = metrics.counter("solver.cdpsm.messages");
  bytes_metric_ = metrics.counter("solver.cdpsm.bytes");
  objective_metric_ = metrics.gauge("solver.cdpsm.objective");
  disagreement_metric_ = metrics.gauge("solver.cdpsm.disagreement");
  movement_metric_ = metrics.gauge("solver.cdpsm.movement");
}

std::size_t CdpsmEngine::bytes_per_replica_round() const {
  if (sparse_) {
    // Compact frames: one (position, value) pair per feasible pair of the
    // work problem, to every peer.  Aggregation shrinks this further — the
    // aggregated pattern has one row per equivalence class.
    return net::wire_size_indexed_doubles(work_->sparsity()->nnz()) *
           (sparse_estimates_.size() - 1);
  }
  // Each replica ships its full |C|x|N| estimate to every other replica —
  // the O(|C|·|N|³) total the paper charges CDPSM with.
  return net::wire_size_matrix(problem_->num_clients(),
                               problem_->num_replicas()) *
         (estimates_.size() - 1);
}

}  // namespace edr::core
