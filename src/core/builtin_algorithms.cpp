#include "core/builtin_algorithms.hpp"

#include <cstdint>

#include "core/scheduler.hpp"
#include "net/wire.hpp"
#include "optim/flow.hpp"

namespace edr::core {

// ---------- CDPSM ----------

namespace {
constexpr MessageTypeInfo kCdpsmTypes[] = {
    {kCdpsmEstimate, "cdpsm_estimate", /*round=*/true},
};
constexpr MessageTypeInfo kLddmTypes[] = {
    {kLddmLoadReport, "lddm_load_report", /*round=*/true},
    {kLddmMuUpdate, "lddm_mu_update", /*round=*/true},
};
constexpr MessageTypeInfo kAdmmTypes[] = {
    {kAdmmShare, "admm_share", /*round=*/true},
    {kAdmmFeedback, "admm_feedback", /*round=*/true},
};

/// True when the run carries a flight recorder or monitor — the only case
/// where per-replica stats collection is worth its extra copies.
bool observability_enabled(const EpochContext& ctx) {
  return ctx.telemetry != nullptr &&
         (ctx.telemetry->flight_recorder() != nullptr ||
          ctx.telemetry->monitor() != nullptr);
}

/// Reports replica column `col` sends per round, as plan_round schedules
/// them: one per client in dense storage, one per feasible entry of the
/// work problem (client or class) in compact storage.
std::size_t replica_reports(SolverRepresentation representation,
                            const optim::Problem& work, std::size_t col) {
  return representation == SolverRepresentation::kDense
             ? work.num_clients()
             : work.sparsity()->col_nnz(col);
}
}  // namespace

CdpsmAlgorithm::CdpsmAlgorithm(CdpsmOptions options)
    : options_(options) {}

std::span<const MessageTypeInfo> CdpsmAlgorithm::message_types() const {
  return kCdpsmTypes;
}

double CdpsmAlgorithm::compute_factor(const EpochContext& ctx) const {
  // CDPSM touches the full |C|x|N| estimate of every peer each round
  // (consensus + projection) — the "higher workload intensity" the paper
  // observes for CDPSM (§IV-B).
  return static_cast<double>(ctx.problem->num_replicas());
}

double CdpsmAlgorithm::coordination_bytes(double clients,
                                          double replicas) const {
  // Full matrices to every peer each round.
  return clients * replicas * 8.0 * (replicas - 1.0);
}

void CdpsmAlgorithm::begin_epoch(const EpochContext& ctx) {
  engine_ = std::make_unique<CdpsmEngine>(*ctx.problem, options_);
  if (ctx.telemetry) engine_->attach_telemetry(*ctx.telemetry);
  engine_->set_collect_replica_stats(observability_enabled(ctx));
  last_round_ = {};
}

void CdpsmAlgorithm::plan_round(const EpochContext& ctx,
                                std::vector<PlannedMessage>& out) const {
  out.clear();
  std::size_t bytes = net::wire_size_matrix(ctx.problem->num_clients(),
                                            ctx.problem->num_replicas());
  if (options_.representation != SolverRepresentation::kDense &&
      engine_ != nullptr) {
    // Compact frames: (position, value) pairs over the work problem's
    // feasible pattern instead of a dense |C|x|N| matrix per peer.
    bytes = net::wire_size_indexed_doubles(
        engine_->work_problem().sparsity()->nnz());
  }
  const auto& replicas = *ctx.active_replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    for (std::size_t j = 0; j < replicas.size(); ++j) {
      if (i == j) continue;
      out.push_back({Endpoint::kSolver, replicas[i], Endpoint::kSolver,
                     replicas[j], kCdpsmEstimate, bytes});
    }
  }
}

bool CdpsmAlgorithm::step_round(const EpochContext& ctx) {
  (void)ctx;
  last_round_ = engine_->round();
  return engine_->converged() ||
         engine_->rounds_executed() >= options_.max_rounds;
}

void CdpsmAlgorithm::observe(const EpochContext& ctx,
                             std::vector<telemetry::RoundSample>& out) {
  if (!engine_ || engine_->replica_stats().empty()) return;
  const auto& replicas = *ctx.active_replicas;
  const std::size_t bytes = engine_->bytes_per_replica_round();
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    const CdpsmReplicaStats& stats = engine_->replica_stats()[col];
    telemetry::RoundSample sample;
    sample.round = engine_->rounds_executed();
    sample.replica = static_cast<std::uint32_t>(replicas[col]);
    sample.objective = stats.local_objective;
    sample.round_objective = last_round_.objective;
    sample.gradient_norm = stats.gradient_norm;
    sample.disagreement = last_round_.disagreement;
    sample.projection_correction = stats.projection_correction;
    sample.capacity_slack =
        ctx.problem->replica(col).bandwidth - stats.load;
    sample.load = stats.load;
    sample.load_delta = stats.load_delta;
    sample.messages_sent = replicas.size() - 1;
    sample.bytes_sent = bytes;
    out.push_back(sample);
  }
}

Matrix CdpsmAlgorithm::extract_allocation(const EpochContext& ctx) {
  (void)ctx;
  Matrix allocation = engine_->solution();
  engine_.reset();
  return allocation;
}

void CdpsmAlgorithm::abort_epoch() { engine_.reset(); }

// ---------- LDDM ----------

LddmAlgorithm::LddmAlgorithm(LddmOptions options, bool warm_start)
    : options_(options), warm_start_(warm_start) {}

std::span<const MessageTypeInfo> LddmAlgorithm::message_types() const {
  return kLddmTypes;
}

void LddmAlgorithm::begin_epoch(const EpochContext& ctx) {
  engine_ = std::make_unique<LddmEngine>(*ctx.problem, options_);
  if (ctx.telemetry) engine_->attach_telemetry(*ctx.telemetry);
  engine_->set_collect_replica_stats(observability_enabled(ctx));
  last_round_ = {};
  const auto& active_clients = *ctx.active_clients;
  const auto& active_replicas = *ctx.active_replicas;
  // Warm start carries dense per-client multipliers and columns between
  // epochs; the compact representations index state differently (and the
  // aggregated client set changes with the batch), so they cold-start.
  if (warm_start_ &&
      options_.representation == SolverRepresentation::kDense &&
      !warm_mu_.empty()) {
    std::vector<double> mu(active_clients.size());
    for (std::size_t row = 0; row < active_clients.size(); ++row)
      mu[row] = warm_mu_[active_clients[row]];
    engine_->set_multipliers(mu);
    if (!warm_columns_.empty()) {
      // Scale the remembered loads to this epoch's demand level so the
      // primal seed is consistent with the new request batch.
      const double prev_total = warm_demand_total_;
      const double scale_factor =
          prev_total > 1e-9 ? ctx.problem->total_demand() / prev_total : 0.0;
      std::vector<double> column(active_clients.size());
      for (std::size_t col = 0; col < active_replicas.size(); ++col) {
        for (std::size_t row = 0; row < active_clients.size(); ++row)
          column[row] = warm_columns_(active_clients[row],
                                      active_replicas[col]) *
                        scale_factor;
        engine_->set_column_state(col, column);
      }
    }
  }
}

void LddmAlgorithm::plan_round(const EpochContext& ctx,
                               std::vector<PlannedMessage>& out) const {
  out.clear();
  // Replica -> client load reports, client -> replica mu updates; the
  // interleaving matches the per-pair exchange of the live protocol.
  const auto& replicas = *ctx.active_replicas;
  const auto& clients = *ctx.active_clients;
  if (options_.representation != SolverRepresentation::kDense &&
      engine_ != nullptr) {
    // Compact round: traffic exists only on the work problem's feasible
    // pairs.  Under aggregation each class exchanges through its
    // representative client's endpoint.
    const optim::Problem& work = engine_->work_problem();
    const ClientAggregation* agg = engine_->aggregation();
    const common::SparsityPattern& pattern = *work.sparsity();
    for (std::size_t col = 0; col < replicas.size(); ++col) {
      for (const std::uint32_t r : pattern.col_rows(col)) {
        const std::size_t row = agg != nullptr ? agg->representative[r] : r;
        out.push_back({Endpoint::kSolver, replicas[col], Endpoint::kClient,
                       clients[row], kLddmLoadReport, 12});
        out.push_back({Endpoint::kClient, clients[row], Endpoint::kSolver,
                       replicas[col], kLddmMuUpdate, 12});
      }
    }
    return;
  }
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    for (std::size_t row = 0; row < clients.size(); ++row) {
      out.push_back({Endpoint::kSolver, replicas[col], Endpoint::kClient,
                     clients[row], kLddmLoadReport, 12});
      out.push_back({Endpoint::kClient, clients[row], Endpoint::kSolver,
                     replicas[col], kLddmMuUpdate, 12});
    }
  }
}

bool LddmAlgorithm::step_round(const EpochContext& ctx) {
  (void)ctx;
  last_round_ = engine_->round();
  return engine_->converged() ||
         engine_->rounds_executed() >= options_.max_rounds;
}

void LddmAlgorithm::observe(const EpochContext& ctx,
                            std::vector<telemetry::RoundSample>& out) {
  if (!engine_ || engine_->replica_stats().empty()) return;
  const auto& replicas = *ctx.active_replicas;
  const std::size_t bytes = engine_->bytes_per_replica_round();
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    const LddmReplicaStats& stats = engine_->replica_stats()[col];
    telemetry::RoundSample sample;
    sample.round = engine_->rounds_executed();
    sample.replica = static_cast<std::uint32_t>(replicas[col]);
    sample.objective = stats.local_objective;
    sample.round_objective = last_round_.objective;
    // LDDM has no per-replica subgradient; the column movement is the
    // closest progress signal, and the global demand residual plays the
    // role disagreement plays for CDPSM.
    sample.gradient_norm = stats.movement;
    sample.disagreement = last_round_.demand_residual;
    sample.projection_correction = 0.0;
    sample.capacity_slack =
        ctx.problem->replica(col).bandwidth - stats.load;
    sample.load = stats.load;
    sample.load_delta = stats.load_delta;
    sample.messages_sent =
        replica_reports(options_.representation, engine_->work_problem(), col);
    sample.bytes_sent = bytes;
    out.push_back(sample);
  }
}

Matrix LddmAlgorithm::extract_allocation(const EpochContext& ctx) {
  Matrix allocation = engine_->solution();
  if (warm_start_ &&
      options_.representation == SolverRepresentation::kDense) {
    const auto& active_clients = *ctx.active_clients;
    const auto& active_replicas = *ctx.active_replicas;
    if (warm_mu_.empty()) {
      // Seed unseen clients with the engine's own neutral start so a
      // client's first appearance is not biased by another's dual.
      double mean_mu = 0.0;
      for (const double m : engine_->multipliers()) mean_mu += m;
      mean_mu /= static_cast<double>(engine_->multipliers().size());
      warm_mu_.assign(ctx.num_clients, mean_mu);
    }
    for (std::size_t row = 0; row < active_clients.size(); ++row)
      warm_mu_[active_clients[row]] = engine_->multipliers()[row];
    if (warm_columns_.empty())
      warm_columns_ = Matrix(ctx.num_clients, ctx.num_replicas, 0.0);
    for (std::size_t col = 0; col < active_replicas.size(); ++col)
      for (std::size_t row = 0; row < active_clients.size(); ++row)
        warm_columns_(active_clients[row], active_replicas[col]) =
            engine_->column(col)[row];
    warm_demand_total_ = ctx.problem->total_demand();
  }
  engine_.reset();
  return allocation;
}

void LddmAlgorithm::abort_epoch() { engine_.reset(); }

// ---------- ADMM ----------

AdmmAlgorithm::AdmmAlgorithm(AdmmOptions options, bool warm_start)
    : options_(options), warm_start_(warm_start) {}

std::span<const MessageTypeInfo> AdmmAlgorithm::message_types() const {
  return kAdmmTypes;
}

void AdmmAlgorithm::begin_epoch(const EpochContext& ctx) {
  AdmmOptions options = options_;
  // The adapted penalty is part of the warm state: re-balancing ρ from
  // scratch costs the first few rounds of every epoch.
  const bool warm = warm_start_ &&
                    options_.representation == SolverRepresentation::kDense &&
                    !warm_z_.empty();
  if (warm && warm_rho_ > 0.0) options.rho = warm_rho_;
  engine_ = std::make_unique<AdmmEngine>(*ctx.problem, options);
  if (ctx.telemetry) engine_->attach_telemetry(*ctx.telemetry);
  engine_->set_collect_replica_stats(observability_enabled(ctx));
  last_round_ = {};
  if (!warm) return;
  // Gather the carried consensus/dual state for this epoch's active sets,
  // scaling the primal to the new demand level (the scaled duals U live in
  // primal units, so they scale the same way).
  const auto& active_clients = *ctx.active_clients;
  const auto& active_replicas = *ctx.active_replicas;
  const double prev_total = warm_demand_total_;
  const double scale_factor =
      prev_total > 1e-9 ? ctx.problem->total_demand() / prev_total : 0.0;
  Matrix z(active_clients.size(), active_replicas.size(), 0.0);
  Matrix u(active_clients.size(), active_replicas.size(), 0.0);
  for (std::size_t row = 0; row < active_clients.size(); ++row)
    for (std::size_t col = 0; col < active_replicas.size(); ++col) {
      z(row, col) = warm_z_(active_clients[row], active_replicas[col]) *
                    scale_factor;
      u(row, col) = warm_u_(active_clients[row], active_replicas[col]) *
                    scale_factor;
    }
  engine_->set_state(z, u);
}

void AdmmAlgorithm::plan_round(const EpochContext& ctx,
                               std::vector<PlannedMessage>& out) const {
  out.clear();
  // Replica -> client share reports, client -> replica consensus feedback —
  // the same client↔replica-only round shape as LDDM (no replica↔replica
  // traffic).
  const auto& replicas = *ctx.active_replicas;
  const auto& clients = *ctx.active_clients;
  if (options_.representation != SolverRepresentation::kDense &&
      engine_ != nullptr) {
    // Compact round: traffic exists only on the work problem's feasible
    // pairs.  Under aggregation each class exchanges through its
    // representative client's endpoint.
    const optim::Problem& work = engine_->work_problem();
    const ClientAggregation* agg = engine_->aggregation();
    const common::SparsityPattern& pattern = *work.sparsity();
    for (std::size_t col = 0; col < replicas.size(); ++col) {
      for (const std::uint32_t r : pattern.col_rows(col)) {
        const std::size_t row = agg != nullptr ? agg->representative[r] : r;
        out.push_back({Endpoint::kSolver, replicas[col], Endpoint::kClient,
                       clients[row], kAdmmShare, 12});
        out.push_back({Endpoint::kClient, clients[row], Endpoint::kSolver,
                       replicas[col], kAdmmFeedback, 12});
      }
    }
    return;
  }
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    for (std::size_t row = 0; row < clients.size(); ++row) {
      out.push_back({Endpoint::kSolver, replicas[col], Endpoint::kClient,
                     clients[row], kAdmmShare, 12});
      out.push_back({Endpoint::kClient, clients[row], Endpoint::kSolver,
                     replicas[col], kAdmmFeedback, 12});
    }
  }
}

bool AdmmAlgorithm::step_round(const EpochContext& ctx) {
  (void)ctx;
  last_round_ = engine_->round();
  return engine_->converged() ||
         engine_->rounds_executed() >= options_.max_rounds;
}

void AdmmAlgorithm::observe(const EpochContext& ctx,
                            std::vector<telemetry::RoundSample>& out) {
  if (!engine_ || engine_->replica_stats().empty()) return;
  const auto& replicas = *ctx.active_replicas;
  const std::size_t bytes = engine_->bytes_per_replica_round();
  for (std::size_t col = 0; col < replicas.size(); ++col) {
    const AdmmReplicaStats& stats = engine_->replica_stats()[col];
    telemetry::RoundSample sample;
    sample.round = engine_->rounds_executed();
    sample.replica = static_cast<std::uint32_t>(replicas[col]);
    sample.objective = stats.local_objective;
    sample.round_objective = last_round_.objective;
    // The dual residual is ADMM's progress signal; the primal residual
    // plays the role disagreement plays for CDPSM (distance between the
    // replica-owned X and the consensus Z).
    sample.gradient_norm = last_round_.dual_residual;
    sample.disagreement = last_round_.primal_residual;
    sample.projection_correction = 0.0;
    sample.capacity_slack =
        ctx.problem->replica(col).bandwidth - stats.load;
    sample.load = stats.load;
    sample.load_delta = stats.load_delta;
    sample.messages_sent =
        replica_reports(options_.representation, engine_->work_problem(), col);
    sample.bytes_sent = bytes;
    out.push_back(sample);
  }
}

Matrix AdmmAlgorithm::extract_allocation(const EpochContext& ctx) {
  Matrix allocation = engine_->solution();
  if (warm_start_ &&
      options_.representation == SolverRepresentation::kDense) {
    const auto& active_clients = *ctx.active_clients;
    const auto& active_replicas = *ctx.active_replicas;
    if (warm_z_.empty()) {
      warm_z_ = Matrix(ctx.num_clients, ctx.num_replicas, 0.0);
      warm_u_ = Matrix(ctx.num_clients, ctx.num_replicas, 0.0);
    }
    const Matrix& z = engine_->consensus();
    const Matrix& u = engine_->duals();
    for (std::size_t row = 0; row < active_clients.size(); ++row)
      for (std::size_t col = 0; col < active_replicas.size(); ++col) {
        warm_z_(active_clients[row], active_replicas[col]) = z(row, col);
        warm_u_(active_clients[row], active_replicas[col]) = u(row, col);
      }
    warm_rho_ = engine_->rho();
    warm_demand_total_ = ctx.problem->total_demand();
  }
  engine_.reset();
  return allocation;
}

void AdmmAlgorithm::abort_epoch() { engine_.reset(); }

// ---------- Round-Robin ----------

/// The paper's Round-Robin baseline at request granularity: each request
/// is served whole by the next latency-feasible replica in rotation (no
/// fractional splitting).  The resulting load imbalance is what the
/// degree-γ network term punishes in Fig 8(b).
std::optional<Matrix> RoundRobinAlgorithm::solve_oneshot(
    const EpochContext& ctx) {
  const optim::Problem& problem = *ctx.problem;
  const auto& active_clients = *ctx.active_clients;
  Matrix allocation(problem.num_clients(), problem.num_replicas(), 0.0);
  std::vector<double> remaining(problem.num_replicas());
  for (std::size_t col = 0; col < problem.num_replicas(); ++col)
    remaining[col] = problem.replica(col).bandwidth;
  // Row index of each active client.
  std::vector<std::size_t> row_of(ctx.num_clients, SIZE_MAX);
  for (std::size_t row = 0; row < active_clients.size(); ++row)
    row_of[active_clients[row]] = row;

  // Demand may have been shed by admission control; scale request sizes
  // to the problem's (possibly reduced) demands.
  std::vector<double> raw_demand(active_clients.size(), 0.0);
  for (const auto& request : *ctx.requests)
    if (row_of[request.client] != SIZE_MAX)
      raw_demand[row_of[request.client]] += request.size_mb;

  for (const auto& request : *ctx.requests) {
    const std::size_t row = row_of[request.client];
    if (row == SIZE_MAX) continue;
    const double scale = raw_demand[row] > 1e-12
                             ? problem.demand(row) / raw_demand[row]
                             : 0.0;
    double size = request.size_mb * scale;
    // Whole-request placement on the next feasible replica with room;
    // waterfall-split only if nothing can take it whole.
    bool placed = false;
    for (std::size_t probe = 0; probe < problem.num_replicas(); ++probe) {
      const std::size_t col = (cursor_ + probe) % problem.num_replicas();
      if (!problem.feasible_pair(row, col)) continue;
      if (remaining[col] + 1e-9 < size) continue;
      allocation(row, col) += size;
      remaining[col] -= size;
      cursor_ = (col + 1) % problem.num_replicas();
      placed = true;
      break;
    }
    if (!placed) {
      for (std::size_t probe = 0;
           probe < problem.num_replicas() && size > 1e-12; ++probe) {
        const std::size_t col = (cursor_ + probe) % problem.num_replicas();
        if (!problem.feasible_pair(row, col)) continue;
        const double chunk = std::min(size, remaining[col]);
        allocation(row, col) += chunk;
        remaining[col] -= chunk;
        size -= chunk;
      }
      cursor_ = (cursor_ + 1) % problem.num_replicas();
    }
  }
  if (observability_enabled(ctx)) {
    pending_samples_.clear();
    double total = 0.0;
    for (std::size_t col = 0; col < problem.num_replicas(); ++col) {
      const double load = allocation.col_sum(col);
      telemetry::RoundSample sample;
      sample.round = 1;
      sample.replica =
          static_cast<std::uint32_t>((*ctx.active_replicas)[col]);
      sample.objective = optim::replica_cost(problem.replica(col), load);
      sample.capacity_slack = remaining[col];
      sample.load = load;
      sample.load_delta = load;
      total += sample.objective;
      pending_samples_.push_back(sample);
    }
    for (auto& sample : pending_samples_) sample.round_objective = total;
  }
  return allocation;
}

void RoundRobinAlgorithm::observe(const EpochContext& ctx,
                                  std::vector<telemetry::RoundSample>& out) {
  (void)ctx;
  for (const auto& sample : pending_samples_) out.push_back(sample);
  pending_samples_.clear();
}

// ---------- Centralized ----------

double CentralizedAlgorithm::compute_factor(const EpochContext& ctx) const {
  (void)ctx;
  return 20.0;  // interior iterations, one box
}

void CentralizedAlgorithm::begin_epoch(const EpochContext& ctx) {
  // Coordinator = lowest-id alive replica.
  coordinator_ = ctx.active_replicas->front();
}

void CentralizedAlgorithm::plan_prologue(
    const EpochContext& ctx, std::vector<PlannedMessage>& out) const {
  out.clear();
  for (const std::uint32_t c : *ctx.active_clients)
    out.push_back({Endpoint::kClient, c, Endpoint::kSolver, coordinator_,
                   kClientRequest, 16});
}

std::optional<Matrix> CentralizedAlgorithm::solve_oneshot(
    const EpochContext& ctx) {
  // The single point of failure the paper warns about: if the coordinator
  // died mid-solve, the epoch stalls until the ring detects the crash and
  // the restart elects the next survivor.
  if (!(*ctx.replica_alive)[coordinator_]) return std::nullopt;
  auto solved = optim::solve_exact(*ctx.problem);
  Matrix allocation = solved ? std::move(solved->allocation)
                             : round_robin_allocation(*ctx.problem);
  if (observability_enabled(ctx)) {
    pending_samples_.clear();
    const optim::Problem& problem = *ctx.problem;
    double total = 0.0;
    for (std::size_t col = 0; col < problem.num_replicas(); ++col) {
      const double load = allocation.col_sum(col);
      telemetry::RoundSample sample;
      sample.round = 1;
      sample.replica =
          static_cast<std::uint32_t>((*ctx.active_replicas)[col]);
      sample.objective = optim::replica_cost(problem.replica(col), load);
      sample.capacity_slack = problem.replica(col).bandwidth - load;
      sample.load = load;
      sample.load_delta = load;
      total += sample.objective;
      pending_samples_.push_back(sample);
    }
    for (auto& sample : pending_samples_) sample.round_objective = total;
  }
  return allocation;
}

void CentralizedAlgorithm::observe(const EpochContext& ctx,
                                   std::vector<telemetry::RoundSample>& out) {
  (void)ctx;
  for (const auto& sample : pending_samples_) out.push_back(sample);
  pending_samples_.clear();
}

}  // namespace edr::core
