// ADMM — consensus alternating direction method of multipliers (scaled
// form) for the replica-selection problem.
//
// The feasible set factors exactly like the projection machinery sees it:
//   A = per-client masked demand simplices (shared across replicas),
//   B_n = replica n's own capacity set {q ≥ 0, Σq ≤ B_n}.
// ADMM splits the objective across the replicas with a consensus copy Z:
//
//   minimize  Σ_n E_n(Σ_c x_{c,n})   s.t.  X = Z,  x_n ∈ B_n,  Z ∈ A.
//
// One round of the scaled form (penalty ρ, scaled duals U):
//   1. x-update (per replica, parallel): each replica solves its local
//      prox subproblem
//        x_n ← argmin_{q ∈ B_n} E_n(Σq) + (ρ/2)‖q − (z_n − u_n)‖²
//      — exactly the LDDM replica subproblem with zero multipliers
//      (optim::solve_replica_subproblem_into), so the existing subproblem
//      kernel is reused unchanged;
//   2. z-update: Z ← Proj_A(X + U), one masked-simplex projection per
//      client row (optim::project_demand_set);
//   3. dual update: U ← U + X − Z.
//
// Because the x-update carries the *exact* local energy model (not a
// linearization) and the z-update restores demand feasibility every round,
// the recovered iterate is near-feasible and near-optimal after tens of
// rounds — versus hundreds for a subgradient scheme — at LDDM-class
// client↔replica traffic (no replica↔replica exchange).
//
// Residual-based ρ adaptation (Boyd et al. §3.4.1): when the primal
// residual ‖X − Z‖ outweighs the dual residual ρ‖Z − Z_prev‖ by more than
// adapt_threshold, ρ is multiplied by adapt_factor (and U rescaled to keep
// ρ·U invariant), and symmetrically.  Stopping is residual-based too: both
// residuals below tolerance × demand scale for `patience` consecutive
// rounds.
//
// The engine mirrors CdpsmEngine/LddmEngine: same representation knobs
// (dense golden path, sparse, aggregated), same serial round with a
// Jacobi snapshot, same telemetry and observability surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "core/aggregation.hpp"
#include "core/representation.hpp"
#include "optim/convergence.hpp"
#include "optim/problem.hpp"
#include "telemetry/telemetry.hpp"

namespace edr::core {

struct AdmmOptions {
  /// Initial penalty ρ (must be > 0).  With adaptation on, the starting
  /// value mostly sets how fast the first few rounds move; 1.0 is robust
  /// across the paper's setups.
  double rho = 1.0;
  /// Residual-balancing ρ adaptation (keeps primal and dual progress in
  /// lockstep; the main reason ADMM needs no per-instance step tuning).
  bool adapt_rho = true;
  /// Multiplier applied to ρ on each adaptation (τ in Boyd §3.4.1).
  double adapt_factor = 2.0;
  /// Trigger ratio between the residuals (μ in Boyd §3.4.1): adapt when one
  /// residual exceeds the other by this factor.
  double adapt_threshold = 10.0;
  std::size_t max_rounds = 2000;
  /// Converged when primal residual ‖X − Z‖ and dual residual ρ‖ΔZ‖ both
  /// stay below tolerance × demand scale for `patience` consecutive rounds.
  double tolerance = 1e-5;
  std::size_t patience = 3;
  /// Iterate storage (see core/representation.hpp).  kDense is the golden
  /// path; kSparse/kAggregated keep X, Z, U on the feasible pairs only and
  /// run the maskless subproblem on the compact columns.
  SolverRepresentation representation = SolverRepresentation::kDense;
};

struct AdmmRoundStats {
  std::size_t round = 0;
  double objective = 0.0;        ///< cost of the repaired consensus iterate
  double primal_residual = 0.0;  ///< ‖X − Z‖_F
  double dual_residual = 0.0;    ///< ρ‖Z − Z_prev‖_F
  double rho = 0.0;              ///< penalty in effect after this round
  std::size_t bytes_exchanged = 0;
};

/// Per-replica view of one round, collected only when enabled — feeds the
/// flight recorder.  Measured on the repaired consensus iterate, which is
/// the solution a deployment would act on.
struct AdmmReplicaStats {
  double local_objective = 0.0;  ///< E_n at this round's recovered load
  double movement = 0.0;         ///< ‖Δ recovered column‖₂ this round
  double load = 0.0;             ///< recovered Σ_c p_{c,n}
  double load_delta = 0.0;  ///< recovered load change vs the previous round
};

class AdmmEngine {
 public:
  AdmmEngine(const optim::Problem& problem, AdmmOptions options = {});

  /// One full round (x-update, z-update, dual update, ρ adaptation).
  AdmmRoundStats round();

  /// Run until convergence or the round limit; returns the trace (residual
  /// = max(primal, dual), matching the other engines' stationarity column).
  optim::ConvergenceTrace run();

  [[nodiscard]] bool converged() const { return converged_; }
  [[nodiscard]] std::size_t rounds_executed() const { return rounds_; }

  /// Current penalty (tracks adaptation; equals options().rho at start).
  [[nodiscard]] double rho() const { return rho_; }

  /// Consensus solution: the demand-feasible Z repaired to full
  /// feasibility (Z satisfies capacity only in the limit).
  [[nodiscard]] Matrix solution() const;

  /// Warm-start the consensus iterate and scaled duals (e.g. from the
  /// previous scheduling epoch); must be called before the first round.
  /// Z is re-projected onto the demand set so the first x-update sees a
  /// feasible prox center.  Dense representation only (throws
  /// std::logic_error otherwise).
  void set_state(const Matrix& z, const Matrix& u);

  /// Current consensus iterate / scaled duals (dense representation only —
  /// the warm-start carrier reads these at epoch end).
  [[nodiscard]] const Matrix& consensus() const { return z_; }
  [[nodiscard]] const Matrix& duals() const { return u_; }

  /// The problem the rounds actually iterate on: the original instance for
  /// kDense/kSparse, the aggregated instance for kAggregated.
  [[nodiscard]] const optim::Problem& work_problem() const { return *work_; }
  /// The client equivalence-class transform when representation ==
  /// kAggregated, null otherwise.
  [[nodiscard]] const ClientAggregation* aggregation() const {
    return aggregation_.get();
  }

  /// Bytes one replica sends to clients per round (its shares, one message
  /// per client).
  [[nodiscard]] std::size_t bytes_per_replica_round() const;
  /// Bytes one client sends to replicas per round (consensus feedback).
  [[nodiscard]] std::size_t bytes_per_client_round() const;

  [[nodiscard]] const AdmmOptions& options() const { return options_; }
  [[nodiscard]] const optim::Problem& problem() const { return *problem_; }

  /// Record per-round x-update/consensus spans and the residual gauges
  /// (solver.admm.*) into `telemetry`.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Collect AdmmReplicaStats during round() (off by default; the flight
  /// recorder path turns it on).
  void set_collect_replica_stats(bool collect) { collect_stats_ = collect; }
  [[nodiscard]] bool collect_replica_stats() const { return collect_stats_; }
  /// Last round's per-replica stats (empty until a collected round ran).
  [[nodiscard]] const std::vector<AdmmReplicaStats>& replica_stats() const {
    return replica_stats_;
  }

  /// Messages / bytes the rounds so far would have put on the wire
  /// (accumulated round by round — the counters ScheduleResult is fed from,
  /// mirrored into solver.admm.* when telemetry is attached).
  [[nodiscard]] std::uint64_t messages_exchanged() const {
    return messages_exchanged_;
  }
  [[nodiscard]] std::uint64_t bytes_exchanged() const {
    return bytes_exchanged_;
  }

 private:
  /// Replica n's x-update: prox center gather, local subproblem, scatter.
  void solve_replica(std::size_t n);
  void solve_replica_sparse(std::size_t n);
  void solution_into(Matrix& out) const;
  void solution_into_sparse(common::SparseAllocation& out) const;

  const optim::Problem* problem_;
  AdmmOptions options_;
  /// True iff representation != kDense — selects the compact round path.
  bool sparse_ = false;
  /// kAggregated state: the class transform and the aggregated instance the
  /// rounds run on.  work_ points at aggregated_problem_ when aggregating,
  /// else at problem_.
  std::unique_ptr<ClientAggregation> aggregation_;
  std::unique_ptr<optim::Problem> aggregated_problem_;
  const optim::Problem* work_ = nullptr;
  std::uint64_t messages_exchanged_ = 0;
  std::uint64_t bytes_exchanged_ = 0;
  telemetry::EventTracer* tracer_ = &telemetry::disabled_tracer();
  telemetry::Counter rounds_metric_;
  telemetry::Counter messages_metric_;
  telemetry::Counter bytes_metric_;
  telemetry::Gauge objective_metric_;
  telemetry::Gauge primal_metric_;
  telemetry::Gauge dual_metric_;
  telemetry::Gauge rho_metric_;
  double rho_ = 1.0;
  bool collect_stats_ = false;
  std::vector<AdmmReplicaStats> replica_stats_;
  // Dense iterates: X (replica-owned columns), Z (consensus), U (scaled
  // duals), with Z double-buffered against z_prev_ for the dual residual.
  Matrix x_;
  Matrix z_;
  Matrix u_;
  Matrix z_prev_;
  std::vector<std::vector<double>> masks_;  // per replica feasibility
  // Compact-path counterparts over the work problem's pattern.
  common::SparseAllocation sparse_x_;
  common::SparseAllocation sparse_z_;
  common::SparseAllocation sparse_u_;
  common::SparseAllocation sparse_z_prev_;
  // Per-replica x-update scratch, reused across rounds: the gathered prox
  // center z_n − u_n and the subproblem output column.
  std::vector<std::vector<double>> prox_scratch_;
  std::vector<std::vector<double>> column_scratch_;
  // Shared all-zeros multiplier vector and all-ones weight vector the
  // x-update passes to the LDDM subproblem kernel (read-only).
  std::vector<double> zero_mu_;
  std::vector<double> unit_weights_;
  // Recovered solution double buffer for observability (same convention as
  // the other engines).
  Matrix scratch_solution_;
  Matrix last_solution_;
  common::SparseAllocation sparse_scratch_solution_;
  common::SparseAllocation sparse_last_solution_;
  bool sparse_has_last_ = false;
  mutable common::SparseAllocation sparse_solution_tmp_;
  std::size_t stable_rounds_ = 0;
  std::size_t rounds_ = 0;
  bool converged_ = false;
};

}  // namespace edr::core
