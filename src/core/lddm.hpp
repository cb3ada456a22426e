// LDDM — Lagrangian dual decomposition method (paper §III-D.2, following
// Bertsekas-Tsitsiklis).
//
// The per-client demand equalities Σ_n p_{c,n} = R_c are dualized with
// multipliers μ_c.  One round:
//   1. each replica solves its local subproblem over its own column
//      (optim::solve_replica_subproblem_into, prox-regularized — see
//      objective.hpp for why) given the current μ, and reports the
//      per-client loads to the clients;
//   2. each client updates its multiplier by dual gradient ascent
//        μ_c ← μ_c + t · (Σ_n p_{c,n} − R_c)
//      and sends the new value back to the replicas.
// Under kAggregated a client class of w_c members stands in for them: its
// prox step and its dual step are scaled by w_c, so the class moves as
// fast as the dense iteration moves its members (DESIGN.md §12).
// Coordination is client↔replica only — no replica↔replica traffic — which
// is the O(|C|·|N|) per-round communication the paper credits LDDM with.
//
// The engine exposes the same split personality as CdpsmEngine: pure
// per-role steps for the simulator agents plus a synchronous driver for
// tests and Fig 5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
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

struct LddmOptions {
  /// Proximal weight ρ of the replica subproblem (must be > 0).  Larger ρ
  /// damps the dual oscillation of plain decomposition at the price of
  /// slower per-round progress; 2.0 balances both on the paper's setups.
  double rho = 2.0;
  /// Dual ascent step t; 0 = auto (mu_step_factor · ρ / |N|; ρ/|N| is the
  /// textbook-safe value since the dual gradient is |N|/ρ-Lipschitz under
  /// the prox term).
  double mu_step = 0.0;
  /// Multiplier on the auto dual step.  The prox term damps the iteration
  /// well past the nominal bound, so the runtime uses 3.0 for ~3x fewer
  /// rounds per epoch; keep 1.0 for conservative library use.
  double mu_step_factor = 1.0;
  std::size_t max_rounds = 2000;
  /// Initial dual value for every client.  NaN = auto: the negative of a
  /// mid-range marginal cost, which starts the primal near sensible loads
  /// (use 0.0 for a neutral cold start, e.g. in convergence studies).
  double initial_mu = std::numeric_limits<double>::quiet_NaN();
  /// Converged when the *recovered* solution (averaged + repaired) stops
  /// moving: its round-to-round change stays below tolerance × demand scale
  /// for `patience` consecutive rounds.  The raw dual iterates of a
  /// decomposition method oscillate even at the optimum, so they are not a
  /// usable stopping signal.
  double tolerance = 1e-5;
  std::size_t patience = 5;
  /// Iterate storage (see core/representation.hpp).  kDense is the golden
  /// path, byte-identical to the historical behavior.  kSparse/kAggregated
  /// keep the per-replica columns compact (one entry per feasible client)
  /// and solve the maskless weighted subproblem on them.  kSparse is
  /// aggregation with singleton classes (every weight 1) and runs the dense
  /// iteration bit for bit on the feasible pairs.  kAggregated weighs each
  /// class entry by its member count, so on classes of equal-demand clients
  /// its per-round column sums follow the dense ones up to rounding.
  SolverRepresentation representation = SolverRepresentation::kDense;
};

struct LddmRoundStats {
  std::size_t round = 0;
  double objective = 0.0;        ///< cost of the repaired current solution
  double demand_residual = 0.0;  ///< max_c |Σ_n p_{c,n} − R_c|
  double movement = 0.0;         ///< max column change this round
  std::size_t bytes_exchanged = 0;
};

/// Per-replica view of one round, collected only when enabled — feeds the
/// flight recorder.  Measured on the *recovered* solution (Cesàro average,
/// repaired): the raw dual columns oscillate even at the optimum, so they
/// are the wrong thing to observe.
struct LddmReplicaStats {
  double local_objective = 0.0;  ///< E_n at this round's recovered load
  double movement = 0.0;  ///< ‖Δ recovered column‖₂ this round
  double load = 0.0;      ///< recovered Σ_c p_{c,n}
  double load_delta = 0.0;  ///< recovered load change vs the previous round
};

class LddmEngine {
 public:
  LddmEngine(const optim::Problem& problem, LddmOptions options = {});

  /// --- per-role steps (used by the simulator agents) ---

  /// Client-side dual update given the loads each replica reported for
  /// work-problem client c: μ_c += t·(served − R_c)/w_c, where w_c is the
  /// number of clients c stands for (its class size under kAggregated, else
  /// 1).  A class's residual is the sum of its members' residuals, so this
  /// is the step each member takes in the dense iteration.  Returns the new
  /// μ_c.
  double update_multiplier(std::size_t c, double total_served);

  [[nodiscard]] const std::vector<double>& multipliers() const { return mu_; }

  /// Warm-start the dual variables (e.g. from the previous scheduling
  /// epoch); must be called before the first round.
  void set_multipliers(std::span<const double> mu);

  /// Warm-start replica n's primal column (prox center + recovery average).
  /// Dual-only warm starts barely help because the Cesàro average restarts
  /// from zero; carrying the primal as well is what shortens epochs.
  /// Dense representation only (throws std::logic_error otherwise).
  void set_column_state(std::size_t n, std::span<const double> column);
  /// Replica n's current primal column: one entry per client in the dense
  /// representation, one entry per *feasible* client (the pattern's column
  /// order) in the sparse/aggregated ones.
  [[nodiscard]] const std::vector<double>& column(std::size_t n) const {
    return columns_[n];
  }

  /// The problem the rounds actually iterate on: the original instance for
  /// kDense/kSparse, the aggregated instance for kAggregated.
  [[nodiscard]] const optim::Problem& work_problem() const { return *work_; }
  /// The client equivalence-class transform when representation ==
  /// kAggregated, null otherwise.
  [[nodiscard]] const ClientAggregation* aggregation() const {
    return aggregation_.get();
  }

  /// --- synchronous driver ---

  /// One full round (all replicas solve, all clients update μ).
  LddmRoundStats round();

  /// Run until convergence or the round limit; returns the trace.
  optim::ConvergenceTrace run();

  [[nodiscard]] bool converged() const { return converged_; }
  [[nodiscard]] std::size_t rounds_executed() const { return rounds_; }

  /// Current primal solution: running-average iterate assembled into a
  /// matrix and repaired to exact feasibility (dual methods meet the demand
  /// constraints only in the limit).
  [[nodiscard]] Matrix solution() const;

  /// Bytes one replica sends to clients per round (its column, split into
  /// per-client messages).
  [[nodiscard]] std::size_t bytes_per_replica_round() const;
  /// Bytes one client sends to replicas per round (its μ to each replica).
  [[nodiscard]] std::size_t bytes_per_client_round() const;

  [[nodiscard]] const LddmOptions& options() const { return options_; }
  [[nodiscard]] const optim::Problem& problem() const { return *problem_; }

  /// Record per-round local-solve/dual-update spans and the demand-residual
  /// gauge (solver.lddm.*) into `telemetry`.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Collect LddmReplicaStats during round() (off by default; the flight
  /// recorder path turns it on).
  void set_collect_replica_stats(bool collect) { collect_stats_ = collect; }
  [[nodiscard]] bool collect_replica_stats() const { return collect_stats_; }
  /// Last round's per-replica stats (empty until a collected round ran).
  [[nodiscard]] const std::vector<LddmReplicaStats>& replica_stats() const {
    return replica_stats_;
  }

  /// Messages / bytes the rounds so far would have put on the wire
  /// (accumulated round by round — the counters ScheduleResult is fed from,
  /// mirrored into solver.lddm.* when telemetry is attached).
  [[nodiscard]] std::uint64_t messages_exchanged() const {
    return messages_exchanged_;
  }
  [[nodiscard]] std::uint64_t bytes_exchanged() const {
    return bytes_exchanged_;
  }

 private:
  /// Replica n's subproblem solve against `multipliers`; updates the stored
  /// column and prox center in place (round()'s hot path).
  void solve_local_inplace(std::size_t n, std::span<const double> multipliers);
  void solution_into(Matrix& out) const;
  /// Compact-path primal recovery: Cesàro average scattered into a sparse
  /// allocation over the work problem's pattern, then repaired.
  void solution_into_sparse(common::SparseAllocation& out) const;

  const optim::Problem* problem_;
  LddmOptions options_;
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
  telemetry::Gauge residual_metric_;
  telemetry::Gauge movement_metric_;
  double mu_step_ = 0.0;
  bool collect_stats_ = false;
  std::vector<LddmReplicaStats> replica_stats_;
  std::vector<double> mu_;  // per client of the work problem
  // Per-replica primal state.  Dense: one entry per client.  Sparse /
  // aggregated: one entry per feasible client, in the pattern's column
  // order (masks_ is then unused — infeasible entries don't exist).
  std::vector<std::vector<double>> columns_;
  std::vector<std::vector<double>> average_;   // running primal average
  std::vector<std::vector<double>> masks_;     // per replica feasibility
  // Class size per work-problem client (1 unless aggregating); the dual
  // step divides by it.
  std::vector<double> weights_;
  // Sparse-path scratch: per-replica compact gather of μ (the subproblem
  // reads the multipliers of its feasible clients only), and the weights in
  // the same col_rows order, gathered once at construction.
  std::vector<std::vector<double>> mu_gather_;
  std::vector<std::vector<double>> weight_gather_;
  // Round scratch, reused across rounds so the hot loop stays off the heap:
  // per-replica subproblem output buffers (swapped into columns_, so after
  // a round they hold the previous columns for the movement stat), the
  // per-client served totals, and the recovered solution double-buffered
  // against last_solution_.
  std::vector<std::vector<double>> solve_scratch_;
  std::vector<double> served_;
  Matrix scratch_solution_;
  Matrix last_solution_;
  // Compact-path counterparts of the recovered-solution double buffer.
  common::SparseAllocation sparse_scratch_solution_;
  common::SparseAllocation sparse_last_solution_;
  bool sparse_has_last_ = false;
  mutable common::SparseAllocation sparse_solution_tmp_;
  std::size_t stable_rounds_ = 0;
  std::size_t rounds_ = 0;
  bool converged_ = false;
};

}  // namespace edr::core
