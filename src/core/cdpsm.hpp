// CDPSM — consensus-based distributed projected subgradient method
// (paper §III-D.1, following Nedić-Ozdaglar-Parrilo).
//
// Every replica n keeps a full estimate P^n of the global traffic matrix.
// One round:
//   1. consensus:   V^n = Σ_j a_j · P^j        (weights Σ a_j = 1)
//   2. gradient:    W^n = V^n − d · ∇E_n(V^n)  (local objective only)
//   3. projection:  P^n ← Proj_{X_n}[W^n]
// where X_n is replica n's local constraint set: the shared demand
// simplices plus its *own* capacity column (the sets' intersection over n
// is the global feasible set, as the convergence theory requires).
//
// The engine is a pure synchronous state machine: step_replica() advances
// one replica given its peers' previous estimates, so the same math runs
// standalone (tests, Fig 5) and inside the message-driven simulator agents
// (which charge each estimate exchange to the network).
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

struct CdpsmOptions {
  /// Constant step size d (paper compares both methods at constant step).
  /// 0 = auto: 1/L from the problem's Lipschitz bound.
  double step = 0.0;
  /// Use the diminishing schedule d_k = d/√k from Nedić-Ozdaglar-Parrilo
  /// (whose convergence theory requires it).  Slower than the constant
  /// step + exact-consensus variant; provided for fidelity to the paper's
  /// simulation (see EXPERIMENTS.md, Fig 5).
  bool diminishing_step = false;
  std::size_t max_rounds = 2000;
  /// Converged when the *recovered* solution (projected mean of estimates)
  /// stops moving: round-to-round change below tolerance × demand scale for
  /// `patience` consecutive rounds.  Individual estimates settle on
  /// different fixed points of their local projections, so estimate
  /// disagreement never reaches zero and is not a usable stop signal.
  double tolerance = 1e-5;
  std::size_t patience = 3;
  /// Iterate storage (see core/representation.hpp).  kDense is the golden
  /// path, byte-identical to the historical behavior.  kSparse/kAggregated
  /// keep the estimates on the feasible pairs only; the recovered solution
  /// agrees with the dense one at solver-tolerance level (the dense
  /// gradient also steps latency-masked entries before the projection
  /// re-zeroes them; the compact path never materializes them).
  SolverRepresentation representation = SolverRepresentation::kDense;
};

/// Per-round progress of the synchronous driver.
struct CdpsmRoundStats {
  std::size_t round = 0;
  double objective = 0.0;      ///< cost of the mean estimate (projected)
  double disagreement = 0.0;   ///< max pairwise estimate distance
  double movement = 0.0;       ///< max per-replica estimate change
  std::size_t bytes_exchanged = 0;  ///< all-to-all estimate traffic
};

/// Per-replica view of one round, collected only when enabled (the
/// pre-projection copy is not free) — feeds the flight recorder.
struct CdpsmReplicaStats {
  double local_objective = 0.0;  ///< E_n at the consensus load
  double gradient_norm = 0.0;    ///< ‖∇E_n‖_F = |e_n'|·√|C| (uniform column)
  double projection_correction = 0.0;  ///< ‖W^n − Proj_{X_n}[W^n]‖_F
  double load = 0.0;             ///< own-column load after the step
  double load_delta = 0.0;       ///< load change vs the previous round
};

class CdpsmEngine {
 public:
  CdpsmEngine(const optim::Problem& problem, CdpsmOptions options = {});

  [[nodiscard]] std::size_t num_replicas() const {
    return problem_->num_replicas();
  }

  /// Replica n's current estimate.  Dense representation only — the sparse
  /// paths keep compact estimates (use solution() for the recovered point).
  [[nodiscard]] const Matrix& estimate(std::size_t n) const {
    return estimates_[n];
  }

  /// The problem the rounds actually iterate on: the original instance for
  /// kDense/kSparse, the aggregated instance for kAggregated.
  [[nodiscard]] const optim::Problem& work_problem() const { return *work_; }
  /// The client equivalence-class transform when representation ==
  /// kAggregated, null otherwise.
  [[nodiscard]] const ClientAggregation* aggregation() const {
    return aggregation_.get();
  }

  /// Pure per-replica update: consensus over `peer_estimates` (all replicas'
  /// round-k estimates, uniform weights a_j = 1/|N|), local gradient step,
  /// projection onto X_n.  Does not mutate engine state.  `stats`, when
  /// non-null, receives the replica's observability view of the step
  /// (load_delta excluded — only round() knows the previous load).
  [[nodiscard]] Matrix step_replica(std::size_t n,
                                    std::span<const Matrix> peer_estimates,
                                    CdpsmReplicaStats* stats = nullptr) const;

  /// One synchronous round over all replicas (the standalone driver).
  CdpsmRoundStats round();

  /// Run rounds until convergence or the round limit; returns the trace.
  optim::ConvergenceTrace run();

  [[nodiscard]] bool converged() const { return converged_; }
  [[nodiscard]] std::size_t rounds_executed() const { return rounds_; }

  /// Consensus solution: the average of all replica estimates, projected to
  /// exact feasibility (the average satisfies constraints only up to the
  /// consensus tolerance).
  [[nodiscard]] Matrix solution() const;

  /// Bytes a single replica sends per round (its estimate to each peer).
  [[nodiscard]] std::size_t bytes_per_replica_round() const;

  [[nodiscard]] const CdpsmOptions& options() const { return options_; }
  [[nodiscard]] const optim::Problem& problem() const { return *problem_; }

  /// Record per-round consensus/gradient spans and progress gauges
  /// (solver.cdpsm.*) into `telemetry`.
  void attach_telemetry(telemetry::Telemetry& telemetry);

  /// Collect CdpsmReplicaStats during round() (off by default; the flight
  /// recorder path turns it on).
  void set_collect_replica_stats(bool collect) { collect_stats_ = collect; }
  [[nodiscard]] bool collect_replica_stats() const { return collect_stats_; }
  /// Last round's per-replica stats (empty until a collected round ran).
  [[nodiscard]] const std::vector<CdpsmReplicaStats>& replica_stats() const {
    return replica_stats_;
  }

  /// Messages / bytes this engine's rounds would have put on the wire so
  /// far (accumulated round by round — the counters ScheduleResult is fed
  /// from, mirrored into solver.cdpsm.* when telemetry is attached).
  [[nodiscard]] std::uint64_t messages_exchanged() const {
    return messages_exchanged_;
  }
  [[nodiscard]] std::uint64_t bytes_exchanged() const {
    return bytes_exchanged_;
  }

 private:
  void project_local(std::size_t n, Matrix& estimate) const;
  /// step_replica writing into a caller-owned matrix (round() reuses one
  /// per replica).  `out` must not alias any entry of `peer_estimates`.
  void step_replica_into(std::size_t n, std::span<const Matrix> peer_estimates,
                         Matrix& out, CdpsmReplicaStats* stats) const;
  void solution_into(Matrix& out) const;
  /// Compact-path counterparts (representation != kDense): identical round
  /// structure on the feasible-pair storage of the work problem.
  void project_local_sparse(std::size_t n,
                            common::SparseAllocation& estimate) const;
  void step_replica_into_sparse(
      std::size_t n, std::span<const common::SparseAllocation> peer_estimates,
      common::SparseAllocation& out, CdpsmReplicaStats* stats) const;
  void solution_into_sparse(common::SparseAllocation& out) const;
  [[nodiscard]] std::size_t estimate_count() const {
    return sparse_ ? sparse_estimates_.size() : estimates_.size();
  }

  const optim::Problem* problem_;
  CdpsmOptions options_;
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
  telemetry::Gauge disagreement_metric_;
  telemetry::Gauge movement_metric_;
  double step_ = 0.0;
  bool collect_stats_ = false;
  std::vector<CdpsmReplicaStats> replica_stats_;
  std::vector<Matrix> estimates_;
  // Round scratch, reused across rounds so the hot loop stays off the heap:
  // the previous-round snapshot the consensus step reads, and the recovered
  // solution double-buffered against last_solution_.
  std::vector<Matrix> previous_estimates_;
  Matrix scratch_solution_;
  Matrix last_solution_;
  // Compact-path counterparts of the estimate/round-scratch state above.
  std::vector<common::SparseAllocation> sparse_estimates_;
  std::vector<common::SparseAllocation> sparse_previous_;
  common::SparseAllocation sparse_scratch_solution_;
  common::SparseAllocation sparse_last_solution_;
  bool sparse_has_last_ = false;
  mutable common::SparseAllocation sparse_solution_tmp_;
  std::size_t stable_rounds_ = 0;
  std::size_t rounds_ = 0;
  bool converged_ = false;
};

}  // namespace edr::core
