// The energy-aware replica-selection problem (paper Eq. 1-2).
//
//   minimize   E_g(P) = Σ_n u_n · (α_n · s_n + β_n · s_n^{γ_n}),
//              s_n = Σ_c p_{c,n}
//   subject to Σ_c p_{c,n} ≤ B_n            (bandwidth capacity, per replica)
//              Σ_n p_{c,n} = R_c            (demand, per client)
//              p_{c,n} = 0 if l_{c,n} > T   (latency bound)
//              p_{c,n} ≥ 0
//
// This type is the single source of truth shared by the centralized
// reference solver, both distributed algorithms (CDPSM / LDDM), and the
// baselines.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "common/units.hpp"

namespace edr::optim {

/// Static per-replica parameters of the energy-cost model.
struct ReplicaParams {
  /// Regional electricity price u_n (¢/kWh in the paper; any consistent
  /// currency-per-energy unit works since only ratios matter to the argmin).
  CentsPerKwh price = 1.0;
  /// Linear server-energy coefficient α_n (paper: 1.0 on SystemG).
  double alpha = 1.0;
  /// Network-device coefficient β_n (paper: 0.01 on SystemG).
  double beta = 0.01;
  /// Polynomial degree γ_n of the network-device term (paper: 3 for
  /// data-intensive workloads; 1 for linear switch fabrics).
  double gamma = 3.0;
  /// Bandwidth capacity B_n in megabytes per scheduling epoch
  /// (paper: ~100 MB/s Ethernet cap).
  Megabytes bandwidth = 100.0;
};

/// Per-replica energy given its assigned traffic s_n (model units).
[[nodiscard]] double replica_energy(const ReplicaParams& params, double load);

/// Derivative of replica_energy with respect to the load.
[[nodiscard]] double replica_energy_derivative(const ReplicaParams& params,
                                               double load);

/// Per-replica *cost* in cents: price-weighted energy, the paper's E_n.
[[nodiscard]] double replica_cost(const ReplicaParams& params, double load);

/// Derivative of replica_cost with respect to the load.
[[nodiscard]] double replica_cost_derivative(const ReplicaParams& params,
                                             double load);

/// A fully-specified problem instance.  Immutable once built (the runtime
/// constructs a fresh instance per scheduling epoch from live requests).
class Problem {
 public:
  Problem() = default;

  /// `latency(c, n)` is the client->replica network latency in ms; entries
  /// above `max_latency` disable that (client, replica) pair.
  Problem(std::vector<Megabytes> demands, std::vector<ReplicaParams> replicas,
          Matrix latency, Milliseconds max_latency);

  [[nodiscard]] std::size_t num_clients() const { return demands_.size(); }
  [[nodiscard]] std::size_t num_replicas() const { return replicas_.size(); }

  [[nodiscard]] Megabytes demand(std::size_t c) const { return demands_[c]; }
  [[nodiscard]] const std::vector<Megabytes>& demands() const {
    return demands_;
  }
  /// Sum of the demands, computed once at construction (the iterative
  /// engines read it every round for their stopping scale).
  [[nodiscard]] Megabytes total_demand() const { return total_demand_; }

  [[nodiscard]] const ReplicaParams& replica(std::size_t n) const {
    return replicas_[n];
  }
  [[nodiscard]] const std::vector<ReplicaParams>& replicas() const {
    return replicas_;
  }

  [[nodiscard]] Milliseconds latency(std::size_t c, std::size_t n) const {
    return latency_(c, n);
  }
  [[nodiscard]] Milliseconds max_latency() const { return max_latency_; }

  /// Whether client c may use replica n (latency bound; paper's e_{c,n}).
  [[nodiscard]] bool feasible_pair(std::size_t c, std::size_t n) const {
    return feasible_(c, n) != 0.0;
  }
  /// Client c's row of the 0/1 feasibility mask (1.0 where usable).
  [[nodiscard]] std::span<const double> feasible_row(std::size_t c) const {
    return feasible_.row(c);
  }
  /// Number of replicas client c may use.
  [[nodiscard]] std::size_t feasible_count(std::size_t c) const;

  /// Index structure of the feasible pairs (CSR by client + column view),
  /// shared by every SparseAllocation over this problem.  Built once in the
  /// constructor; null only for a default-constructed Problem.
  [[nodiscard]] const std::shared_ptr<const common::SparsityPattern>&
  sparsity() const {
    return sparsity_;
  }

  /// Total cost E_g(P) in cents (the paper's objective).
  [[nodiscard]] Cents total_cost(const Matrix& allocation) const;
  [[nodiscard]] Cents total_cost(
      const common::SparseAllocation& allocation) const;

  /// Total *energy* (unweighted by price) of an allocation — the paper's
  /// Fig 8(b) metric.
  [[nodiscard]] double total_energy(const Matrix& allocation) const;
  [[nodiscard]] double total_energy(
      const common::SparseAllocation& allocation) const;

  /// Gradient of the cost objective: grad(c, n) = u_n·(α_n + β_n·γ_n·s_n^{γ_n-1}).
  void cost_gradient(const Matrix& allocation, Matrix& grad) const;

  /// An upper bound on the Lipschitz constant of the gradient over the
  /// feasible set; used to pick safe constant step sizes.
  [[nodiscard]] double gradient_lipschitz_bound() const;

  /// Human-readable validation; empty string means the instance is
  /// structurally sound (positive demands/capacities, every client has at
  /// least one feasible replica).  Does NOT prove transportation
  /// feasibility — use optim::check_transport_feasible for that.
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<Megabytes> demands_;
  Megabytes total_demand_ = 0.0;
  std::vector<ReplicaParams> replicas_;
  Matrix latency_;
  Matrix feasible_;  // 1.0 where usable, 0.0 where latency-masked
  std::shared_ptr<const common::SparsityPattern> sparsity_;
  Milliseconds max_latency_ = 0.0;
};

/// Feasibility report for a candidate allocation.
struct FeasibilityReport {
  double max_capacity_violation = 0.0;  // max over n of (s_n - B_n)+
  double max_demand_violation = 0.0;    // max over c of |Σ_n p_{c,n} - R_c|
  double max_negative = 0.0;            // max over entries of (-p)+
  double max_mask_violation = 0.0;      // max mass on latency-infeasible pairs
  bool has_non_finite = false;          // NaN/Inf anywhere in the allocation
  [[nodiscard]] bool ok(double tol = 1e-6) const {
    return !has_non_finite && max_capacity_violation <= tol &&
           max_demand_violation <= tol && max_negative <= tol &&
           max_mask_violation <= tol;
  }
};

/// Measure constraint violations of `allocation` against `problem`.
[[nodiscard]] FeasibilityReport check_feasibility(const Problem& problem,
                                                  const Matrix& allocation);

/// Sparse variant: mask violations are structurally impossible (the values
/// only exist on feasible pairs), the remaining checks run on the compact
/// storage.
[[nodiscard]] FeasibilityReport check_feasibility(
    const Problem& problem, const common::SparseAllocation& allocation);

}  // namespace edr::optim
