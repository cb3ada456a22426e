// Max-flow (Dinic) over the client/replica bipartite transportation graph.
//
// Used for three things:
//  1. deciding whether an instance is feasible at all (can every client's
//     demand be routed through latency-feasible replicas without exceeding
//     any capacity?),
//  2. producing an initial *feasible* allocation for the iterative solvers,
//     which keeps every subsequent iterate feasible and makes intermediate
//     schedules safe to act on (the runtime can be preempted mid-solve), and
//  3. solving the whole problem exactly (solve_exact) and certifying any
//     allocation against the optimum (optimality_gap).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/matrix.hpp"
#include "common/units.hpp"

namespace edr::optim {

class Problem;

/// General-purpose Dinic max-flow on a directed graph with double capacities.
class MaxFlow {
 public:
  /// Residual capacities at or below `epsilon` count as zero.
  explicit MaxFlow(std::size_t num_nodes, double epsilon = 1e-12);

  /// Add a directed edge u->v with the given capacity; returns an edge id
  /// usable with flow_on().
  std::size_t add_edge(std::size_t from, std::size_t to, double capacity);

  /// Augment to a maximum flow from source to sink and return the flow this
  /// call added.  Edges may be added between calls; the flow is kept.
  double solve(std::size_t source, std::size_t sink);

  /// Flow routed through the edge returned by add_edge.
  [[nodiscard]] double flow_on(std::size_t edge_id) const;

  /// After solve(): whether `node` is reachable from the source in the
  /// residual graph, i.e. lies on the source side of a minimum cut.
  [[nodiscard]] bool reachable(std::size_t node) const {
    return level_[node] >= 0;
  }

 private:
  struct Edge {
    std::size_t to;
    double capacity;
    std::size_t reverse;  // index of the paired reverse edge in adj_[to]
  };

  bool build_levels(std::size_t source, std::size_t sink);
  double push(std::size_t node, std::size_t sink, double limit);

  double epsilon_;
  std::vector<std::vector<Edge>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> next_edge_;
  std::vector<std::pair<std::size_t, std::size_t>> edge_handles_;
  std::vector<double> original_capacity_;
};

/// Result of the transportation feasibility check.
struct TransportResult {
  bool feasible = false;
  /// Total demand that could be routed (== total demand iff feasible).
  double routed = 0.0;
  /// A max-flow allocation (clients x replicas); feasible iff `feasible`.
  Matrix allocation;
};

/// Route the instance's demands through its latency-feasible pairs subject
/// to capacities; `slack` in (0,1] shrinks capacities (useful for producing
/// strictly-interior starting points).
[[nodiscard]] TransportResult check_transport_feasible(const Problem& problem,
                                                       double slack = 1.0);

/// Convenience: a feasible starting allocation, or std::nullopt when the
/// instance is infeasible.
[[nodiscard]] std::optional<Matrix> initial_feasible_point(
    const Problem& problem);

struct ExactResult {
  Matrix allocation;
  /// Replica loads s_n: the allocation's column sums.
  std::vector<double> loads;
  Cents cost = 0.0;
  /// Max-flow computations spent: one per part solved, so 1 when the first
  /// water-fill is routable.
  std::size_t max_flows = 0;
};

/// The exact optimum of `problem` — the "single central agent" the paper
/// contrasts EDR with, and the reference every distributed backend is
/// measured against.  E_g depends on the allocation only through the loads
/// s, and the routable load vectors are the base polytope of a polymatroid
/// (ρ(X) = the max flow into replica set X), so the decomposition algorithm
/// (Fujishige 1980; Groenevelt 1991) solves it in a few max-flows: water-fill
/// one marginal price λ over the replicas; if a max-flow with sink caps
/// s(λ) routes all demand, s is optimal; otherwise the replicas cut off in
/// the residual graph are over-assigned, and the two sides are solved
/// separately.  Each part's routing flow is its clients' rows of the
/// allocation.  Replicas with a constant marginal cost (γ_n = 1 or β_n = 0)
/// are filled at that price in index order.  Deterministic: equal inputs
/// give bit-identical results.
/// Returns std::nullopt when the instance is transportation-infeasible.
[[nodiscard]] std::optional<ExactResult> solve_exact(const Problem& problem);

/// Frank–Wolfe gap of a feasible allocation P: ⟨∇E(P), P − Q⟩ for the Q
/// minimising the linearised cost, found by Edmonds' greedy (replicas
/// filled in ascending marginal price, one max-flow increment each).  An
/// upper bound on E(P) − E*, zero exactly at an optimum; it shares nothing
/// with solve_exact but the max-flow.
[[nodiscard]] double optimality_gap(const Problem& problem,
                                    const Matrix& allocation);

/// Relative objective gap of `allocation` against a known optimal cost.
[[nodiscard]] double relative_gap(const Problem& problem,
                                  const Matrix& allocation,
                                  Cents optimal_cost);

}  // namespace edr::optim
