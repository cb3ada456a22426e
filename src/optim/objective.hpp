// Replica-local subproblem of the Lagrangian dual decomposition (paper Eq. 5).
//
// With dual multipliers μ_c attached to the per-client demand constraints,
// replica n solves
//
//   min_q  u_n·(α_n·Σq + β_n·(Σq)^γ_n) + Σ_c μ_c·q_c + (ρ/2)·‖q − q̂‖²
//   s.t.   q ≥ 0,  q_c = 0 on latency-masked pairs,  Σq ≤ B_n
//
// over its own traffic column q = p_{·,n}.  The proximal term (ρ/2)‖q − q̂‖²
// is a documented deviation from the paper's plain dual decomposition: the
// local objective is linear in q for fixed Σq, so the plain subproblem has
// bang-bang solutions and the primal iterates oscillate; the prox term is
// the standard fix and vanishes at the fixed point (see DESIGN.md §5).
//
// The KKT system reduces to a monotone scalar equation in
// t = φ'(s) + λ (φ = price-weighted energy, λ = capacity multiplier):
//   q_c(t) = max(0, q̂_c − (μ_c + t)/ρ),   s(t) = Σ_c q_c(t)
// with s(t) nonincreasing in t (the weighted form below scales each step
// by its entry's weight w_c > 0, which keeps every term monotone).  The
// root of F(t) = t − φ'(s(t)) (and, when the capacity binds, of
// G(t) = B − s(t)) is the one a bisection to 1e-13 would return, found in
// two steps:
//   1. bracket: safeguarded Newton narrows the root to a bracket far
//      tighter than the bisection's last interval (a few O(C) load sweeps);
//   2. replay: the bisection's midpoint sequence is replayed against that
//      bracket, sweeping only the midpoints that fall inside it.
// The replay takes the bisection's branches, so the answer is bit-identical
// to it, provided F and G are nondecreasing in t in floating point:
//   - s(t) is a fixed-order sum of monotone roundings, so it is;
//   - φ'(s) = u(α + βγ·pow(s, γ−1)) is nondecreasing when γ ≥ 1 and
//     α, β, u ≥ 0 (what Problem::validate enforces) and pow is monotone in
//     its base, as glibc's is in practice (tests/optim/subproblem_test.cpp
//     checks the bits against the plain bisection).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "optim/problem.hpp"

namespace edr::optim {

/// Scalar outputs of the subproblem; the allocation q itself is written into
/// a caller-owned buffer.
struct SubproblemInfo {
  double load = 0.0;                 // s = Σq
  double capacity_multiplier = 0.0;  // λ ≥ 0, nonzero iff Σq == B_n
  std::size_t sweeps = 0;            // O(C) load sweeps the search took
};

/// Solve the prox-regularized replica subproblem described above, writing q
/// into `allocation` (resized to the client count) — the per-round LDDM hot
/// path reuses one buffer per replica.  `mask[c] == 0` forbids traffic from
/// client c; `prox_center` is q̂ (often the previous iterate); `rho` must be
/// > 0.  `allocation` must not alias `prox_center`: the search re-evaluates
/// q from q̂ repeatedly, so an in-place overwrite of the prox center would
/// corrupt later evaluations.
SubproblemInfo solve_replica_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> mask, std::span<const double> prox_center,
    double rho, std::vector<double>& allocation);

/// Maskless weighted form for the compact solve paths: the inputs are
/// already restricted to the replica's feasible clients, so every coordinate
/// is active, and entry c stands for weights[c] > 0 interchangeable clients
/// (an aggregated client class; 1 for a single client).  Its prox term is
/// (ρ/2)·(q_c − q̂_c)²/w_c, the sum of its members' terms when the class
/// mass is spread evenly over them, so
///   q_c(t) = max(0, q̂_c − w_c·(μ_c + t)/ρ),   ds/dt = −Σ_{q_c>0} w_c/ρ,
/// and every q_c clamps to 0 once t ≥ ρ·q̂_c/w_c − μ_c.  With all weights
/// 1 it runs the same search to the same bits as the masked form evaluated
/// on the feasible subsequence (multiplying or dividing by 1.0 is exact).
SubproblemInfo solve_weighted_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> weights, std::span<const double> prox_center,
    double rho, std::vector<double>& allocation);

}  // namespace edr::optim
