// Euclidean projections onto the constraint sets of the replica-selection
// problem, plus Dykstra's alternating-projection scheme for their
// intersection.
//
// The feasible set factors into
//   A = Π_c { x ∈ R^N : x ≥ 0, x_n = 0 on masked pairs, Σ x = R_c }
//       (one masked simplex per client row), and
//   B = Π_n { y ∈ R^C : y ≥ 0, Σ y ≤ B_n }
//       (one capped nonnegative set per replica column).
// Both factor projections are exact and O(k log k) and share one
// allocation-free row kernel (gather the active coordinates, sort them
// descending, find the water-filling threshold τ).  Dykstra's algorithm
// combines them into the projection onto A ∩ B, which the dual engines'
// per-round primal recovery, CDPSM and DONAR rely on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"

namespace edr::optim {

class Problem;

/// Project `values` in place onto the simplex {x ≥ 0, Σx = target} restricted
/// to the coordinates where mask[i] != 0 (masked-out coordinates are forced
/// to zero).  `target` must be ≥ 0 and the mask must have at least one active
/// coordinate when target > 0.  O(k log k) via the sort-and-threshold method
/// of Held/Wolfe/Crowder.
void project_masked_simplex(std::span<double> values,
                            std::span<const double> mask, double target);

/// Project `values` in place onto the simplex {x ≥ 0, Σx = target}: the
/// maskless form, every coordinate active.  This is the projection the
/// sparse paths use on a row's feasible slice; it is bitwise identical to
/// project_masked_simplex on the dense row (the mask gather visits the
/// feasible coordinates in the same order, so the sorted active vector — and
/// therefore τ — is the same).  Throws like the masked form when target > 0
/// with no coordinates.
void project_simplex(std::span<double> values, double target);

/// Project `values` in place onto {x ≥ 0, Σx ≤ cap}: clip to the nonnegative
/// orthant, then fall back to a simplex projection only if the cap binds.
void project_capped_nonneg(std::span<double> values, double cap);

/// Project `allocation` in place onto the demand set A (per-client masked
/// simplices) of `problem`.
void project_demand_set(const Problem& problem, Matrix& allocation);

/// Sparse variant: the compact value slices already enumerate exactly the
/// feasible coordinates, so it runs the maskless simplex per client row.  It
/// matches the dense masked projection bitwise when the dense allocation
/// carries exact zeros on infeasible pairs.  The allocation's pattern must be
/// `problem.sparsity()`.
void project_demand_set(const Problem& problem,
                        common::SparseAllocation& allocation);

/// Options for Dykstra's alternating projections.
struct DykstraOptions {
  std::size_t max_iterations = 500;
  /// Stop when successive full sweeps move the iterate less than this
  /// (Frobenius norm).
  double tolerance = 1e-10;
};

/// Result diagnostics from project_feasible.
struct DykstraResult {
  std::size_t iterations = 0;
  double final_change = 0.0;
  bool converged = false;
  /// Worst per-replica capacity overshoot of the *returned* iterate, after
  /// the final demand snap.  0 when converged (the snap only perturbs an
  /// already-feasible point below tolerance); when the iteration cap was
  /// hit, this reports the violation the snap would otherwise silently
  /// mask — callers deciding whether to trust the point should check it.
  double capacity_residual = 0.0;
};

/// Project `allocation` in place onto the full feasible set A ∩ B of
/// `problem` using Dykstra's algorithm (which, unlike plain alternating
/// projections, converges to the *nearest* feasible point).  Each sweep is
/// one row-major pass — per client row the demand step, its correction, and
/// the clip and load sum of the capacity step — followed by the capped
/// simplex on the (rare) over-capacity columns and one flat pass for the
/// capacity correction and the sweep's move.  Every floating-point
/// operation and its order are those of separate demand and capacity
/// half-sweeps.  The pass runs them as scalar code, with the load and
/// distance sums in scalar order, so it takes no SIMD dispatch mode.
DykstraResult project_feasible(const Problem& problem, Matrix& allocation,
                               const DykstraOptions& options = {});

/// Sparse Dykstra: the same row pass on the compact storage, with flat
/// per-entry correction vectors; bit-identical to the dense overload when
/// the dense allocation carries exact zeros on infeasible pairs.
DykstraResult project_feasible(const Problem& problem,
                               common::SparseAllocation& allocation,
                               const DykstraOptions& options = {});

}  // namespace edr::optim
