#include "optim/projection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "optim/problem.hpp"

namespace edr::optim {
namespace {

/// Rows up to this long sort by insertion, longer ones (capacity columns) by
/// std::sort: descending order is unique up to ties of equal doubles.
constexpr std::size_t kInsertionSortMax = 16;

/// Threshold for the simplex: given active values v_1..v_k (sorted in place
/// into descending order), find τ with Σ max(v_i − τ, 0) = target.
double simplex_threshold(std::span<double> active, double target) {
  if (active.size() <= kInsertionSortMax) {
    for (std::size_t i = 1; i < active.size(); ++i) {
      const double v = active[i];
      std::size_t j = i;
      for (; j > 0 && active[j - 1] < v; --j) active[j] = active[j - 1];
      active[j] = v;
    }
  } else {
    std::ranges::sort(active, std::greater<>());
  }
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    running += active[i];
    const double candidate = (running - target) / static_cast<double>(i + 1);
    if (candidate >= active[i]) {
      // Coordinate i would be clipped to ≤ 0, so the support is the first i
      // coordinates and the previous candidate is τ — except at i == 0,
      // which only happens for target == 0, where τ = v_0 zeroes the whole
      // vector exactly.
      if (i == 0) tau = candidate;
      break;
    }
    tau = candidate;
  }
  return tau;
}

/// The row kernel every projection here shares: τ of the projection of
/// `values` onto {x ≥ 0, Σx = target} over the entries with mask[i] != 0
/// (all entries when !kMasked), gathered in order into `active` (room for
/// values.size(), or `values` itself when unmasked).  With no active entry
/// the projection is zero whatever τ is, so 0 is returned.
template <bool kMasked>
double row_threshold(std::span<const double> values,
                     std::span<const double> mask, double target,
                     double* active) {
  if (target < 0.0)
    throw std::invalid_argument("simplex projection: negative target");
  std::size_t k = values.size();
  if constexpr (kMasked) {
    k = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      active[k] = values[i];
      k += mask[i] != 0.0 ? 1 : 0;
    }
  } else if (values.data() != active) {
    std::copy(values.begin(), values.end(), active);
  }
  if (k == 0) {
    if (target > 0.0)
      throw std::invalid_argument(
          "simplex projection: positive target with no active coordinate");
    return 0.0;
  }
  return simplex_threshold({active, k}, target);
}

// The row kernel's gather buffer: no heap after warm-up, and thread-local
// because an in-process LocalCluster solves one replica per thread.  No
// caller holds it across a call into another projection.
double* active_scratch(std::size_t size) {
  thread_local std::vector<double> active;
  if (active.size() < size) active.resize(size);
  return active.data();
}

/// The pass project_feasible documents, for both storages; `x` is the
/// allocation's value array.  Each floating-point operation keeps the
/// operands and order of the separate half-sweeps it replaced (a + 1.0·x,
/// y + (−1.0)·x, row-ordered loads, the flat distance sum).
template <class Allocation>
DykstraResult dykstra(const Problem& problem, Allocation& allocation,
                      std::span<double> x, const DykstraOptions& options) {
  constexpr bool kDense = std::is_same_v<Allocation, Matrix>;
  const std::size_t clients = problem.num_clients();
  const std::size_t replicas = problem.num_replicas();

  // Thread-local (never nested on one thread) so the per-round primal
  // recovery does not allocate.
  thread_local std::vector<double> correction_demand;
  thread_local std::vector<double> correction_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> loads;
  correction_demand.assign(x.size(), 0.0);
  correction_capacity.assign(x.size(), 0.0);
  previous.assign(x.begin(), x.end());
  loads.resize(replicas);
  double* const cd = correction_demand.data();
  double* const cc = correction_capacity.data();
  double* const active = active_scratch(std::max(clients, replicas));

  DykstraResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(loads.begin(), loads.end(), 0.0);
    for (std::size_t c = 0; c < clients; ++c) {
      std::size_t begin = c * replicas;
      std::size_t size = replicas;
      std::span<const double> mask;
      std::span<const std::uint32_t> columns;
      if constexpr (kDense) {
        mask = problem.feasible_row(c);
      } else {
        begin = allocation.pattern().row_begin(c);
        columns = allocation.pattern().row_cols(c);
        size = columns.size();
      }
      double* const row = x.data() + begin;
      double* const row_cd = cd + begin;
      double* const row_cc = cc + begin;
      for (std::size_t j = 0; j < size; ++j) row[j] += 1.0 * row_cd[j];
      const double tau =
          row_threshold<kDense>({row, size}, mask, problem.demand(c), active);
      for (std::size_t j = 0; j < size; ++j) {
        double projected = std::max(row[j] - tau, 0.0);
        if (kDense && mask[j] == 0.0) projected = 0.0;
        row_cd[j] = row[j] + -1.0 * projected;
        // c_C holds z until the flat pass below turns it into z − x.
        row_cc[j] = projected + 1.0 * row_cc[j];
        row[j] = std::max(row_cc[j], 0.0);
        loads[kDense ? j : columns[j]] += row[j];
      }
    }

    for (std::size_t n = 0; n < replicas; ++n) {
      const double cap = problem.replica(n).bandwidth;
      if (loads[n] <= cap) continue;
      std::span<const std::uint32_t> positions;
      if constexpr (!kDense) positions = allocation.pattern().col_positions(n);
      const std::size_t size = kDense ? clients : positions.size();
      const auto at = [&](std::size_t i) -> double& {
        return x[kDense ? i * replicas + n : positions[i]];
      };
      for (std::size_t i = 0; i < size; ++i) active[i] = at(i);
      const double tau = row_threshold<false>({active, size}, {}, cap, active);
      for (std::size_t i = 0; i < size; ++i)
        at(i) = std::max(at(i) - tau, 0.0);
    }

    double moved = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      cc[i] += -1.0 * x[i];
      const double d = x[i] - previous[i];
      moved += d * d;
      previous[i] = x[i];
    }
    result.iterations = iter + 1;
    result.final_change = std::sqrt(moved);
    if (result.final_change <= options.tolerance) {
      // One extra criterion: the iterate must actually satisfy the demand
      // rows (the sweep ends on the capacity projection, which can leave
      // row sums slightly short until convergence).
      if (check_feasibility(problem, allocation).ok(1e-7)) {
        result.converged = true;
        break;
      }
    }
  }
  // Final cleanup: snap to the demand set so row sums are exact.  When the
  // sweep converged, any capacity violation this re-introduces is below
  // tolerance; when the iteration cap was hit, it can be arbitrary — report
  // it instead of masking it.
  project_demand_set(problem, allocation);
  if (!result.converged)
    result.capacity_residual =
        check_feasibility(problem, allocation).max_capacity_violation;
  return result;
}

}  // namespace

void project_masked_simplex(std::span<double> values,
                            std::span<const double> mask, double target,
                            common::simd::Mode simd) {
  assert(values.size() == mask.size());
  const double tau = row_threshold<true>(values, mask, target,
                                         active_scratch(values.size()));
  common::simd::masked_sub_clamp(simd, values, mask, tau);
}

void project_simplex(std::span<double> values, double target,
                     common::simd::Mode simd) {
  project_simplex_active(values, target, simd);
}

void project_simplex_active(std::span<double> values, double target,
                            common::simd::Mode simd) {
  const double tau = row_threshold<false>(values, {}, target,
                                          active_scratch(values.size()));
  common::simd::sub_clamp(simd, values, tau);
}

void project_capped_nonneg(std::span<double> values, double cap,
                           common::simd::Mode simd) {
  const double total = common::simd::clip_nonneg_sum(simd, values);
  if (total <= cap) return;
  project_simplex(values, cap, simd);
}

void project_demand_set(const Problem& problem, Matrix& allocation,
                        common::simd::Mode simd) {
  double* const active = active_scratch(problem.num_replicas());
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const std::span<double> row = allocation.row(c);
    const std::span<const double> mask = problem.feasible_row(c);
    const double tau =
        row_threshold<true>(row, mask, problem.demand(c), active);
    common::simd::masked_sub_clamp(simd, row, mask, tau);
  }
}

void project_demand_set(const Problem& problem,
                        common::SparseAllocation& allocation,
                        common::simd::Mode simd) {
  assert(allocation.pattern_ptr().get() == problem.sparsity().get());
  double* const active = active_scratch(problem.num_replicas());
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const std::span<double> row = allocation.row(c);
    const double tau =
        row_threshold<false>(row, {}, problem.demand(c), active);
    common::simd::sub_clamp(simd, row, tau);
  }
}

DykstraResult project_feasible(const Problem& problem, Matrix& allocation,
                               const DykstraOptions& options) {
  return dykstra(problem, allocation, allocation.flat(), options);
}

DykstraResult project_feasible(const Problem& problem,
                               common::SparseAllocation& allocation,
                               const DykstraOptions& options) {
  assert(allocation.pattern_ptr().get() == problem.sparsity().get());
  return dykstra(problem, allocation, allocation.values(), options);
}

}  // namespace edr::optim
