#include "optim/projection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "optim/instance.hpp"
#include "optim/problem.hpp"

namespace edr::optim {
namespace {

double vec_sum(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// Bit-for-bit reference: the projections as they were before Dykstra became
// one fused row pass per sweep — separate demand and capacity half-sweeps
// over full-size snapshot and correction buffers, a per-row mask rebuild,
// and std::ranges::sort in the threshold.  Copied verbatim apart from the
// namespace (qualified where argument-dependent lookup would also find the
// library's overloads).
namespace reference {

double simplex_threshold(std::vector<double>& active, double target) {
  std::ranges::sort(active, std::greater<>());
  double running = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    running += active[i];
    const double candidate = (running - target) / static_cast<double>(i + 1);
    if (candidate >= active[i]) {
      if (i == 0) tau = candidate;
      break;
    }
    tau = candidate;
  }
  return tau;
}

std::vector<double>& active_scratch() {
  thread_local std::vector<double> active;
  return active;
}
std::vector<double>& row_mask_scratch() {
  thread_local std::vector<double> mask;
  return mask;
}
std::vector<double>& column_scratch() {
  thread_local std::vector<double> column;
  return column;
}

void project_masked_simplex(std::span<double> values,
                            std::span<const double> mask, double target) {
  assert(values.size() == mask.size());
  if (target < 0.0)
    throw std::invalid_argument("project_masked_simplex: negative target");

  std::vector<double>& active = active_scratch();
  active.clear();
  active.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    if (mask[i] != 0.0) active.push_back(values[i]);

  if (active.empty()) {
    if (target > 0.0)
      throw std::invalid_argument(
          "project_masked_simplex: positive target with empty mask");
    for (double& v : values) v = 0.0;
    return;
  }

  const double tau = simplex_threshold(active, target);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = mask[i] != 0.0 ? std::max(values[i] - tau, 0.0) : 0.0;
}

void project_simplex(std::span<double> values, double target) {
  if (target < 0.0)
    throw std::invalid_argument("project_simplex: negative target");

  if (values.empty()) {
    if (target > 0.0)
      throw std::invalid_argument(
          "project_simplex: positive target with no coordinates");
    return;
  }

  std::vector<double>& active = active_scratch();
  active.assign(values.begin(), values.end());
  const double tau = simplex_threshold(active, target);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = std::max(values[i] - tau, 0.0);
}

void project_capped_nonneg(std::span<double> values, double cap) {
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::max(values[i], 0.0);
    total += values[i];
  }
  if (total <= cap) return;
  project_simplex(values, cap);
}

void project_demand_set(const Problem& problem, Matrix& allocation) {
  std::vector<double>& mask = row_mask_scratch();
  mask.resize(problem.num_replicas());
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    for (std::size_t n = 0; n < problem.num_replicas(); ++n)
      mask[n] = problem.feasible_pair(c, n) ? 1.0 : 0.0;
    project_masked_simplex(allocation.row(c), mask, problem.demand(c));
  }
}

void project_capacity_set(const Problem& problem, Matrix& allocation) {
  std::vector<double>& column = column_scratch();
  column.resize(problem.num_clients());
  for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
    for (std::size_t c = 0; c < problem.num_clients(); ++c)
      column[c] = allocation(c, n);
    project_capped_nonneg(column, problem.replica(n).bandwidth);
    for (std::size_t c = 0; c < problem.num_clients(); ++c)
      allocation(c, n) = column[c];
  }
}

DykstraResult project_feasible(const Problem& problem, Matrix& allocation,
                               const DykstraOptions& options) {
  thread_local Matrix correction_demand;
  thread_local Matrix correction_capacity;
  thread_local Matrix previous;
  thread_local Matrix before;
  correction_demand.reshape(allocation.rows(), allocation.cols(), 0.0);
  correction_capacity.reshape(allocation.rows(), allocation.cols(), 0.0);
  previous = allocation;

  DykstraResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    allocation.axpy(1.0, correction_demand);
    before = allocation;
    reference::project_demand_set(problem, allocation);
    correction_demand = before;
    correction_demand.axpy(-1.0, allocation);

    allocation.axpy(1.0, correction_capacity);
    before = allocation;
    project_capacity_set(problem, allocation);
    correction_capacity = before;
    correction_capacity.axpy(-1.0, allocation);

    result.iterations = iter + 1;
    result.final_change = allocation.distance(previous);
    previous = allocation;
    if (result.final_change <= options.tolerance) {
      if (check_feasibility(problem, allocation).ok(1e-7)) {
        result.converged = true;
        break;
      }
    }
  }
  reference::project_demand_set(problem, allocation);
  if (!result.converged)
    result.capacity_residual =
        check_feasibility(problem, allocation).max_capacity_violation;
  return result;
}

void project_demand_set(const Problem& problem,
                        common::SparseAllocation& allocation) {
  for (std::size_t c = 0; c < problem.num_clients(); ++c)
    reference::project_simplex(allocation.row(c), problem.demand(c));
}

void project_capacity_set(const Problem& problem,
                          common::SparseAllocation& allocation) {
  const common::SparsityPattern& pattern = allocation.pattern();
  std::vector<double>& column = column_scratch();
  const std::span<double> values = allocation.values();
  for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
    const auto positions = pattern.col_positions(n);
    column.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i)
      column[i] = values[positions[i]];
    project_capped_nonneg(column, problem.replica(n).bandwidth);
    for (std::size_t i = 0; i < positions.size(); ++i)
      values[positions[i]] = column[i];
  }
}

DykstraResult project_feasible(const Problem& problem,
                               common::SparseAllocation& allocation,
                               const DykstraOptions& options) {
  thread_local std::vector<double> correction_demand;
  thread_local std::vector<double> correction_capacity;
  thread_local std::vector<double> previous;
  thread_local std::vector<double> before;
  const std::span<double> values = allocation.values();
  correction_demand.assign(values.size(), 0.0);
  correction_capacity.assign(values.size(), 0.0);
  previous.assign(values.begin(), values.end());
  before.resize(values.size());

  DykstraResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    edr::axpy(values, 1.0, correction_demand);
    std::copy(values.begin(), values.end(), before.begin());
    reference::project_demand_set(problem, allocation);
    correction_demand.assign(before.begin(), before.end());
    edr::axpy(correction_demand, -1.0, values);

    edr::axpy(values, 1.0, correction_capacity);
    std::copy(values.begin(), values.end(), before.begin());
    project_capacity_set(problem, allocation);
    correction_capacity.assign(before.begin(), before.end());
    edr::axpy(correction_capacity, -1.0, values);

    result.iterations = iter + 1;
    result.final_change = l2_distance(values, previous);
    previous.assign(values.begin(), values.end());
    if (result.final_change <= options.tolerance) {
      if (check_feasibility(problem, allocation).ok(1e-7)) {
        result.converged = true;
        break;
      }
    }
  }
  reference::project_demand_set(problem, allocation);
  if (!result.converged)
    result.capacity_residual =
        check_feasibility(problem, allocation).max_capacity_violation;
  return result;
}

}  // namespace reference

TEST(SimplexProjection, AlreadyOnSimplexIsFixedPoint) {
  std::vector<double> v{0.2, 0.3, 0.5};
  project_simplex(v, 1.0);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.3, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(SimplexProjection, UniformShiftForInteriorPoint) {
  // Projection of (1,2,3) onto {Σ=3} with all coordinates staying positive
  // subtracts the mean excess: (0,1,2).
  std::vector<double> v{1.0, 2.0, 3.0};
  project_simplex(v, 3.0);
  EXPECT_NEAR(v[0], 0.0, 1e-12);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
  EXPECT_NEAR(v[2], 2.0, 1e-12);
}

TEST(SimplexProjection, ClampsNegativeCoordinates) {
  std::vector<double> v{-5.0, 0.5, 0.6};
  project_simplex(v, 1.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_NEAR(vec_sum(v), 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.45, 1e-12);
  EXPECT_NEAR(v[2], 0.55, 1e-12);
}

TEST(SimplexProjection, ZeroTargetGivesZeroVector) {
  std::vector<double> v{3.0, -1.0, 2.0};
  project_simplex(v, 0.0);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(SimplexProjection, SingleCoordinate) {
  std::vector<double> v{-4.0};
  project_simplex(v, 2.5);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
}

TEST(MaskedSimplexProjection, MaskedCoordinatesForcedToZero) {
  std::vector<double> v{10.0, 10.0, 10.0};
  const std::vector<double> mask{1.0, 0.0, 1.0};
  project_masked_simplex(v, mask, 4.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_NEAR(v[0], 2.0, 1e-12);
  EXPECT_NEAR(v[2], 2.0, 1e-12);
}

TEST(MaskedSimplexProjection, ThrowsWhenTargetUnreachable) {
  std::vector<double> v{1.0, 1.0};
  const std::vector<double> mask{0.0, 0.0};
  EXPECT_THROW(project_masked_simplex(v, mask, 1.0), std::invalid_argument);
}

TEST(MaskedSimplexProjection, EmptyMaskZeroTargetZeroesVector) {
  std::vector<double> v{1.0, -2.0};
  const std::vector<double> mask{0.0, 0.0};
  project_masked_simplex(v, mask, 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(MaskedSimplexProjection, RejectsNegativeTarget) {
  std::vector<double> v{1.0};
  const std::vector<double> mask{1.0};
  EXPECT_THROW(project_masked_simplex(v, mask, -1.0), std::invalid_argument);
}

// Property: the projection is the nearest simplex point — verify first-order
// optimality <y - proj, x - proj> <= 0 for random feasible x.
TEST(SimplexProjection, NearestPointProperty) {
  Rng rng{101};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> y(6), proj(6);
    for (auto& x : y) x = rng.uniform(-3.0, 3.0);
    proj = y;
    project_simplex(proj, 2.0);
    // Random feasible point.
    std::vector<double> other(6);
    for (auto& x : other) x = rng.uniform(0.0, 1.0);
    project_simplex(other, 2.0);
    double inner = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      inner += (y[i] - proj[i]) * (other[i] - proj[i]);
    EXPECT_LE(inner, 1e-9);
  }
}

// Brute-force check of the sort-and-threshold solve: the projection of v is
// max(v_i - τ, 0) on active coordinates for the unique τ with
// Σ_active max(v_i - τ, 0) = target.  Recover τ from the output's positive
// coordinates and verify both the threshold equation and the KKT condition
// on zeroed coordinates (v_i ≤ τ), to 1e-9.
TEST(MaskedSimplexProjection, ThresholdSatisfiesWaterFillingEquation) {
  Rng rng{4242};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 9.0));
    std::vector<double> v(n), mask(n);
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(-4.0, 4.0);
      mask[i] = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : 1.0;
      any_active = any_active || mask[i] != 0.0;
    }
    if (!any_active) mask[0] = 1.0;
    const double target = trial % 17 == 0 ? 0.0 : rng.uniform(0.0, 6.0);

    std::vector<double> out = v;
    project_masked_simplex(out, mask, target);

    EXPECT_NEAR(vec_sum(out), target, 1e-9) << "trial " << trial;
    double tau = 0.0;
    bool has_positive = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) {
        EXPECT_DOUBLE_EQ(out[i], 0.0) << "masked coordinate " << i;
      } else if (out[i] > 0.0) {
        // τ = v_i - out_i must agree across every positive coordinate.
        if (!has_positive) {
          tau = v[i] - out[i];
          has_positive = true;
        } else {
          EXPECT_NEAR(v[i] - out[i], tau, 1e-9)
              << "threshold inconsistent at " << i << ", trial " << trial;
        }
      }
    }
    if (!has_positive) continue;  // target == 0: everything clipped
    double water = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) continue;
      water += std::max(v[i] - tau, 0.0);
      if (out[i] == 0.0)
        EXPECT_LE(v[i], tau + 1e-9)
            << "zeroed coordinate above threshold, trial " << trial;
    }
    EXPECT_NEAR(water, target, 1e-9) << "trial " << trial;
  }
}

TEST(CappedNonneg, NoChangeWhenUnderCap) {
  std::vector<double> v{1.0, 2.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(CappedNonneg, ClipsNegativesWithoutTouchingCap) {
  std::vector<double> v{-1.0, 2.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(CappedNonneg, ProjectsToCapWhenExceeded) {
  std::vector<double> v{6.0, 6.0};
  project_capped_nonneg(v, 10.0);
  EXPECT_NEAR(vec_sum(v), 10.0, 1e-12);
  EXPECT_NEAR(v[0], 5.0, 1e-12);
}

class DykstraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DykstraTest, ProducesFeasiblePointFromRandomStart) {
  Rng rng{GetParam()};
  InstanceOptions opts;
  opts.num_clients = 6;
  opts.num_replicas = 4;
  const Problem problem = make_random_instance(rng, opts);

  Matrix allocation(6, 4);
  for (auto& v : allocation.flat()) v = rng.uniform(-5.0, 25.0);

  const auto result = project_feasible(problem, allocation);
  EXPECT_TRUE(result.converged) << "Dykstra did not converge";
  const auto report = check_feasibility(problem, allocation);
  EXPECT_TRUE(report.ok(1e-6))
      << "cap=" << report.max_capacity_violation
      << " demand=" << report.max_demand_violation
      << " neg=" << report.max_negative
      << " mask=" << report.max_mask_violation;
}

TEST_P(DykstraTest, FeasiblePointIsFixedPoint) {
  Rng rng{GetParam() + 1000};
  InstanceOptions opts;
  opts.num_clients = 5;
  opts.num_replicas = 3;
  const Problem problem = make_random_instance(rng, opts);

  Matrix allocation(5, 3);
  for (auto& v : allocation.flat()) v = rng.uniform(0.0, 10.0);
  project_feasible(problem, allocation);
  const Matrix feasible = allocation;

  project_feasible(problem, allocation);
  EXPECT_LT(allocation.distance(feasible), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DykstraTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// A starved iteration budget must not silently hide infeasibility: the
// final demand snap can push columns back over capacity, and the result now
// reports that overshoot instead of masking it.
TEST(Dykstra, TightIterationCapSurfacesCapacityResidual) {
  // Three clients of demand 10 against two replicas of capacity 16: near-
  // tight transport, so one demand/capacity sweep followed by the demand
  // snap provably re-overshoots replica 0 when everything starts there.
  std::vector<ReplicaParams> replicas(2);
  replicas[0].bandwidth = 16.0;
  replicas[1].bandwidth = 16.0;
  const Problem problem{{10.0, 10.0, 10.0}, std::move(replicas),
                        Matrix(3, 2), /*max_latency=*/100.0};

  Matrix allocation(3, 2);
  for (std::size_t c = 0; c < 3; ++c) allocation(c, 0) = 30.0;
  const Matrix start = allocation;

  DykstraOptions tight;
  tight.max_iterations = 1;
  const auto result = project_feasible(problem, allocation, tight);
  ASSERT_FALSE(result.converged);
  // The residual is exactly the violation of the returned iterate.
  const auto report = check_feasibility(problem, allocation);
  EXPECT_DOUBLE_EQ(result.capacity_residual, report.max_capacity_violation);
  EXPECT_GT(result.capacity_residual, 0.0)
      << "expected the one-sweep iterate to still overshoot capacity";

  // With the budget restored the projection converges and reports zero.
  Matrix relaxed = start;
  const auto full = project_feasible(problem, relaxed);
  EXPECT_TRUE(full.converged);
  EXPECT_DOUBLE_EQ(full.capacity_residual, 0.0);
}

TEST(MaskedSimplexProjection, AllMaskedRowWithZeroTarget) {
  // A fully masked row is legal when it carries no demand: everything is
  // forced to the unique feasible point, the zero vector.
  std::vector<double> v{3.0, -1.0, 0.5};
  const std::vector<double> mask{0.0, 0.0, 0.0};
  project_masked_simplex(v, mask, 0.0);
  for (const double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(MaskedSimplexProjection, SingleActiveCoordinateTakesWholeTarget) {
  std::vector<double> v{-7.0, 123.0, 2.0};
  const std::vector<double> mask{0.0, 1.0, 0.0};
  project_masked_simplex(v, mask, 9.5);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 9.5);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
}

TEST(ActiveSimplexProjection, MatchesMaskedProjectionBitwise) {
  // The compact form must agree with the masked form restricted to the
  // active coordinates — exactly, not just to tolerance: the sparse solve
  // paths rely on this identity.
  Rng rng{2024};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    std::vector<double> dense(n), mask(n);
    std::vector<double> compact;
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dense[i] = rng.uniform(-20.0, 40.0);
      mask[i] = rng.uniform(0.0, 1.0) < 0.6 ? 1.0 : 0.0;
      if (mask[i] != 0.0) {
        compact.push_back(dense[i]);
        ++active;
      }
    }
    const double target = active == 0 ? 0.0 : rng.uniform(0.0, 25.0);
    project_masked_simplex(dense, mask, target);
    project_simplex(compact, target);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i] == 0.0) {
        EXPECT_DOUBLE_EQ(dense[i], 0.0);
      } else {
        // Bitwise: the gathered active vectors and thresholds coincide.
        EXPECT_EQ(dense[i], compact[k++]) << "trial " << trial << " i " << i;
      }
    }
  }
}

TEST(ActiveSimplexProjection, ThrowsLikeMaskedForm) {
  std::vector<double> empty;
  EXPECT_THROW(project_simplex(empty, 1.0), std::invalid_argument);
  std::vector<double> v{1.0};
  EXPECT_THROW(project_simplex(v, -0.5), std::invalid_argument);
}

// The sparse demand projection and sparse Dykstra must reproduce the dense
// path bit for bit when the dense allocation carries exact zeros on the
// infeasible pairs (which the dense projections maintain).
TEST(SparseProjection, MatchesDenseMaskedProjectionBitwise) {
  Rng rng{77};
  for (int trial = 0; trial < 10; ++trial) {
    InstanceOptions opts;
    opts.num_clients = 11;
    opts.num_replicas = 4;
    const Problem problem = make_random_instance(rng, opts);

    // Random nonnegative start supported on the feasible pairs only.
    Matrix start(11, 4, 0.0);
    for (std::size_t c = 0; c < 11; ++c)
      for (std::size_t n = 0; n < 4; ++n)
        if (problem.feasible_pair(c, n)) start(c, n) = rng.uniform(0.0, 30.0);

    common::SparseAllocation sparse{problem.sparsity()};

    Matrix dense_demand = start;
    project_demand_set(problem, dense_demand);
    sparse.from_dense(start);
    project_demand_set(problem, sparse);
    Matrix scattered;
    sparse.to_dense(scattered);
    EXPECT_TRUE(scattered == dense_demand) << "demand sweep, trial " << trial;

    Matrix dense_feasible = start;
    const auto dense_result = project_feasible(problem, dense_feasible);
    sparse.from_dense(start);
    const auto sparse_result = project_feasible(problem, sparse);
    sparse.to_dense(scattered);
    EXPECT_TRUE(scattered == dense_feasible) << "Dykstra, trial " << trial;
    EXPECT_EQ(sparse_result.iterations, dense_result.iterations);
    EXPECT_EQ(sparse_result.converged, dense_result.converged);
    EXPECT_DOUBLE_EQ(sparse_result.final_change, dense_result.final_change);
    EXPECT_DOUBLE_EQ(sparse_result.capacity_residual,
                     dense_result.capacity_residual);
  }
}


bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A value drawn to provoke the kernel's edge cases: ties (a coarse grid),
// signed zeros and negatives next to ordinary continuous values.
double edgy_value(Rng& rng, double scale) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return std::round(rng.uniform(-2.0, 6.0)) * 0.5 * scale;
    case 1: return rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
    case 2: return rng.uniform(-scale, 0.0);
    default: return rng.uniform(0.0, scale);
  }
}

// The row kernel behind project_masked_simplex / project_simplex is
// bit-identical to the sort-and-threshold plus apply it replaced, for rows
// short enough to insertion-sort and longer ones.
TEST(FusedDykstra, RowKernelMatchesReferenceBitwise) {
  Rng rng{5150};
  for (int trial = 0; trial < 4000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> values(n), mask(n);
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = edgy_value(rng, 10.0);
      mask[i] = rng.uniform(0.0, 1.0) < 0.7 ? 1.0 : 0.0;
      if (mask[i] != 0.0) ++active;
    }
    const double target =
        active == 0 || trial % 13 == 0 ? 0.0 : edgy_value(rng, 20.0) + 20.0;

    std::vector<double> got = values;
    std::vector<double> want = values;
    project_masked_simplex(got, mask, target);
    reference::project_masked_simplex(want, mask, target);
    EXPECT_TRUE(same_bits(got, want)) << "masked, trial " << trial;

    got = values;
    want = values;
    project_simplex(got, target);
    reference::project_simplex(want, target);
    EXPECT_TRUE(same_bits(got, want)) << "simplex, trial " << trial;
  }
}

// A random problem exercising the fused sweep's edge cases: 1..16
// replicas, masked pairs, all-masked rows with zero demand, and capacities
// that bind (total just above the demand) or are slack.
Problem edgy_problem(Rng& rng) {
  const auto clients = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const auto replicas = static_cast<std::size_t>(rng.uniform_int(1, 16));
  Matrix latency(clients, replicas, 0.0);
  std::vector<Megabytes> demands(clients, 0.0);
  for (std::size_t c = 0; c < clients; ++c) {
    const bool all_masked = rng.uniform(0.0, 1.0) < 0.1;
    for (std::size_t n = 0; n < replicas; ++n)
      latency(c, n) =
          all_masked || rng.uniform(0.0, 1.0) < 0.3 ? 200.0 : 10.0;
    // A client with no feasible replica can carry no demand.
    bool reachable = false;
    for (std::size_t n = 0; n < replicas; ++n)
      reachable = reachable || latency(c, n) <= 100.0;
    if (reachable) demands[c] = std::max(edgy_value(rng, 10.0), 0.0) + 0.5;
  }
  double total = 0.0;
  for (const double d : demands) total += d;
  const bool binding = rng.uniform(0.0, 1.0) < 0.5;
  std::vector<ReplicaParams> params(replicas);
  for (auto& p : params)
    p.bandwidth = binding ? 1.05 * total / static_cast<double>(replicas) +
                                rng.uniform(0.0, 1.0)
                          : 2.0 * total + 1.0;
  return Problem{std::move(demands), std::move(params), std::move(latency),
                 /*max_latency=*/100.0};
}

void expect_same_result(const DykstraResult& got, const DykstraResult& want,
                        int trial) {
  EXPECT_EQ(got.iterations, want.iterations) << "trial " << trial;
  EXPECT_EQ(got.converged, want.converged) << "trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_change),
            std::bit_cast<std::uint64_t>(want.final_change))
      << "trial " << trial;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.capacity_residual),
            std::bit_cast<std::uint64_t>(want.capacity_residual))
      << "trial " << trial;
}

// The fused Dykstra pass reproduces the separate half-sweeps bit for bit,
// dense (with mass on infeasible pairs) and sparse, on starved iteration
// budgets (the cap-hit path) as well as converging ones.
TEST(FusedDykstra, MatchesReferenceBitwise) {
  Rng rng{9001};
  constexpr std::size_t kCaps[] = {1, 2, 3, 60};
  for (int trial = 0; trial < 10000; ++trial) {
    const Problem problem = edgy_problem(rng);
    DykstraOptions options;
    options.max_iterations = kCaps[trial % 4];

    Matrix start(problem.num_clients(), problem.num_replicas(), 0.0);
    for (double& v : start.flat()) v = edgy_value(rng, 15.0);

    Matrix got = start;
    Matrix want = start;
    const DykstraResult got_result = project_feasible(problem, got, options);
    const DykstraResult want_result =
        reference::project_feasible(problem, want, options);
    EXPECT_TRUE(same_bits(got.flat(), want.flat())) << "dense, trial " << trial;
    expect_same_result(got_result, want_result, trial);

    common::SparseAllocation got_sparse{problem.sparsity()};
    got_sparse.from_dense(start);
    common::SparseAllocation want_sparse = got_sparse;
    const DykstraResult got_sparse_result =
        project_feasible(problem, got_sparse, options);
    const DykstraResult want_sparse_result =
        reference::project_feasible(problem, want_sparse, options);
    EXPECT_TRUE(same_bits(got_sparse.values(), want_sparse.values()))
        << "sparse, trial " << trial;
    expect_same_result(got_sparse_result, want_sparse_result, trial);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace edr::optim
