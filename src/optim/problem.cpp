#include "optim/problem.hpp"

#include <cmath>
#include <stdexcept>

#include "common/fmt.hpp"
#include "common/math_util.hpp"

namespace edr::optim {

double replica_energy(const ReplicaParams& params, double load) {
  if (load <= 0.0) return 0.0;
  return params.alpha * load + params.beta * std::pow(load, params.gamma);
}

double replica_energy_derivative(const ReplicaParams& params, double load) {
  const double s = load > 0.0 ? load : 0.0;
  return params.alpha +
         params.beta * params.gamma * std::pow(s, params.gamma - 1.0);
}

double replica_cost(const ReplicaParams& params, double load) {
  return params.price * replica_energy(params, load);
}

double replica_cost_derivative(const ReplicaParams& params, double load) {
  return params.price * replica_energy_derivative(params, load);
}

Problem::Problem(std::vector<Megabytes> demands,
                 std::vector<ReplicaParams> replicas, Matrix latency,
                 Milliseconds max_latency)
    : demands_(std::move(demands)),
      total_demand_(sum(std::span<const double>{demands_})),
      replicas_(std::move(replicas)),
      latency_(std::move(latency)),
      max_latency_(max_latency) {
  if (latency_.rows() != demands_.size() ||
      latency_.cols() != replicas_.size()) {
    throw std::invalid_argument(strf(
        "Problem: latency matrix is %zux%zu, expected %zux%zu",
        latency_.rows(), latency_.cols(), demands_.size(), replicas_.size()));
  }
  feasible_ = Matrix(latency_.rows(), latency_.cols(), 0.0);
  for (std::size_t c = 0; c < latency_.rows(); ++c)
    for (std::size_t n = 0; n < latency_.cols(); ++n)
      feasible_(c, n) = latency_(c, n) <= max_latency_ ? 1.0 : 0.0;
  sparsity_ = std::make_shared<common::SparsityPattern>(feasible_);
}

std::size_t Problem::feasible_count(std::size_t c) const {
  std::size_t count = 0;
  for (std::size_t n = 0; n < num_replicas(); ++n)
    if (feasible_pair(c, n)) ++count;
  return count;
}

namespace {

/// Per-thread column-sum scratch for the objective/feasibility hot paths —
/// these run once per solver round (and once per Dykstra iteration inside
/// project_feasible), so they must not allocate.
std::vector<double>& loads_scratch() {
  thread_local std::vector<double> loads;
  return loads;
}

}  // namespace

Cents Problem::total_cost(const Matrix& allocation) const {
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  KahanSum total;
  for (std::size_t n = 0; n < num_replicas(); ++n)
    total.add(replica_cost(replicas_[n], loads[n]));
  return total.value();
}

Cents Problem::total_cost(const common::SparseAllocation& allocation) const {
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  KahanSum total;
  for (std::size_t n = 0; n < num_replicas(); ++n)
    total.add(replica_cost(replicas_[n], loads[n]));
  return total.value();
}

double Problem::total_energy(const Matrix& allocation) const {
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  KahanSum total;
  for (std::size_t n = 0; n < num_replicas(); ++n)
    total.add(replica_energy(replicas_[n], loads[n]));
  return total.value();
}

double Problem::total_energy(
    const common::SparseAllocation& allocation) const {
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  KahanSum total;
  for (std::size_t n = 0; n < num_replicas(); ++n)
    total.add(replica_energy(replicas_[n], loads[n]));
  return total.value();
}

void Problem::cost_gradient(const Matrix& allocation, Matrix& grad) const {
  grad = Matrix(num_clients(), num_replicas());
  const auto loads = allocation.col_sums();
  for (std::size_t n = 0; n < num_replicas(); ++n) {
    const double g = replica_cost_derivative(replicas_[n], loads[n]);
    for (std::size_t c = 0; c < num_clients(); ++c) grad(c, n) = g;
  }
}

double Problem::gradient_lipschitz_bound() const {
  // The objective depends on P only through the column sums, so the Hessian
  // is block diagonal per column with all entries equal to
  // u_n·β_n·γ_n·(γ_n-1)·s_n^{γ_n-2}; its spectral norm for column n is
  // |C| times that scalar, maximized at s_n = B_n.
  double worst = 0.0;
  for (const auto& rep : replicas_) {
    if (rep.gamma <= 1.0 || rep.beta == 0.0) continue;
    const double curvature =
        rep.price * rep.beta * rep.gamma * (rep.gamma - 1.0) *
        std::pow(std::max(rep.bandwidth, 1e-12), rep.gamma - 2.0);
    worst = std::max(worst, curvature);
  }
  return worst * static_cast<double>(num_clients()) + 1e-12;
}

std::string Problem::validate() const {
  if (demands_.empty()) return "no clients";
  if (replicas_.empty()) return "no replicas";
  for (std::size_t c = 0; c < num_clients(); ++c) {
    if (demands_[c] < 0.0)
      return strf("client %zu has negative demand %g", c, demands_[c]);
    if (demands_[c] > 0.0 && feasible_count(c) == 0)
      return strf("client %zu has no latency-feasible replica", c);
  }
  for (std::size_t n = 0; n < num_replicas(); ++n) {
    const auto& rep = replicas_[n];
    if (rep.bandwidth <= 0.0)
      return strf("replica %zu has non-positive bandwidth", n);
    if (rep.price < 0.0) return strf("replica %zu has negative price", n);
    if (rep.gamma < 1.0)
      return strf("replica %zu has gamma < 1 (non-convex)", n);
    if (rep.alpha < 0.0 || rep.beta < 0.0)
      return strf("replica %zu has negative energy coefficients", n);
  }
  return {};
}

FeasibilityReport check_feasibility(const Problem& problem,
                                    const Matrix& allocation) {
  FeasibilityReport report;
  for (const double v : allocation.flat())
    if (!std::isfinite(v)) report.has_non_finite = true;
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
    const double excess = loads[n] - problem.replica(n).bandwidth;
    report.max_capacity_violation =
        std::max(report.max_capacity_violation, excess);
  }
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const double gap = std::abs(allocation.row_sum(c) - problem.demand(c));
    report.max_demand_violation = std::max(report.max_demand_violation, gap);
    for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
      report.max_negative =
          std::max(report.max_negative, -allocation(c, n));
      if (!problem.feasible_pair(c, n))
        report.max_mask_violation =
            std::max(report.max_mask_violation, std::abs(allocation(c, n)));
    }
  }
  report.max_capacity_violation = std::max(report.max_capacity_violation, 0.0);
  return report;
}

FeasibilityReport check_feasibility(
    const Problem& problem, const common::SparseAllocation& allocation) {
  FeasibilityReport report;
  for (const double v : allocation.values()) {
    if (!std::isfinite(v)) report.has_non_finite = true;
    report.max_negative = std::max(report.max_negative, -v);
  }
  std::vector<double>& loads = loads_scratch();
  allocation.col_sums(loads);
  for (std::size_t n = 0; n < problem.num_replicas(); ++n) {
    const double excess = loads[n] - problem.replica(n).bandwidth;
    report.max_capacity_violation =
        std::max(report.max_capacity_violation, excess);
  }
  for (std::size_t c = 0; c < problem.num_clients(); ++c) {
    const double gap = std::abs(allocation.row_sum(c) - problem.demand(c));
    report.max_demand_violation = std::max(report.max_demand_violation, gap);
  }
  // Mask violations are structurally impossible: values only exist on
  // feasible pairs.
  report.max_capacity_violation = std::max(report.max_capacity_violation, 0.0);
  return report;
}

}  // namespace edr::optim
