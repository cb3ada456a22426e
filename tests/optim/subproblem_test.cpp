#include "optim/objective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "optim/projection.hpp"

namespace edr::optim {
namespace {

double subproblem_value(const ReplicaParams& params,
                        std::span<const double> mu,
                        std::span<const double> prox_center, double rho,
                        std::span<const double> q) {
  double s = 0.0;
  for (double v : q) s += v;
  double value = replica_cost(params, s);
  for (std::size_t c = 0; c < q.size(); ++c) {
    value += mu[c] * q[c];
    value += 0.5 * rho * (q[c] - prox_center[c]) * (q[c] - prox_center[c]);
  }
  return value;
}

/// Brute-force reference: projected gradient on the subproblem.
std::vector<double> brute_force(const ReplicaParams& params,
                                std::span<const double> mu,
                                std::span<const double> mask,
                                std::span<const double> prox_center,
                                double rho) {
  std::vector<double> q(mu.size(), 0.0);
  const double lipschitz =
      rho + params.price * params.beta * params.gamma *
                std::max(params.gamma - 1.0, 0.0) *
                std::pow(std::max(params.bandwidth, 1.0),
                         std::max(params.gamma - 2.0, 0.0)) *
                static_cast<double>(mu.size()) +
      1.0;
  const double step = 1.0 / lipschitz;
  for (int iter = 0; iter < 60000; ++iter) {
    double s = 0.0;
    for (double v : q) s += v;
    const double phi_prime = replica_cost_derivative(params, s);
    for (std::size_t c = 0; c < q.size(); ++c) {
      const double grad = phi_prime + mu[c] + rho * (q[c] - prox_center[c]);
      q[c] -= step * grad;
      if (mask[c] == 0.0) q[c] = 0.0;
    }
    project_capped_nonneg(q, params.bandwidth);
    // Re-apply the mask (projection may have spread mass onto masked slots).
    for (std::size_t c = 0; c < q.size(); ++c)
      if (mask[c] == 0.0) q[c] = 0.0;
  }
  return q;
}

struct Solved {
  std::vector<double> allocation;
  SubproblemInfo info;
};

Solved solve(const ReplicaParams& params, std::span<const double> mu,
             std::span<const double> mask, std::span<const double> prox,
             double rho) {
  Solved out;
  out.info =
      solve_replica_subproblem_into(params, mu, mask, prox, rho, out.allocation);
  return out;
}

ReplicaParams cubic_params(double price = 3.0, double bandwidth = 50.0) {
  ReplicaParams p;
  p.price = price;
  p.alpha = 1.0;
  p.beta = 0.01;
  p.gamma = 3.0;
  p.bandwidth = bandwidth;
  return p;
}

TEST(Subproblem, AllPositiveMultipliersGiveZero) {
  // With μ ≥ 0 and a zero prox center, serving any traffic only increases
  // the objective, so q = 0 is optimal.
  const auto params = cubic_params();
  const std::vector<double> mu{1.0, 2.0};
  const std::vector<double> mask{1.0, 1.0};
  const std::vector<double> prox{0.0, 0.0};
  const auto result = solve(params, mu, mask, prox, 1.0);
  EXPECT_NEAR(result.info.load, 0.0, 1e-9);
}

TEST(Subproblem, NegativeMultiplierAttractsLoad) {
  const auto params = cubic_params();
  const std::vector<double> mu{-50.0, 10.0};
  const std::vector<double> mask{1.0, 1.0};
  const std::vector<double> prox{0.0, 0.0};
  const auto result = solve(params, mu, mask, prox, 1.0);
  EXPECT_GT(result.allocation[0], 1.0);
  EXPECT_NEAR(result.allocation[1], 0.0, 1e-9);
}

TEST(Subproblem, MaskBlocksClient) {
  const auto params = cubic_params();
  const std::vector<double> mu{-50.0, -50.0};
  const std::vector<double> mask{0.0, 1.0};
  const std::vector<double> prox{10.0, 0.0};
  const auto result = solve(params, mu, mask, prox, 1.0);
  EXPECT_DOUBLE_EQ(result.allocation[0], 0.0);
  EXPECT_GT(result.allocation[1], 0.0);
}

TEST(Subproblem, CapacityBindsAndMultiplierIsReported) {
  const auto params = cubic_params(1.0, 5.0);
  const std::vector<double> mu{-1000.0, -1000.0};
  const std::vector<double> mask{1.0, 1.0};
  const std::vector<double> prox{100.0, 100.0};
  const auto result = solve(params, mu, mask, prox, 1.0);
  EXPECT_NEAR(result.info.load, 5.0, 1e-6);
  EXPECT_GT(result.info.capacity_multiplier, 0.0);
}

TEST(Subproblem, RejectsNonPositiveRho) {
  const auto params = cubic_params();
  const std::vector<double> mu{0.0};
  const std::vector<double> mask{1.0};
  const std::vector<double> prox{0.0};
  EXPECT_THROW(solve(params, mu, mask, prox, 0.0),
               std::invalid_argument);
}

class SubproblemRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubproblemRandomTest, MatchesBruteForceSolution) {
  Rng rng{GetParam()};
  ReplicaParams params;
  params.price = rng.uniform(1.0, 10.0);
  params.alpha = 1.0;
  params.beta = rng.uniform(0.005, 0.05);
  params.gamma = 3.0;
  params.bandwidth = rng.uniform(10.0, 60.0);

  const std::size_t clients = 5;
  std::vector<double> mu(clients), mask(clients), prox(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    mu[c] = rng.uniform(-30.0, 10.0);
    mask[c] = rng.uniform() < 0.8 ? 1.0 : 0.0;
    prox[c] = rng.uniform(0.0, 15.0);
  }
  const double rho = rng.uniform(0.5, 3.0);

  const auto fast = solve(params, mu, mask, prox, rho);
  const auto slow = brute_force(params, mu, mask, prox, rho);

  const double fast_value =
      subproblem_value(params, mu, prox, rho, fast.allocation);
  const double slow_value = subproblem_value(params, mu, prox, rho, slow);
  // The closed-form solver must be at least as good as 60k iterations of
  // projected gradient (up to tolerance).
  EXPECT_LE(fast_value, slow_value + 1e-4)
      << "fast=" << fast_value << " brute=" << slow_value;

  for (std::size_t c = 0; c < clients; ++c) {
    EXPECT_GE(fast.allocation[c], 0.0);
    if (mask[c] == 0.0) EXPECT_DOUBLE_EQ(fast.allocation[c], 0.0);
  }
  EXPECT_LE(fast.info.load, params.bandwidth + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubproblemRandomTest,
                         ::testing::Range<std::uint64_t>(200, 212));

// ---------------------------------------------------------------------------
// Bit-for-bit reference: the plain bisection the solver used to run, walk-
// down included, with a count of its load sweeps.  The bracket-and-replay
// search must return exactly its bits.  `weights` (empty = all 1, the
// unweighted bisection) scales entry c's step to w_c·(μ_c + t)/ρ and its
// clamp point to ρ·q̂_c/w_c − μ_c, as the weighted form documents.

Solved reference_subproblem(const ReplicaParams& params,
                            std::span<const double> multipliers,
                            std::span<const double> mask,
                            std::span<const double> prox_center, double rho,
                            std::span<const double> weights = {}) {
  const std::size_t clients = multipliers.size();
  Solved result;
  std::size_t& sweeps = result.info.sweeps;
  std::vector<double>& allocation = result.allocation;
  allocation.assign(clients, 0.0);

  auto phi_prime = [&](double s) {
    return replica_cost_derivative(params, s);
  };
  auto weight = [&](std::size_t c) {
    return weights.empty() ? 1.0 : weights[c];
  };
  auto load_at = [&](double t, std::vector<double>* out = nullptr) {
    ++sweeps;
    double total = 0.0;
    for (std::size_t c = 0; c < clients; ++c) {
      double q = 0.0;
      if (mask[c] != 0.0)
        q = std::max(0.0,
                     prox_center[c] - weight(c) * (multipliers[c] + t) / rho);
      if (out) (*out)[c] = q;
      total += q;
    }
    return total;
  };

  double t_hi = phi_prime(0.0) + 1.0;
  for (std::size_t c = 0; c < clients; ++c)
    if (mask[c] != 0.0)
      t_hi = std::max(t_hi,
                      rho * prox_center[c] / weight(c) - multipliers[c] + 1.0);
  double t_lo = phi_prime(0.0);
  for (int i = 0; i < 200; ++i) {
    const double s = load_at(t_lo);
    if (t_lo - phi_prime(s) <= 0.0) break;
    t_lo -= std::max(1.0, std::abs(t_lo));
  }

  auto bisect = [&](auto&& f, double lo, double hi) {
    for (int i = 0; i < 200; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (f(mid) <= 0.0)
        lo = mid;
      else
        hi = mid;
      if (hi - lo < 1e-13 * std::max(1.0, std::abs(hi))) break;
    }
    return 0.5 * (lo + hi);
  };

  const double t_star = bisect(
      [&](double t) { return t - phi_prime(load_at(t)); }, t_lo, t_hi);
  double s_star = load_at(t_star, &allocation);

  if (s_star > params.bandwidth + 1e-12) {
    const double t_cap = bisect(
        [&](double t) { return params.bandwidth - load_at(t); }, t_lo, t_hi);
    s_star = load_at(t_cap, &allocation);
    result.info.capacity_multiplier =
        std::max(0.0, t_cap - phi_prime(s_star));
  }
  result.info.load = s_star;
  return result;
}

struct Instance {
  ReplicaParams params;
  std::vector<double> mu, mask, prox;
  double rho = 1.0;
};

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// One random instance; `i` cycles γ through {1, 1.5, 2, 3} and turns the
/// degenerate cases (u = 0, α = 0, β = 0, an all-masked column, a zero prox
/// center) on at fixed strides so each is certain to occur.
Instance draw_instance(Rng& rng, std::size_t i) {
  static constexpr double kGammas[] = {1.0, 1.5, 2.0, 3.0};
  Instance in;
  in.params.gamma = kGammas[i % 4];
  in.params.price = i % 11 == 0 ? 0.0 : rng.uniform(0.5, 10.0);
  in.params.alpha = i % 7 == 0 ? 0.0 : rng.uniform(0.1, 5.0);
  in.params.beta = i % 5 == 0 ? 0.0 : log_uniform(rng, 1e-4, 1.0);
  in.params.bandwidth = log_uniform(rng, 0.1, 500.0);
  in.rho = log_uniform(rng, 1e-3, 1e3);

  const auto clients = static_cast<std::size_t>(rng.uniform_int(0, 24));
  const double keep = i % 13 == 0 ? 0.0 : rng.uniform(0.3, 1.0);
  const bool zero_prox = i % 6 == 0;
  const double mu_scale = log_uniform(rng, 0.1, 100.0);
  for (std::size_t c = 0; c < clients; ++c) {
    in.mask.push_back(rng.uniform() < keep ? 1.0 : 0.0);
    in.mu.push_back(mu_scale * rng.uniform(-1.0, 0.5));
    in.prox.push_back(zero_prox || rng.uniform() < 0.2
                          ? 0.0
                          : rng.uniform(0.0, 30.0));
  }
  return in;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SubproblemSearch, ReproducesBisectionBitForBitInFewSweeps) {
  constexpr std::size_t kInstances = 20000;
  Rng rng{2718};
  std::size_t sweeps = 0, reference_sweeps = 0;
  std::size_t binding = 0, slack = 0, all_masked = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance in = draw_instance(rng, i);
    const Solved want =
        reference_subproblem(in.params, in.mu, in.mask, in.prox, in.rho);
    const Solved got = solve(in.params, in.mu, in.mask, in.prox, in.rho);
    ASSERT_TRUE(same_bits(got.allocation, want.allocation)) << "instance " << i;
    ASSERT_TRUE(same_bits(got.info.load, want.info.load)) << "instance " << i;
    ASSERT_TRUE(same_bits(got.info.capacity_multiplier,
                          want.info.capacity_multiplier))
        << "instance " << i;
    sweeps += got.info.sweeps;
    reference_sweeps += want.info.sweeps;
    if (want.info.capacity_multiplier > 0.0)
      ++binding;
    else
      ++slack;
    if (!in.mu.empty() &&
        std::all_of(in.mask.begin(), in.mask.end(),
                    [](double m) { return m == 0.0; }))
      ++all_masked;
  }
  const double mean = static_cast<double>(sweeps) / kInstances;
  const double reference_mean =
      static_cast<double>(reference_sweeps) / kInstances;
  RecordProperty("mean_sweeps", std::to_string(mean));
  RecordProperty("reference_mean_sweeps", std::to_string(reference_mean));
  EXPECT_LE(mean, 12.0) << "bisection took " << reference_mean;
  // The corpus covers both capacity regimes and all-masked columns.
  EXPECT_GT(binding, kInstances / 10);
  EXPECT_GT(slack, kInstances / 10);
  EXPECT_GT(all_masked, 0u);
}

TEST(SubproblemSearch, CompactFormMatchesMaskedFormOnFeasibleEntries) {
  constexpr std::size_t kInstances = 10000;
  Rng rng{3141};
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance in = draw_instance(rng, i);
    const Solved masked = solve(in.params, in.mu, in.mask, in.prox, in.rho);
    std::vector<double> mu, prox, feasible;
    for (std::size_t c = 0; c < in.mu.size(); ++c) {
      if (in.mask[c] == 0.0) {
        ASSERT_TRUE(same_bits(masked.allocation[c], 0.0)) << "instance " << i;
        continue;
      }
      mu.push_back(in.mu[c]);
      prox.push_back(in.prox[c]);
      feasible.push_back(masked.allocation[c]);
    }
    const std::vector<double> ones(mu.size(), 1.0);
    std::vector<double> compact;
    const SubproblemInfo info = solve_weighted_subproblem_into(
        in.params, mu, ones, prox, in.rho, compact);
    ASSERT_TRUE(same_bits(compact, feasible)) << "instance " << i;
    ASSERT_TRUE(same_bits(info.load, masked.info.load)) << "instance " << i;
    ASSERT_TRUE(same_bits(info.capacity_multiplier,
                          masked.info.capacity_multiplier))
        << "instance " << i;
    EXPECT_EQ(info.sweeps, masked.info.sweeps) << "instance " << i;
  }
}

TEST(SubproblemSearch, WeightedFormReproducesWeightedBisectionBitForBit) {
  // The compact form with per-entry weights against the reference
  // bisection run with the same weights, on the feasible subsequence of the
  // seeded corpus.  Weights span singleton entries to 10^5-client classes.
  static constexpr double kWeights[] = {1.0, 2.0, 37.0, 1e5};
  constexpr std::size_t kInstances = 20000;
  Rng rng{1618};
  std::size_t sweeps = 0, binding = 0, slack = 0;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Instance in = draw_instance(rng, i);
    std::vector<double> mu, prox, weights;
    for (std::size_t c = 0; c < in.mu.size(); ++c) {
      if (in.mask[c] == 0.0) continue;
      mu.push_back(in.mu[c]);
      prox.push_back(in.prox[c]);
      weights.push_back(kWeights[rng.uniform_int(0, 3)]);
    }
    const std::vector<double> ones(mu.size(), 1.0);
    const Solved want =
        reference_subproblem(in.params, mu, ones, prox, in.rho, weights);
    std::vector<double> got;
    const SubproblemInfo info = solve_weighted_subproblem_into(
        in.params, mu, weights, prox, in.rho, got);
    ASSERT_TRUE(same_bits(got, want.allocation)) << "instance " << i;
    ASSERT_TRUE(same_bits(info.load, want.info.load)) << "instance " << i;
    ASSERT_TRUE(same_bits(info.capacity_multiplier,
                          want.info.capacity_multiplier))
        << "instance " << i;
    sweeps += info.sweeps;
    if (want.info.capacity_multiplier > 0.0)
      ++binding;
    else
      ++slack;
  }
  const double mean = static_cast<double>(sweeps) / kInstances;
  RecordProperty("mean_sweeps", std::to_string(mean));
  EXPECT_LE(mean, 12.0);
  EXPECT_GT(binding, kInstances / 10);
  EXPECT_GT(slack, kInstances / 10);
}

}  // namespace
}  // namespace edr::optim
