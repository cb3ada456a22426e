#include "optim/objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edr::optim {
namespace {

// The bisection whose answer the search reproduces: halve [t_lo, t_hi] at
// most kMaxHalvings times, stopping once hi − lo < kTolerance·max(1, |hi|).
constexpr int kMaxHalvings = 200;
constexpr double kTolerance = 1e-13;
// Newton stops once its bracket is this fraction of the bisection's final
// width, so the replay rarely finds a midpoint inside it.  The bracket is
// still ≥ 28 ulps of t wide, so a probe of half of it always moves t.
constexpr double kBracketFraction = 1.0 / 16.0;
constexpr int kMaxNewtonSteps = 64;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// s(t) = Σ_c q_c(t) and the total weight of the positive q_c(t): around
/// t, s falls with slope −active/ρ.
struct Sample {
  double t = 0.0;
  double load = 0.0;
  double active = 0.0;
};

/// What the search has learned about a nondecreasing f: `below` is the
/// largest evaluated t with f(t) ≤ 0, `above` the smallest with f(t) > 0.
struct Bracket {
  Sample below{-kInf, 0.0, 0.0};
  double above = kInf;

  void record(const Sample& x, double f) {
    if (f <= 0.0) {
      if (x.t > below.t) below = x;
    } else if (x.t < above) {
      above = x.t;
    }
  }
};

/// f's value and slope at a swept sample, for the Newton step.
struct Point {
  double value;
  double slope;
};

/// Load sweeps over one column and the bisection-exact root search.
/// kMasked selects between the dense form (mask[c] == 0 forces q_c = 0,
/// every weight is 1) and the compact weighted form (every coordinate
/// active, entry c weighs w_c).  `entry` is the mask or the weights.
template <bool kMasked>
class ColumnSearch {
 public:
  ColumnSearch(const ReplicaParams& params, std::span<const double> multipliers,
               std::span<const double> entry,
               std::span<const double> prox_center, double rho)
      : params_(params),
        multipliers_(multipliers),
        entry_(entry),
        prox_center_(prox_center),
        rho_(rho) {}

  /// One load sweep: s(t) and its active weight, writing q(t) to `out`
  /// when given.  G costs nothing beyond s, so every sweep narrows its
  /// bracket.
  Sample sweep(double t, double* out = nullptr) {
    ++sweeps_;
    double total = 0.0;
    double active = 0.0;
    for (std::size_t c = 0; c < multipliers_.size(); ++c) {
      const double w = kMasked ? 1.0 : entry_[c];
      double q = 0.0;
      if (!kMasked || entry_[c] != 0.0)
        q = std::max(0.0, prox_center_[c] - w * (multipliers_[c] + t) / rho_);
      if (out) out[c] = q;
      total += q;
      active += q > 0.0 ? w : 0.0;
    }
    const Sample x{t, total, active};
    capacity_.record(x, params_.bandwidth - total);
    return x;
  }

  /// The root the bisection of a nondecreasing f over (t_lo, t_hi)
  /// returns, bit for bit.  `f` maps a swept sample to f and f' there;
  /// `bracket` holds what earlier sweeps learned of f and is narrowed by
  /// every evaluation; Newton starts from the swept sample `start`.
  template <class F>
  double solve(F f, Bracket& bracket, Sample start, double t_lo,
               double t_hi) {
    const auto eval = [&](const Sample& x) {
      const Point p = f(x);
      bracket.record(x, p.value);
      return p;
    };
    // 1. Bracket: safeguarded Newton, falling back to halving the bracket
    //    when a step leaves it.  Once Newton's step is below the target
    //    width it probes just across the root instead.
    Sample x = start;
    Point p = eval(x);
    for (int step = 0; step < kMaxNewtonSteps; ++step) {
      const double lo = std::max(t_lo, bracket.below.t);
      const double hi = std::min(t_hi, bracket.above);
      const double width =
          kBracketFraction * kTolerance * std::max(1.0, std::abs(x.t));
      if (hi - lo <= width) break;
      double delta = -p.value / p.slope;
      if (!(std::abs(delta) >= 0.5 * width))
        delta = p.value <= 0.0 ? 0.5 * width : -0.5 * width;
      double next = x.t + delta;
      if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
      x = sweep(next);
      p = eval(x);
    }
    // 2. Replay the bisection.  f is nondecreasing, so a midpoint at or
    //    below a swept f ≤ 0 goes left and one at or above a swept f > 0
    //    goes right, exactly as evaluating it would; only midpoints inside
    //    the bracket are swept.
    double lo = t_lo;
    double hi = t_hi;
    for (int i = 0; i < kMaxHalvings; ++i) {
      const double mid = 0.5 * (lo + hi);
      bool left;
      if (mid <= bracket.below.t)
        left = true;
      else if (mid >= bracket.above)
        left = false;
      else
        left = eval(sweep(mid)).value <= 0.0;
      if (left)
        lo = mid;
      else
        hi = mid;
      if (hi - lo < kTolerance * std::max(1.0, std::abs(hi))) break;
    }
    return 0.5 * (lo + hi);
  }

  /// G(t) = B − s(t)'s bracket, narrowed by every sweep.
  Bracket& capacity() { return capacity_; }

  [[nodiscard]] std::size_t sweeps() const { return sweeps_; }

 private:
  const ReplicaParams& params_;
  std::span<const double> multipliers_;
  std::span<const double> entry_;
  std::span<const double> prox_center_;
  double rho_;
  Bracket capacity_;
  std::size_t sweeps_ = 0;
};

/// `entry` is the mask (kMasked) or the per-entry weights (compact form).
template <bool kMasked>
SubproblemInfo solve_subproblem_impl(const ReplicaParams& params,
                                     std::span<const double> multipliers,
                                     std::span<const double> entry,
                                     std::span<const double> prox_center,
                                     double rho,
                                     std::vector<double>& allocation) {
  assert(multipliers.size() == entry.size());
  assert(multipliers.size() == prox_center.size());
  assert(allocation.empty() || allocation.data() != prox_center.data());
  if (rho <= 0.0)
    throw std::invalid_argument(
        "solve_replica_subproblem_into: rho must be > 0");

  const std::size_t clients = multipliers.size();
  SubproblemInfo result;
  allocation.resize(clients);

  // Bracket t for the unconstrained stationarity equation t = φ'(s(t)).
  // s(t) is nonincreasing, φ' nondecreasing in s, so F(t) = t − φ'(s(t)) is
  // strictly increasing.  Lower bound: s ≥ 0 gives F(φ'(0)) ≤ 0; upper
  // bound: t large enough that every q_c clamps to 0, giving s = 0 and
  // F(t) = t − φ'(0) > 0 for t > φ'(0).
  const double t_lo = replica_cost_derivative(params, 0.0);
  double t_hi = t_lo + 1.0;
  for (std::size_t c = 0; c < clients; ++c) {
    if (kMasked && entry[c] == 0.0) continue;
    const double w = kMasked ? 1.0 : entry[c];
    t_hi = std::max(t_hi, rho * prox_center[c] / w - multipliers[c] + 1.0);
  }

  ColumnSearch<kMasked> search(params, multipliers, entry, prox_center, rho);
  // F' = 1 + φ''(s)·k/ρ (k = active weight), with φ''(s) =
  // (φ'(s) − uα)(γ − 1)/s read off φ'(s) = u(α + βγ·s^(γ−1)) instead of a
  // second pow.
  const auto stationarity = [&](const Sample& x) {
    const double phi_prime = replica_cost_derivative(params, x.load);
    double curvature = 0.0;
    if (x.load > 0.0)
      curvature = std::max(0.0, phi_prime - params.price * params.alpha) *
                  (params.gamma - 1.0) / x.load;
    return Point{x.t - phi_prime, 1.0 + curvature * (x.active / rho)};
  };
  Bracket stationarity_bracket;
  const double t_star = search.solve(stationarity, stationarity_bracket,
                                     search.sweep(t_lo), t_lo, t_hi);
  double s_star = search.sweep(t_star, allocation.data()).load;

  if (s_star > params.bandwidth + 1e-12) {
    // Capacity binds: solve G(t) = B − s(t) = 0 instead (s is nonincreasing
    // in t, so G is nondecreasing; G' = k/ρ).  Every sweep so far narrowed
    // G's bracket, so Newton starts from the largest swept t with G ≤ 0.
    const auto capacity = [&](const Sample& x) {
      return Point{params.bandwidth - x.load, x.active / rho};
    };
    const double t_cap = search.solve(capacity, search.capacity(),
                                      search.capacity().below, t_lo, t_hi);
    s_star = search.sweep(t_cap, allocation.data()).load;
    result.capacity_multiplier =
        std::max(0.0, t_cap - replica_cost_derivative(params, s_star));
  }

  result.load = s_star;
  result.sweeps = search.sweeps();
  return result;
}

}  // namespace

SubproblemInfo solve_replica_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> mask, std::span<const double> prox_center,
    double rho, std::vector<double>& allocation) {
  return solve_subproblem_impl<true>(params, multipliers, mask, prox_center,
                                     rho, allocation);
}

SubproblemInfo solve_weighted_subproblem_into(
    const ReplicaParams& params, std::span<const double> multipliers,
    std::span<const double> weights, std::span<const double> prox_center,
    double rho, std::vector<double>& allocation) {
  return solve_subproblem_impl<false>(params, multipliers, weights,
                                      prox_center, rho, allocation);
}

}  // namespace edr::optim
