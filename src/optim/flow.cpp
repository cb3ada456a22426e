#include "optim/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <span>

#include "optim/problem.hpp"

namespace edr::optim {

MaxFlow::MaxFlow(std::size_t num_nodes, double epsilon)
    : epsilon_(epsilon),
      adj_(num_nodes),
      level_(num_nodes),
      next_edge_(num_nodes) {}

std::size_t MaxFlow::add_edge(std::size_t from, std::size_t to,
                              double capacity) {
  adj_[from].push_back({to, capacity, adj_[to].size()});
  adj_[to].push_back({from, 0.0, adj_[from].size() - 1});
  edge_handles_.emplace_back(from, adj_[from].size() - 1);
  original_capacity_.push_back(capacity);
  return edge_handles_.size() - 1;
}

bool MaxFlow::build_levels(std::size_t source, std::size_t sink) {
  std::ranges::fill(level_, -1);
  std::queue<std::size_t> frontier;
  level_[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const std::size_t node = frontier.front();
    frontier.pop();
    for (const Edge& edge : adj_[node]) {
      if (edge.capacity > epsilon_ && level_[edge.to] < 0) {
        level_[edge.to] = level_[node] + 1;
        frontier.push(edge.to);
      }
    }
  }
  return level_[sink] >= 0;
}

double MaxFlow::push(std::size_t node, std::size_t sink, double limit) {
  if (node == sink) return limit;
  for (std::size_t& i = next_edge_[node]; i < adj_[node].size(); ++i) {
    Edge& edge = adj_[node][i];
    if (edge.capacity > epsilon_ && level_[edge.to] == level_[node] + 1) {
      const double pushed =
          push(edge.to, sink, std::min(limit, edge.capacity));
      if (pushed > epsilon_) {
        edge.capacity -= pushed;
        adj_[edge.to][edge.reverse].capacity += pushed;
        return pushed;
      }
    }
  }
  return 0.0;
}

double MaxFlow::solve(std::size_t source, std::size_t sink) {
  double total = 0.0;
  while (build_levels(source, sink)) {
    std::ranges::fill(next_edge_, 0);
    for (;;) {
      const double pushed =
          push(source, sink, std::numeric_limits<double>::infinity());
      if (pushed <= epsilon_) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlow::flow_on(std::size_t edge_id) const {
  const auto [node, index] = edge_handles_[edge_id];
  return original_capacity_[edge_id] - adj_[node][index].capacity;
}

namespace {

// The transportation graph of a problem, or of a part of it: source ->
// client c (cap R_c) -> latency-feasible replica n (cap R_c: a client never
// routes more than its demand over one pair) -> sink (cap set per replica).
// Node layout: 0 = source, 1..C = clients, C+1..C+N = replicas, last = sink.
class TransportGraph {
 public:
  TransportGraph(const Problem& problem, double epsilon)
      : problem_(problem),
        sink_(problem.num_clients() + problem.num_replicas() + 1),
        flow_(sink_ + 1, epsilon) {}

  /// Add client c with its pairs to the replicas `replicas` marks (all of
  /// them when null).
  void add_client(std::size_t c, const std::vector<char>* replicas = nullptr) {
    flow_.add_edge(0, 1 + c, problem_.demand(c));
    for (const std::uint32_t n : problem_.sparsity()->row_cols(c))
      if (replicas == nullptr || (*replicas)[n])
        pairs_.push_back(
            {c, n, flow_.add_edge(1 + c, replica_node(n), problem_.demand(c))});
  }
  void cap_replica(std::size_t n, double capacity) {
    flow_.add_edge(replica_node(n), sink_, capacity);
  }
  double solve() { return flow_.solve(0, sink_); }
  [[nodiscard]] bool reachable_replica(std::size_t n) const {
    return flow_.reachable(replica_node(n));
  }
  /// Write the flow on every pair into `allocation` (clients x replicas).
  void write_allocation(Matrix& allocation) const {
    for (const Pair& pair : pairs_)
      allocation(pair.client, pair.replica) = flow_.flow_on(pair.edge);
  }

 private:
  struct Pair {
    std::size_t client, replica, edge;
  };
  [[nodiscard]] std::size_t replica_node(std::size_t n) const {
    return 1 + problem_.num_clients() + n;
  }

  const Problem& problem_;
  std::size_t sink_;
  MaxFlow flow_;
  std::vector<Pair> pairs_;
};

}  // namespace

TransportResult check_transport_feasible(const Problem& problem,
                                         double slack) {
  TransportGraph graph(problem, 1e-12);
  for (std::size_t c = 0; c < problem.num_clients(); ++c) graph.add_client(c);
  for (std::size_t n = 0; n < problem.num_replicas(); ++n)
    graph.cap_replica(n, problem.replica(n).bandwidth * slack);

  TransportResult result;
  result.routed = graph.solve();
  result.feasible = result.routed >= problem.total_demand() - 1e-7;
  result.allocation = Matrix(problem.num_clients(), problem.num_replicas());
  graph.write_allocation(result.allocation);
  return result;
}

std::optional<Matrix> initial_feasible_point(const Problem& problem) {
  TransportResult routed = check_transport_feasible(problem);
  if (!routed.feasible) return std::nullopt;
  return std::move(routed.allocation);
}

namespace {

// Relative to the total demand: a flow that routes all but kSaturationTol of
// a part's demand saturates it, and residual capacities up to kResidualTol
// count as zero.
constexpr double kSaturationTol = 1e-10;
constexpr double kResidualTol = 1e-14;

/// The load at which replica n's marginal cost E_n'(s) = u(α + βγ s^{γ−1})
/// reaches `price`, within [0, B_n].  A constant marginal cost (γ = 1,
/// β = 0, or B = 0) counts as full at its own price.
double load_at_price(const ReplicaParams& r, double price) {
  if (price < replica_cost_derivative(r, 0.0)) return 0.0;
  if (price >= replica_cost_derivative(r, r.bandwidth)) return r.bandwidth;
  const double base = (price / r.price - r.alpha) / (r.beta * r.gamma);
  return std::min(r.bandwidth,
                  std::pow(std::max(base, 0.0), 1.0 / (r.gamma - 1.0)));
}

/// Water-fill `demand` over `replicas` at the least marginal price whose
/// loads cover it (bisection to adjacent doubles).  Constant-marginal
/// replicas at exactly that price share what is left in index order, the
/// greedy fill of a linear piece.  False when the capacities cannot cover
/// the demand.
bool water_fill(const Problem& problem, std::span<const std::size_t> replicas,
                double demand, double tol, std::vector<double>& loads) {
  const auto fill = [&](double price) {
    double total = 0.0;
    for (const std::size_t n : replicas)
      total += loads[n] = load_at_price(problem.replica(n), price);
    return total;
  };
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const std::size_t n : replicas) {
    const ReplicaParams& r = problem.replica(n);
    lo = std::min(lo, replica_cost_derivative(r, 0.0));
    hi = std::max(hi, replica_cost_derivative(r, r.bandwidth));
  }
  if (replicas.empty() || fill(hi) < demand - tol) return demand <= tol;
  if (fill(lo) >= demand) hi = lo;
  for (double mid = lo + 0.5 * (hi - lo); mid > lo && mid < hi;
       mid = lo + 0.5 * (hi - lo))
    (fill(mid) < demand ? lo : hi) = mid;
  double excess = fill(hi) - demand;
  for (auto it = replicas.rbegin(); it != replicas.rend() && excess > 0.0;
       ++it) {
    const ReplicaParams& r = problem.replica(*it);
    if (replica_cost_derivative(r, 0.0) != hi ||
        replica_cost_derivative(r, r.bandwidth) != hi)
      continue;
    const double give_back = std::min(excess, loads[*it]);
    loads[*it] -= give_back;
    excess -= give_back;
  }
  return true;
}

struct Part {
  std::vector<std::size_t> clients;
  std::vector<std::size_t> replicas;
};

}  // namespace

std::optional<ExactResult> solve_exact(const Problem& problem) {
  const std::size_t replicas = problem.num_replicas();
  const double tol = kSaturationTol * problem.total_demand();
  const double epsilon = kResidualTol * problem.total_demand();
  ExactResult result;
  result.allocation = Matrix(problem.num_clients(), replicas);
  std::vector<double> loads(replicas, 0.0);
  std::vector<Part> parts(1);
  parts[0].clients.resize(problem.num_clients());
  std::iota(parts[0].clients.begin(), parts[0].clients.end(), 0);
  parts[0].replicas.resize(replicas);
  std::iota(parts[0].replicas.begin(), parts[0].replicas.end(), 0);
  std::vector<char> mask(replicas);

  while (!parts.empty()) {
    Part part = std::move(parts.back());
    parts.pop_back();
    double demand = 0.0;
    for (const std::size_t c : part.clients) demand += problem.demand(c);
    if (!water_fill(problem, part.replicas, demand, tol, loads))
      return std::nullopt;

    std::ranges::fill(mask, 0);
    for (const std::size_t n : part.replicas) mask[n] = 1;
    TransportGraph graph(problem, epsilon);
    for (const std::size_t c : part.clients) graph.add_client(c, &mask);
    for (const std::size_t n : part.replicas) graph.cap_replica(n, loads[n]);
    ++result.max_flows;
    if (graph.solve() >= demand - tol) {
      // The loads are routable, so they are optimal, and this flow is the
      // part's clients' rows of the allocation.
      graph.write_allocation(result.allocation);
      continue;
    }

    // The replicas cut off from the source are over-assigned: the clients
    // that reach them can route only their own demand there.  At the
    // optimum those clients serve exactly them, and the rest serve the
    // rest, so each side is an independent smaller instance.
    Part cut, rest;
    for (const std::size_t n : part.replicas)
      (graph.reachable_replica(n) ? rest : cut).replicas.push_back(n);
    if (cut.replicas.empty() || rest.replicas.empty()) return std::nullopt;
    std::ranges::fill(mask, 0);
    for (const std::size_t n : cut.replicas) mask[n] = 1;
    for (const std::size_t c : part.clients) {
      const auto pairs = problem.sparsity()->row_cols(c);
      const bool touches_cut =
          std::ranges::any_of(pairs, [&](std::uint32_t n) { return mask[n]; });
      (touches_cut ? cut : rest).clients.push_back(c);
    }
    parts.push_back(std::move(rest));
    parts.push_back(std::move(cut));
  }

  result.allocation.col_sums(result.loads);
  result.cost = problem.total_cost(result.allocation);
  return result;
}

double optimality_gap(const Problem& problem, const Matrix& allocation) {
  std::vector<double> loads;
  allocation.col_sums(loads);
  std::vector<double> price(problem.num_replicas());
  for (std::size_t n = 0; n < price.size(); ++n)
    price[n] = replica_cost_derivative(problem.replica(n), loads[n]);
  std::vector<std::size_t> order(price.size());
  std::iota(order.begin(), order.end(), 0);
  std::ranges::stable_sort(
      order, [&](std::size_t a, std::size_t b) { return price[a] < price[b]; });

  TransportGraph graph(problem, kResidualTol * problem.total_demand());
  for (std::size_t c = 0; c < problem.num_clients(); ++c) graph.add_client(c);
  double gap = 0.0;
  for (const std::size_t n : order) {
    graph.cap_replica(n, problem.replica(n).bandwidth);
    gap += price[n] * (loads[n] - graph.solve());
  }
  return gap;
}

double relative_gap(const Problem& problem, const Matrix& allocation,
                    Cents optimal_cost) {
  const double cost = problem.total_cost(allocation);
  return (cost - optimal_cost) / (std::abs(optimal_cost) + 1e-30);
}

}  // namespace edr::optim
