// Quickstart: the EDR public API in one page.
//
// Builds a replica-selection problem (4 replicas with different regional
// electricity prices, 6 clients with demands), solves it with the
// distributed LDDM scheduler, and compares the energy cost against
// Round-Robin and the exact centralized optimum.
//
//   ./examples/quickstart
#include <cstdio>

#include "common/table.hpp"
#include "core/scheduler.hpp"
#include "optim/instance.hpp"

int main() {
  using namespace edr;

  // 1. Describe the replicas: price (¢/kWh), energy model, bandwidth cap.
  std::vector<optim::ReplicaParams> replicas(4);
  const double prices[] = {2.0, 12.0, 3.0, 18.0};
  for (std::size_t n = 0; n < replicas.size(); ++n) {
    replicas[n].price = prices[n];
    replicas[n].alpha = 1.0;   // server energy per MB
    replicas[n].beta = 0.01;   // network-device coefficient
    replicas[n].gamma = 3.0;   // cubic network term (data-intensive)
    replicas[n].bandwidth = 100.0;  // MB per scheduling epoch
  }

  // 2. Describe the clients: demand (MB) and latency to each replica (ms).
  std::vector<Megabytes> demands{25.0, 40.0, 15.0, 30.0, 20.0, 35.0};
  Rng rng{7};
  Matrix latency(demands.size(), replicas.size());
  for (auto& value : latency.flat()) value = rng.uniform(0.2, 1.5);
  latency(1, 0) = 2.5;  // client 1 is out of range of replica 0

  // 3. Build the problem (T = 1.8 ms latency bound, as in the paper).
  const optim::Problem problem(demands, replicas, latency, 1.8);
  if (const auto issue = problem.validate(); !issue.empty()) {
    std::fprintf(stderr, "bad instance: %s\n", issue.c_str());
    return 1;
  }

  // 4. Schedule with EDR's distributed LDDM, plus two reference points.
  core::LddmScheduler lddm;
  core::CentralizedScheduler central;
  const auto edr_result = lddm.schedule(problem);
  const auto central_result = central.schedule(problem);
  const Matrix rr = core::round_robin_allocation(problem);

  // 5. Inspect the resulting traffic split and costs.
  Table split({"replica", "price", "EDR-LDDM load MB", "RoundRobin load MB"});
  for (std::size_t n = 0; n < replicas.size(); ++n)
    split.add_row({std::to_string(n), Table::num(prices[n], 0),
                   Table::num(edr_result.allocation.col_sum(n), 1),
                   Table::num(rr.col_sum(n), 1)});
  std::printf("%s\n", split.to_string().c_str());

  std::printf("energy cost (model units):\n");
  std::printf("  EDR-LDDM    : %8.2f  (%zu distributed rounds, %zu bytes)\n",
              problem.total_cost(edr_result.allocation), edr_result.rounds,
              edr_result.bytes);
  std::printf("  Centralized : %8.2f  (exact optimum)\n",
              problem.total_cost(central_result.allocation));
  std::printf("  Round-Robin : %8.2f\n", problem.total_cost(rr));
  const double saving = 1.0 - problem.total_cost(edr_result.allocation) /
                                  problem.total_cost(rr);
  std::printf("EDR saves %.1f%% vs Round-Robin on this instance.\n",
              saving * 100.0);
  return 0;
}
