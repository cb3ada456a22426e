#include "workloads.hpp"

#include "common/rng.hpp"
#include "core/epoch_pipeline.hpp"
#include "demand.hpp"
#include "optim/instance.hpp"

namespace perfbench {

namespace {

using edr::core::SolverRepresentation;

// Trace lengths are sized so one simulator run takes a few seconds on a
// 4-CPU host (several runs fit in one measurement) and the live run keeps
// at least 200 closed-loop epochs.
const std::vector<Workload> kWorkloads = {
    {"sim_dense_1k", Substrate::kSim, 8, 1000, 0.5, 8,
     SolverRepresentation::kDense},
    {"sim_agg_100k", Substrate::kSim, 8, 100000, 0.004, 30,
     SolverRepresentation::kAggregated},
    {"live_dense_1k", Substrate::kLive, 3, 1000, 0.5, 200,
     SolverRepresentation::kDense},
};

// Independent streams for the link latencies and the demand.
constexpr std::uint64_t kDemandStream = 0xd1b54a32d192ed03ULL;

double pooled_capacity_mb(const std::vector<edr::optim::ReplicaParams>& reps,
                          double window_s) {
  double total = 0.0;
  for (const auto& replica : reps) total += replica.bandwidth * window_s;
  return total;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const auto& workload : kWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

Inputs make_inputs(const Workload& workload, std::uint64_t seed) {
  Inputs inputs;
  DemandSpec demand;
  demand.clients = workload.clients;
  demand.rate_per_client_hz = workload.rate_per_client_hz;
  demand.epochs = workload.epochs;
  demand.load_fraction = kLoadFraction;

  if (workload.substrate == Substrate::kLive) {
    auto& live = inputs.live;
    live = edr::runtime::make_default_live_config(
        workload.replicas, workload.clients,
        static_cast<std::uint32_t>(workload.epochs), seed);
    live.representation = workload.representation;
    demand.epoch_length_s = live.epoch_length;
    demand.pooled_capacity_mb = pooled_capacity_mb(
        live.replicas, live.epoch_length * live.transfer_window_fraction);
    live.requests = generate_demand(demand, seed ^ kDemandStream);
    inputs.requests = live.requests;
    inputs.system = live.to_system_config();
    return inputs;
  }

  // The simulator runs the paper's SystemG setting (analysis::paper_config):
  // sub-millisecond LAN links and T = 1.8 ms.
  auto& cfg = inputs.system;
  cfg.algorithm = "lddm";
  const auto base = edr::optim::paper_replica_set();
  for (std::size_t n = 0; n < workload.replicas; ++n)
    cfg.replicas.push_back(base[n % base.size()]);
  cfg.num_clients = workload.clients;
  cfg.min_link_latency = 0.05;
  cfg.max_link_latency = 0.35;
  cfg.max_latency = 1.8;
  cfg.representation = workload.representation;
  cfg.record_traces = false;
  cfg.seed = seed;
  edr::Rng rng{seed};
  cfg.latency = edr::core::make_latency_matrix(
      rng, workload.clients, workload.replicas, cfg.min_link_latency,
      cfg.max_link_latency, cfg.max_latency);
  demand.epoch_length_s = cfg.epoch_length;
  demand.pooled_capacity_mb = pooled_capacity_mb(
      cfg.replicas, cfg.epoch_length *
                        edr::core::PipelinePolicy{}.transfer_window_fraction);
  inputs.requests = generate_demand(demand, seed ^ kDemandStream);

  auto& live = inputs.live;
  live.algorithm = cfg.algorithm;
  live.epochs = static_cast<std::uint32_t>(workload.epochs);
  live.epoch_length = cfg.epoch_length;
  live.num_clients = static_cast<std::uint32_t>(workload.clients);
  live.max_latency = cfg.max_latency;
  live.representation = cfg.representation;
  live.seed = seed;
  live.replicas = cfg.replicas;
  live.latency = cfg.latency;
  live.requests = inputs.requests;
  return inputs;
}

}  // namespace perfbench
