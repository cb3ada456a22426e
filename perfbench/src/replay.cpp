#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/aggregation.hpp"
#include "core/algorithm_registry.hpp"
#include "core/epoch_pipeline.hpp"
#include "core/epoch_problem.hpp"
#include "net/network.hpp"
#include "net/sim.hpp"
#include "runtime/live_protocol.hpp"
#include "runtime/local_cluster.hpp"

namespace perfbench {

using edr::core::PendingRequest;
using edr::telemetry::EventTracer;
using edr::telemetry::ScopedSpan;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, double> span_seconds(const EventTracer& tracer) {
  if (tracer.dropped() != 0)
    throw std::runtime_error("replay: span buffer overflowed");
  std::map<std::string, double> totals;
  for (const auto& event : tracer.events())
    if (event.phase == edr::telemetry::TraceEvent::Phase::kSpan)
      totals[event.name] += event.dur;
  return totals;
}

// ---------- batch assembly ----------

EpochBuilder::EpochBuilder(const edr::core::SystemConfig& cfg,
                           const std::vector<edr::workload::Request>& requests,
                           Schedule schedule, std::size_t live_epochs)
    : cfg_(cfg), schedule_(schedule), shared_model_(cfg.power) {
  const double fraction =
      schedule == Schedule::kLive
          ? edr::runtime::LiveConfig{}.transfer_window_fraction
          : edr::core::PipelinePolicy{}.transfer_window_fraction;
  window_s_ = cfg.epoch_length * fraction;
  std::size_t num_buckets = live_epochs;
  if (schedule == Schedule::kPipeline) {
    // EpochPipeline::bucket_requests sizes its buckets from the horizon.
    const double last = requests.empty() ? 0.0 : requests.back().arrival;
    const double horizon = std::max(last, cfg.epoch_length) + 1e-9;
    num_buckets = static_cast<std::size_t>(horizon / cfg.epoch_length) + 1;
  }
  buckets_.assign(num_buckets, {});
  for (const auto& request : requests) {
    const auto epoch =
        static_cast<std::size_t>(request.arrival / cfg.epoch_length);
    if (epoch >= buckets_.size()) continue;  // beyond the live schedule
    buckets_[epoch].push_back(
        {request.id, request.client, request.arrival, request.size_mb});
  }
}

bool EpochBuilder::next(EpochBatch& batch, EventTracer& tracer) {
  std::size_t epoch = 0;
  if (schedule_ == Schedule::kLive) {
    if (cursor_ >= buckets_.size()) return false;
    epoch = cursor_++;
    batch.requests = buckets_[epoch];
  } else {
    while (cursor_ < buckets_.size() && buckets_[cursor_].empty()) ++cursor_;
    if (cursor_ < buckets_.size()) {
      epoch = cursor_++;
      batch.requests = buckets_[epoch];
    } else {
      // Shed remainders with no organic epoch left get a synthetic one.
      if (backlog_.empty()) return false;
      epoch = cursor_++;
      batch.requests.clear();
    }
  }
  batch.epoch = epoch;
  for (const auto& request : backlog_) batch.requests.push_back(request);
  backlog_.clear();

  const std::size_t num_replicas = cfg_.replicas.size();
  batch.active_replicas.clear();
  for (std::size_t n = 0; n < num_replicas; ++n)
    batch.active_replicas.push_back(n);
  batch.alive.assign(num_replicas, true);

  std::vector<double> demand_by_client(cfg_.num_clients, 0.0);
  for (const auto& request : batch.requests)
    demand_by_client[request.client] += request.size_mb;
  batch.active_clients.clear();
  std::vector<edr::Megabytes> demands;
  for (std::uint32_t c = 0; c < cfg_.num_clients; ++c) {
    if (demand_by_client[c] <= 0.0) continue;
    bool reachable = false;
    for (const std::size_t n : batch.active_replicas)
      if (cfg_.latency(c, n) <= cfg_.max_latency) reachable = true;
    if (!reachable) continue;
    batch.active_clients.push_back(c);
    demands.push_back(demand_by_client[c]);
  }
  std::vector<PendingRequest> kept;
  for (const auto& request : batch.requests)
    if (std::binary_search(batch.active_clients.begin(),
                           batch.active_clients.end(), request.client))
      kept.push_back(request);
  batch.requests = std::move(kept);

  batch.problem.reset();
  if (batch.active_clients.empty()) return true;

  const ScopedSpan span(tracer, "build", "core");
  // The pipeline stamps the solve start (the epoch's closing boundary); the
  // live coordinator stamps the epoch's opening boundary.  Only tariffs
  // read it.
  const double now = schedule_ == Schedule::kLive
                         ? static_cast<double>(epoch) * cfg_.epoch_length
                         : static_cast<double>(epoch + 1) * cfg_.epoch_length;
  const edr::core::EpochProblemSpec spec{.cfg = &cfg_,
                                         .window = window_s_,
                                         .now = now,
                                         .active_clients = batch.active_clients,
                                         .active_replicas =
                                             batch.active_replicas,
                                         .models = {},
                                         .shared_model = &shared_model_};
  batch.problem.emplace(
      edr::core::make_epoch_problem(spec, std::move(demands)));
  const double shed =
      edr::core::shed_to_feasible(batch.problem, cfg_.max_latency);
  if (shed > 0.0) {
    for (auto& request : batch.requests) {
      const double shed_mb = request.size_mb * shed;
      request.size_mb -= shed_mb;
      if (cfg_.retry_shed && request.retries < cfg_.max_retries) {
        PendingRequest remainder = request;
        remainder.size_mb = shed_mb;
        remainder.retries += 1;
        backlog_.push_back(remainder);
      }
    }
  }
  return true;
}

// ---------- probes ----------

namespace {

constexpr std::uint64_t kDeliveryEpochs = 10;

const std::size_t kMaxFrameBytes =
    edr::runtime::LocalClusterOptions{}.max_frame_bytes;

/// A standalone simulator with the pipeline's link layout (solvers
/// [0, S), clients [S, S + C); per-client links carry the latency matrix,
/// the interconnect the minimum link latency) that delivers planned round
/// messages and counts them.
class NetProbe {
 public:
  explicit NetProbe(const edr::core::SystemConfig& cfg)
      : num_solvers_(cfg.replicas.size()) {
    for (std::size_t c = 0; c < cfg.num_clients; ++c) {
      for (std::size_t n = 0; n < num_solvers_; ++n) {
        edr::net::LinkParams params;
        params.latency = cfg.latency(c, n);
        params.bandwidth_mbps = cfg.replicas[n].bandwidth;
        network_.set_link(client_node(c), solver_node(n), params);
        network_.set_link(solver_node(n), client_node(c), params);
      }
    }
    edr::net::LinkParams inter;
    inter.latency = cfg.min_link_latency;
    inter.bandwidth_mbps = cfg.replicas.front().bandwidth;
    network_.set_default_link(inter);
    const auto count = [this](const edr::net::Message&) { ++delivered_; };
    for (std::size_t s = 0; s < num_solvers_; ++s)
      network_.attach(solver_node(s), count);
    for (std::size_t c = 0; c < cfg.num_clients; ++c)
      network_.attach(client_node(c), count);
  }
  NetProbe(const NetProbe&) = delete;
  NetProbe& operator=(const NetProbe&) = delete;

  void deliver(const std::vector<edr::core::PlannedMessage>& planned,
               std::uint64_t generation, Probes& out) {
    const std::uint64_t events_before = sim_.executed();
    const std::uint64_t delivered_before = delivered_;
    const double start = steady_seconds();
    for (const auto& message : planned) {
      edr::net::Message msg;
      msg.from = node_of(message.from_kind, message.from);
      msg.to = node_of(message.to_kind, message.to);
      msg.type = message.type;
      msg.bytes = message.bytes;
      msg.payload = generation;
      network_.send(std::move(msg));
    }
    sim_.run();
    out.deliver_s += steady_seconds() - start;
    out.messages += planned.size();
    out.delivered += delivered_ - delivered_before;
    out.events += sim_.executed() - events_before;
  }

 private:
  [[nodiscard]] edr::net::NodeId solver_node(std::size_t s) const {
    return static_cast<edr::net::NodeId>(s);
  }
  [[nodiscard]] edr::net::NodeId client_node(std::size_t c) const {
    return static_cast<edr::net::NodeId>(num_solvers_ + c);
  }
  [[nodiscard]] edr::net::NodeId node_of(edr::core::Endpoint kind,
                                         std::size_t index) const {
    return kind == edr::core::Endpoint::kSolver ? solver_node(index)
                                                : client_node(index);
  }

  std::size_t num_solvers_;
  edr::net::Simulator sim_;
  edr::net::SimNetwork network_{sim_};
  std::uint64_t delivered_ = 0;
};

/// The live frames one replica encodes and its receivers decode for this
/// epoch: a kRound per round per peer, and its kEpochDone column (built as
/// LiveReplica builds it).
void probe_codec(const edr::core::SystemConfig& cfg, const EpochBatch& batch,
                 const ReplayEpoch& epoch, const edr::Matrix& allocation,
                 Probes& out) {
  const std::size_t peers = batch.active_replicas.size() - 1;
  double start = steady_seconds();
  for (std::uint32_t round = 1; round <= epoch.rounds; ++round) {
    for (std::size_t peer = 1; peer <= peers; ++peer) {
      edr::runtime::LiveRound frame;
      frame.epoch = static_cast<std::uint32_t>(batch.epoch);
      frame.generation = 1;
      frame.round = round;
      frame.digest = epoch.digest;
      frame.load = allocation.col_sum(0);
      const auto msg = edr::runtime::encode_round(
          0, static_cast<edr::net::NodeId>(peer), frame);
      out.round_bytes += msg.bytes;
      (void)edr::runtime::decode_round(msg, kMaxFrameBytes);
    }
  }
  out.round_codec_s += steady_seconds() - start;
  out.round_frames += epoch.rounds * peers;

  edr::runtime::LiveEpochDone done;
  done.epoch = static_cast<std::uint32_t>(batch.epoch);
  done.generation = 1;
  done.rounds = epoch.rounds;
  done.digest = epoch.digest;
  done.objective = epoch.objective;
  const std::size_t rows = batch.active_clients.size();
  start = steady_seconds();
  if (cfg.representation != edr::core::SolverRepresentation::kDense) {
    done.kind = edr::runtime::LiveEpochDone::kSparseColumn;
    done.num_rows = static_cast<std::uint32_t>(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      if (allocation(row, 0) == 0.0) continue;
      done.indices.push_back(static_cast<std::uint32_t>(row));
      done.column.push_back(allocation(row, 0));
    }
  } else {
    done.column.resize(rows);
    for (std::size_t row = 0; row < rows; ++row)
      done.column[row] = allocation(row, 0);
  }
  const auto msg = edr::runtime::encode_epoch_done(
      0, static_cast<edr::net::NodeId>(batch.active_replicas.size()), done);
  (void)edr::runtime::decode_epoch_done(msg, kMaxFrameBytes);
  out.epoch_done_codec_s += steady_seconds() - start;
  out.epoch_done_bytes += msg.bytes;
  ++out.epoch_done_frames;

  edr::runtime::LiveStart live_start;
  live_start.epoch = done.epoch;
  live_start.alive.assign(cfg.replicas.size(), 1);
  out.start_bytes = static_cast<double>(
      edr::runtime::encode_start(batch.active_replicas.size(), 0, live_start)
          .bytes);
}

std::size_t max_rounds_of(const edr::core::SystemConfig& cfg) {
  if (cfg.algorithm == "cdpsm") return cfg.cdpsm.max_rounds;
  if (cfg.algorithm == "admm") return cfg.admm.max_rounds;
  return cfg.lddm.max_rounds;
}

}  // namespace

// ---------- replay ----------

ReplayResult replay(const edr::core::SystemConfig& cfg,
                    const std::vector<edr::workload::Request>& requests,
                    const ReplayOptions& options) {
  EventTracer& tracer = options.tracer != nullptr
                            ? *options.tracer
                            : edr::telemetry::disabled_tracer();
  std::optional<NetProbe> net;
  if (options.probes) net.emplace(cfg);

  ReplayResult result;
  const double started = steady_seconds();
  auto algorithm = edr::core::make_algorithm(cfg);
  if (!algorithm->iterative())
    throw std::invalid_argument("replay: needs an iterative backend");
  const std::size_t max_rounds = max_rounds_of(cfg);
  EpochBuilder builder(cfg, requests, options.schedule, options.live_epochs);
  EpochBatch batch;
  std::vector<edr::core::PlannedMessage> planned;
  while (builder.next(batch, tracer)) {
    ReplayEpoch record;
    record.epoch = batch.epoch;
    if (!batch.problem) {
      record.digest = edr::runtime::digest_doubles(nullptr, 0);
      result.epochs.push_back(record);
      continue;
    }
    const edr::optim::Problem& problem = *batch.problem;
    NetProbe* const deliver =
        net && result.probes.delivery_epochs < kDeliveryEpochs
            ? &*net
            : nullptr;
    if (deliver != nullptr) ++result.probes.delivery_epochs;

    std::optional<edr::core::ClientAggregation> aggregation;
    if (options.probes) {
      const double start = steady_seconds();
      aggregation = edr::core::build_client_aggregation(problem);
      const auto aggregated =
          edr::core::aggregate_problem(problem, *aggregation);
      result.probes.aggregate_s += steady_seconds() - start;
      result.probes.classes += aggregated.num_clients();
    }

    edr::core::EpochContext ctx;
    ctx.problem = &problem;
    ctx.active_replicas = &batch.active_replicas;
    ctx.active_clients = &batch.active_clients;
    ctx.requests = &batch.requests;
    ctx.replica_alive = &batch.alive;
    ctx.num_replicas = cfg.replicas.size();
    ctx.num_clients = cfg.num_clients;
    ctx.num_solvers = cfg.replicas.size();
    {
      const ScopedSpan span(tracer, "begin", "core");
      algorithm->begin_epoch(ctx);
    }
    while (true) {
      {
        const ScopedSpan span(tracer, "plan", "core");
        algorithm->plan_round(ctx, planned);
      }
      if (deliver != nullptr)
        deliver->deliver(planned, record.rounds + 1, result.probes);
      bool done = false;
      {
        const ScopedSpan span(tracer, "step", "core");
        done = algorithm->step_round(ctx);
      }
      ++record.rounds;
      if (done) break;
    }
    edr::Matrix allocation;
    {
      const ScopedSpan span(tracer, "extract", "core");
      allocation = algorithm->extract_allocation(ctx);
    }
    record.solved = true;
    record.capped = record.rounds >= max_rounds;
    record.digest = edr::runtime::digest_matrix(allocation);
    record.objective = problem.total_cost(allocation);

    if (options.probes) {
      probe_codec(cfg, batch, record, allocation, result.probes);
      // Fan the allocation's class totals back out, as the aggregated
      // engine does on extraction.
      edr::Matrix class_totals(aggregation->num_classes(), allocation.cols(),
                               0.0);
      for (std::size_t row = 0; row < allocation.rows(); ++row)
        for (std::size_t col = 0; col < allocation.cols(); ++col)
          class_totals(aggregation->class_of[row], col) += allocation(row, col);
      edr::Matrix expanded;
      const double start = steady_seconds();
      edr::core::expand_allocation(*aggregation, class_totals, expanded);
      result.probes.expand_s += steady_seconds() - start;
    }
    result.epochs.push_back(record);
  }
  result.wall_s = steady_seconds() - started;
  return result;
}

}  // namespace perfbench
