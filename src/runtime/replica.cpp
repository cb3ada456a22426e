#include "runtime/replica.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/algorithm_registry.hpp"
#include "core/epoch_problem.hpp"

namespace edr::runtime {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LiveReplica::LiveReplica(MessageBus& bus, net::NodeId coordinator,
                         ReplicaOptions options)
    : bus_(bus), coordinator_(coordinator), options_(options) {}

ReplicaExit LiveReplica::run() {
  LiveHello hello;
  hello.node = bus_.self();
  hello.port = options_.listen_port;
  if (observer_ != nullptr)
    hello.trace = observer_->flow_out("hello", "live_ctl");
  bus_.post(encode_hello(bus_.self(), coordinator_, hello));

  std::optional<LiveStart> queued_start;
  double idle_since = now_seconds();
  while (true) {
    if (queued_start) {
      // A start frame handed back by a preempted epoch runs immediately.
      const LiveStart start = *queued_start;
      queued_start.reset();
      if (config_ && start.alive.size() > bus_.self() &&
          start.alive[bus_.self()]) {
        rebuild_for_generation(start.generation);
        EpochOutcome outcome = run_epoch(start);
        if (outcome.bus_closed) return ReplicaExit::kBusClosed;
        flush_telemetry();
        if (outcome.shutdown) return ReplicaExit::kShutdown;
        if (outcome.next_start) queued_start = outcome.next_start;
      }
      idle_since = now_seconds();
      continue;
    }
    const auto received = bus_.receive_for(0.25);
    if (!received) {
      if (now_seconds() - idle_since > options_.idle_timeout_s)
        return ReplicaExit::kIdleTimeout;
      continue;
    }
    idle_since = now_seconds();
    switch (received->type) {
      case kConfig: {
        config_ = decode_config(*received, bus_.max_frame_bytes());
        if (!config_->power_per_replica.empty() &&
            config_->power_per_replica.size() != config_->num_replicas())
          throw std::invalid_argument(
              "live: need one power model per replica (or none)");
        system_config_ = config_->to_system_config();
        shared_model_ = power::PowerModel{config_->power};
        models_.clear();
        for (const auto& params : config_->power_per_replica)
          models_.emplace_back(params);
        if (observer_ != nullptr) observer_->set_power_params(config_->power);
        algorithm_.reset();
        retry_backlog_.clear();
        // pending_rounds_ survives deliberately: over TCP a fast peer's
        // first round frame can arrive on its own connection before the
        // coordinator's config frame is drained from the shared inbox.
        bucket_requests();
        break;
      }
      case kPeers:
        apply_peers(decode_peers(*received, bus_.max_frame_bytes()));
        break;
      case kStart:
        queued_start = decode_start(*received, bus_.max_frame_bytes());
        if (observer_ != nullptr)
          observer_->flow_in(queued_start->trace, "start", "live_start");
        break;
      case kTimeProbe:
        reply_time_probe(*received);
        break;
      case kRound: {
        // A fast peer's first round frame can overtake our own kStart (the
        // coordinator posts starts one receiver at a time).  Buffer it for
        // the barrier instead of dropping it, or the peer gets blamed for
        // a stall it did not cause.
        const LiveRound peer = decode_round(*received, bus_.max_frame_bytes());
        if (observer_ != nullptr)
          observer_->flow_in(peer.trace, "round", "live_round");
        pending_rounds_[{peer.generation, peer.epoch, peer.round}]
                       [received->from] = peer.digest;
        break;
      }
      case kShutdown:
        flush_telemetry();
        return ReplicaExit::kShutdown;
      default:
        break;  // peer-down notices and strays: not ours to act on
    }
  }
}

void LiveReplica::apply_peers(const LivePeers& peers) {
  if (observer_ != nullptr)
    observer_->flow_in(peers.trace, "peers", "live_ctl");
  generation_ = std::max(generation_, peers.generation);
  scheduled_ = peers.alive;
  for (const auto& entry : peers.peers) {
    if (entry.node == bus_.self() || entry.port == 0) continue;
    bus_.connect_peer(entry.node, "127.0.0.1", entry.port);
  }
}

void LiveReplica::rebuild_for_generation(std::uint64_t generation) {
  if (algorithm_ && algorithm_generation_ == generation) return;
  // A membership change cold-starts *every* replica: survivors carry
  // warm-start state and retry backlogs a rejoiner cannot reconstruct, so
  // determinism requires discarding both on a generation bump.
  algorithm_ = core::make_algorithm(system_config_);
  algorithm_generation_ = generation;
  retry_backlog_.clear();
}

void LiveReplica::bucket_requests() {
  epoch_buckets_.assign(config_->epochs, {});
  for (const auto& request : config_->requests) {
    if (request.client >= config_->num_clients)
      throw std::invalid_argument("live: request client out of range");
    const auto epoch =
        static_cast<std::size_t>(request.arrival / config_->epoch_length);
    if (epoch >= epoch_buckets_.size()) continue;  // beyond the schedule
    epoch_buckets_[epoch].push_back(
        {request.id, request.client, request.arrival, request.size_mb});
  }
}

LiveReplica::EpochOutcome LiveReplica::run_epoch(const LiveStart& start) {
  EpochOutcome outcome;
  const auto tid = static_cast<std::uint32_t>(bus_.self());
  const telemetry::ScopedSpan epoch_span(tracer(), "epoch", "live_epoch", tid);
  const auto num_replicas = config_->num_replicas();
  const auto num_clients = std::size_t{config_->num_clients};
  const std::uint64_t mismatches_before = digest_mismatches_;

  // ---- batch assembly: identical arithmetic to EpochPipeline::start_solve
  current_requests_ = epoch_buckets_[start.epoch];
  for (auto& request : retry_backlog_) current_requests_.push_back(request);
  retry_backlog_.clear();

  active_replicas_.clear();
  replica_alive_.assign(num_replicas, false);
  for (std::size_t n = 0; n < num_replicas; ++n)
    if (n < start.alive.size() && start.alive[n]) {
      active_replicas_.push_back(n);
      replica_alive_[n] = true;
    }

  std::vector<double> demand_by_client(num_clients, 0.0);
  for (const auto& request : current_requests_)
    demand_by_client[request.client] += request.size_mb;

  active_clients_.clear();
  std::vector<Megabytes> demands;
  std::vector<bool> client_kept(num_clients, false);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    if (demand_by_client[c] <= 0.0) continue;
    bool reachable = false;
    for (const std::size_t n : active_replicas_)
      if (config_->latency(c, n) <= config_->max_latency) reachable = true;
    if (!reachable) continue;
    active_clients_.push_back(c);
    client_kept[c] = true;
    demands.push_back(demand_by_client[c]);
  }
  // Keep the active clients' requests in arrival order.
  std::vector<core::PendingRequest> kept;
  for (const auto& request : current_requests_)
    if (client_kept[request.client]) kept.push_back(request);
  current_requests_ = std::move(kept);

  LiveEpochDone done_frame;
  done_frame.epoch = start.epoch;
  done_frame.generation = start.generation;

  if (active_clients_.empty()) {
    // Nothing to schedule this epoch; agree on the empty allocation.
    done_frame.digest = digest_doubles(nullptr, 0);
    if (observer_ != nullptr)
      done_frame.trace =
          observer_->flow_out("epoch_done", "live_ctl", epoch_span.id());
    bus_.post(encode_epoch_done(bus_.self(), coordinator_, done_frame));
    ++epochs_completed_;
    outcome.completed = true;
    return outcome;
  }

  const core::EpochProblemSpec spec{
      .cfg = &system_config_,
      .window = config_->epoch_length * config_->transfer_window_fraction,
      .now = start.now,
      .active_clients = active_clients_,
      .active_replicas = active_replicas_,
      .models = models_,
      .shared_model = &shared_model_};
  problem_.emplace(core::make_epoch_problem(spec, std::move(demands)));

  const double shed_fraction =
      core::shed_to_feasible(problem_, config_->max_latency);
  if (shed_fraction > 0.0) {
    for (auto& request : current_requests_) {
      const double shed_mb = request.size_mb * shed_fraction;
      request.size_mb -= shed_mb;
      if (config_->retry_shed && request.retries < config_->max_retries) {
        core::PendingRequest remainder = request;
        remainder.size_mb = shed_mb;
        remainder.retries += 1;
        retry_backlog_.push_back(remainder);
      }
    }
  }

  core::EpochContext ctx;
  ctx.problem = &*problem_;
  ctx.active_replicas = &active_replicas_;
  ctx.active_clients = &active_clients_;
  ctx.requests = &current_requests_;
  ctx.replica_alive = &replica_alive_;
  ctx.num_replicas = num_replicas;
  ctx.num_clients = num_clients;
  ctx.num_solvers = num_replicas;
  algorithm_->begin_epoch(ctx);

  // ---- lockstep rounds
  Matrix allocation;
  std::uint32_t round = 0;
  std::vector<telemetry::RoundSample> samples;
  if (algorithm_->iterative()) {
    while (true) {
      const telemetry::ScopedSpan round_span(tracer(), "round", "live_round",
                                             tid, epoch_span.id());
      bool done = false;
      {
        const telemetry::ScopedSpan solve_span(tracer(), "solve",
                                               "live_round", tid,
                                               round_span.id());
        done = algorithm_->step_round(ctx);
        ++round;
        samples.clear();
        algorithm_->observe(ctx, samples);
      }
      for (auto& sample : samples) {
        sample.epoch = start.epoch;
        sample.time = start.now;
      }
      const std::uint64_t digest = digest_samples(samples);
      LiveRound frame;
      frame.epoch = start.epoch;
      frame.generation = start.generation;
      frame.round = round;
      frame.digest = digest;
      for (const auto& sample : samples) {
        if (sample.replica != bus_.self()) continue;
        frame.load = sample.load;
        const auto sample_trace =
            observer_ != nullptr
                ? observer_->flow_out("sample", "live_sample", round_span.id())
                : telemetry::TraceContext{};
        bus_.post(
            encode_sample(bus_.self(), coordinator_, sample, sample_trace));
      }
      for (const std::size_t n : active_replicas_) {
        if (n == bus_.self()) continue;
        if (observer_ != nullptr)
          frame.trace =
              observer_->flow_out("round", "live_round", round_span.id());
        bus_.post(
            encode_round(bus_.self(), static_cast<net::NodeId>(n), frame));
      }
      bool barrier_ok = false;
      {
        const telemetry::ScopedSpan exchange_span(
            tracer(), "exchange", "live_round", tid, round_span.id());
        barrier_ok = await_round_barrier(start, round, digest, outcome);
      }
      if (!barrier_ok) {
        algorithm_->abort_epoch();
        return outcome;
      }
      if (done) break;
    }
    allocation = algorithm_->extract_allocation(ctx);
  } else {
    auto oneshot = algorithm_->solve_oneshot(ctx);
    if (!oneshot) {
      // The backend declined (e.g. its chosen coordinator replica is
      // gone); stall until the coordinator re-generations the epoch.
      send_stall(start, round, {});
      algorithm_->abort_epoch();
      const double stall_started = now_seconds();
      while (true) {
        const auto received = bus_.receive_for(0.25);
        if (!received) {
          if (now_seconds() - stall_started > options_.idle_timeout_s) {
            outcome.bus_closed = true;
            return outcome;
          }
          continue;
        }
        if (received->type == kStart) {
          outcome.next_start =
              decode_start(*received, bus_.max_frame_bytes());
          if (observer_ != nullptr)
            observer_->flow_in(outcome.next_start->trace, "start",
                               "live_start");
          return outcome;
        }
        if (received->type == kPeers) {
          apply_peers(decode_peers(*received, bus_.max_frame_bytes()));
        } else if (received->type == kTimeProbe) {
          reply_time_probe(*received);
        } else if (received->type == kShutdown) {
          outcome.shutdown = true;
          return outcome;
        }
      }
    }
    allocation = std::move(*oneshot);
    round = 1;
    samples.clear();
    algorithm_->observe(ctx, samples);
    for (auto& sample : samples) {
      sample.epoch = start.epoch;
      sample.time = start.now;
      if (sample.replica != bus_.self()) continue;
      const auto sample_trace =
          observer_ != nullptr
              ? observer_->flow_out("sample", "live_sample", epoch_span.id())
              : telemetry::TraceContext{};
      bus_.post(
          encode_sample(bus_.self(), coordinator_, sample, sample_trace));
    }
  }

  // ---- epoch completion: own column + full-matrix digest cross-check
  done_frame.rounds = round;
  done_frame.digest = digest_matrix(allocation);
  done_frame.objective = problem_->total_cost(allocation);
  done_frame.digest_mismatches =
      static_cast<std::uint32_t>(digest_mismatches_ - mismatches_before);
  std::size_t own_col = active_replicas_.size();
  for (std::size_t col = 0; col < active_replicas_.size(); ++col)
    if (active_replicas_[col] == bus_.self()) own_col = col;
  if (observer_ != nullptr)
    done_frame.trace =
        observer_->flow_out("epoch_done", "live_ctl", epoch_span.id());
  if (own_col < active_replicas_.size()) {
    if (system_config_.representation !=
        core::SolverRepresentation::kDense) {
      // Compact column: ship only the nonzero rows as (index, value)
      // pairs; the coordinator zero-fills, so assembly is exact.
      done_frame.kind = LiveEpochDone::kSparseColumn;
      done_frame.num_rows =
          static_cast<std::uint32_t>(active_clients_.size());
      for (std::size_t row = 0; row < active_clients_.size(); ++row) {
        const double value = allocation(row, own_col);
        if (value == 0.0) continue;
        done_frame.indices.push_back(static_cast<std::uint32_t>(row));
        done_frame.column.push_back(value);
      }
    } else {
      done_frame.column.resize(active_clients_.size());
      for (std::size_t row = 0; row < active_clients_.size(); ++row)
        done_frame.column[row] = allocation(row, own_col);
    }
  }
  bus_.post(encode_epoch_done(bus_.self(), coordinator_, done_frame));
  ++epochs_completed_;
#ifdef EDR_LIVE_TRACE
  std::fprintf(stderr, "[replica %u] done epoch=%u gen=%llu rounds=%u\n",
               bus_.self(), start.epoch,
               (unsigned long long)start.generation, round);
#endif

  // Prune barrier buffers for rounds at or before the epoch just finished.
  const auto limit =
      std::make_tuple(start.generation, start.epoch + 1, std::uint32_t{0});
  pending_rounds_.erase(pending_rounds_.begin(),
                        pending_rounds_.lower_bound(limit));
  outcome.completed = true;
  return outcome;
}

bool LiveReplica::await_round_barrier(const LiveStart& start,
                                      std::uint32_t round,
                                      std::uint64_t own_digest,
                                      EpochOutcome& outcome) {
  std::vector<net::NodeId> waiting;
  for (const std::size_t n : active_replicas_)
    if (n != bus_.self()) waiting.push_back(static_cast<net::NodeId>(n));

  auto absorb = [&](net::NodeId from, std::uint64_t digest) {
    const auto it = std::find(waiting.begin(), waiting.end(), from);
    if (it == waiting.end()) return;
    waiting.erase(it);
    if (digest != own_digest) ++digest_mismatches_;
  };

  // Frames that raced ahead of our barrier wait.
  const auto key = std::make_tuple(start.generation, start.epoch, round);
  if (const auto buffered = pending_rounds_.find(key);
      buffered != pending_rounds_.end()) {
    for (const auto& [from, digest] : buffered->second) absorb(from, digest);
    pending_rounds_.erase(buffered);
  }

  const double wait_started = now_seconds();
  bool stalled = false;
  while (!waiting.empty()) {
    const auto received = bus_.receive_for(0.05);
    if (!received) {
      const double waited = now_seconds() - wait_started;
      if (!stalled && waited > options_.barrier_timeout_s) {
        send_stall(start, round, waiting);
        stalled = true;
      }
      if (waited > options_.idle_timeout_s) {
        outcome.bus_closed = true;
        return false;
      }
      continue;
    }
    switch (received->type) {
      case kRound: {
        const LiveRound peer =
            decode_round(*received, bus_.max_frame_bytes());
        if (observer_ != nullptr)
          observer_->flow_in(peer.trace, "round", "live_round");
        if (peer.generation < start.generation) break;  // stale
        if (peer.generation == start.generation &&
            peer.epoch == start.epoch && peer.round == round) {
          absorb(received->from, peer.digest);
        } else {
          pending_rounds_[{peer.generation, peer.epoch, peer.round}]
                         [received->from] = peer.digest;
        }
        break;
      }
      case kStart: {
        const LiveStart next =
            decode_start(*received, bus_.max_frame_bytes());
        if (observer_ != nullptr)
          observer_->flow_in(next.trace, "start", "live_start");
        if (next.generation > start.generation || next.epoch != start.epoch) {
          outcome.next_start = next;
          return false;
        }
        break;  // duplicate of the running epoch
      }
      case kPeers:
        apply_peers(decode_peers(*received, bus_.max_frame_bytes()));
        break;
      case kTimeProbe:
        reply_time_probe(*received);
        break;
      case kShutdown:
        outcome.shutdown = true;
        return false;
      default:
        break;  // kPeerDown and strays: membership is the coordinator's call
    }
  }
  return true;
}

void LiveReplica::send_stall(const LiveStart& start, std::uint32_t round,
                             const std::vector<net::NodeId>& waiting) {
  LiveStall stall;
  stall.epoch = start.epoch;
  stall.generation = start.generation;
  stall.round = round;
  stall.missing.assign(config_->num_replicas(), 0);
  for (const net::NodeId n : waiting)
    if (n < stall.missing.size()) stall.missing[n] = 1;
  ++stalls_reported_;
  if (observer_ != nullptr) {
    observer_->tracer().instant("stall", "live_alert",
                                static_cast<std::uint32_t>(bus_.self()));
    stall.trace = observer_->flow_out("stall", "live_ctl");
  }
#ifdef EDR_LIVE_TRACE
  std::fprintf(stderr, "[replica %u] stall epoch=%u gen=%llu round=%u\n",
               bus_.self(), start.epoch,
               (unsigned long long)start.generation, round);
#endif
  bus_.post(encode_stall(bus_.self(), coordinator_, stall));
}

void LiveReplica::reply_time_probe(const net::Message& msg) {
  const LiveTimeProbe probe = decode_time_probe(msg, bus_.max_frame_bytes());
  LiveTimeReply reply;
  reply.probe = probe.probe;
  reply.probe_ns = probe.sent_ns;
  reply.replica_ns = RuntimeObserver::now_ns();
  bus_.post(encode_time_reply(bus_.self(), coordinator_, reply));
}

void LiveReplica::flush_telemetry() {
  if (observer_ == nullptr) return;
  observer_->refresh_resource_gauges();
  if (!observer_->tracing()) return;
  bus_.post(encode_telemetry(bus_.self(), coordinator_, observer_->drain()));
}

}  // namespace edr::runtime
