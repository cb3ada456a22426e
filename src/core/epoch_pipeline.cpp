#include "core/epoch_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.hpp"
#include "common/math_util.hpp"
#include "core/epoch_problem.hpp"
#include "optim/flow.hpp"

namespace edr::core {

telemetry::EventTracer& EpochPipeline::tracer() {
  return cfg_.telemetry ? cfg_.telemetry->tracer()
                        : telemetry::disabled_tracer();
}

EpochContext EpochPipeline::context() const {
  EpochContext ctx;
  ctx.problem = problem_ ? &*problem_ : nullptr;
  ctx.active_replicas = &active_replicas_;
  ctx.active_clients = &active_clients_;
  ctx.requests = &current_requests_;
  ctx.replica_alive = &alive_;
  ctx.num_replicas = num_replicas_;
  ctx.num_clients = num_clients_;
  ctx.num_solvers = num_solvers_;
  ctx.telemetry = cfg_.telemetry.get();
  return ctx;
}

EpochPipeline::EpochPipeline(SystemConfig config, PipelinePolicy policy,
                             std::unique_ptr<DistributedAlgorithm> algorithm,
                             workload::Trace trace)
    : cfg_(std::move(config)),
      policy_(policy),
      algorithm_(std::move(algorithm)),
      trace_(std::move(trace)),
      rng_(cfg_.seed),
      power_model_(cfg_.power) {
  num_replicas_ = cfg_.replicas.size();
  num_clients_ = cfg_.num_clients;
  num_solvers_ =
      policy_.num_solvers == 0 ? num_replicas_ : policy_.num_solvers;
  if (num_replicas_ == 0)
    throw std::invalid_argument("EdrSystem: no replicas configured");
  if (num_clients_ == 0)
    throw std::invalid_argument("EdrSystem: no clients configured");

  if (cfg_.latency.empty())
    cfg_.latency =
        make_latency_matrix(rng_, num_clients_, num_replicas_,
                            cfg_.min_link_latency, cfg_.max_link_latency,
                            cfg_.max_latency);
  if (cfg_.latency.rows() != num_clients_ ||
      cfg_.latency.cols() != num_replicas_)
    throw std::invalid_argument("EdrSystem: latency matrix shape mismatch");
  if (!cfg_.tariffs.empty() && cfg_.tariffs.size() != num_replicas_)
    throw std::invalid_argument(
        "EdrSystem: need one tariff per replica (or none)");
  if (!cfg_.power_per_replica.empty()) {
    if (cfg_.power_per_replica.size() != num_replicas_)
      throw std::invalid_argument(
          "EdrSystem: need one power model per replica (or none)");
    for (const auto& params : cfg_.power_per_replica)
      models_.emplace_back(params);
  }

  timelines_.resize(num_replicas_);
  alive_.assign(num_replicas_, true);
  death_time_.assign(num_replicas_, -1.0);
  down_intervals_.resize(num_replicas_);
  transfer_until_.assign(num_replicas_, 0.0);

  network_.set_type_name(kClientRequest, "client_request");
  network_.set_type_name(kAssignment, "assignment");
  network_.set_type_name(kFileData, "file_data");
  for (const auto& info : algorithm_->message_types())
    network_.set_type_name(info.id, info.name);
  network_.set_type_name(cluster::kHeartbeat, "ring_heartbeat");
  network_.set_type_name(cluster::kRemovalNotice, "ring_removal_notice");
  network_.set_type_name(cluster::kJoinNotice, "ring_join_notice");
  if (cfg_.telemetry) {
    sim_.attach_telemetry(*cfg_.telemetry);
    network_.attach_telemetry(*cfg_.telemetry);
    auto& metrics = cfg_.telemetry->metrics();
    epochs_metric_ = metrics.counter("system.epochs");
    rounds_metric_ = metrics.counter("system.rounds");
    requests_served_metric_ = metrics.counter("system.requests_served");
    requests_dropped_metric_ = metrics.counter("system.requests_dropped");
    response_metric_ = metrics.histogram(
        "system.response_ms",
        telemetry::MetricsRegistry::response_bounds_ms());
    recorder_ = cfg_.telemetry->flight_recorder();
    monitor_ = cfg_.telemetry->monitor();
  }
}

EpochPipeline::~EpochPipeline() {
  // The tracer clock points into this simulator; freeze it so a telemetry
  // context that outlives the system (the usual export-at-exit flow)
  // cannot read through a dangling pointer.
  if (cfg_.telemetry) cfg_.telemetry->tracer().set_clock(nullptr);
}

// ---------- setup ----------

void EpochPipeline::setup_links() {
  // Client <-> replica links carry the configured latency, read straight
  // from cfg_.latency (the scheduler's feasibility view and the delivery
  // path share that one matrix); the solver interconnect (used by round
  // traffic and ring heartbeats) uses the minimum link latency
  // (same-fabric assumption).
  if (policy_.per_client_links) {
    std::vector<double> bandwidth(num_replicas_);
    for (std::size_t n = 0; n < num_replicas_; ++n)
      bandwidth[n] = cfg_.replicas[n].bandwidth;
    network_.set_client_links(client_node(0), cfg_.latency, bandwidth);
  }
  net::LinkParams inter;
  inter.latency = cfg_.min_link_latency;
  inter.bandwidth_mbps = cfg_.replicas.front().bandwidth;
  network_.set_default_link(inter);
}

void EpochPipeline::attach_nodes() {
  for (std::size_t s = 0; s < num_solvers_; ++s) {
    network_.attach(solver_node(s), [this, s](const net::Message& msg) {
      on_solver_message(s, msg);
    });
  }
  for (std::size_t c = 0; c < num_clients_; ++c) {
    network_.attach(client_node(c), [this, c](const net::Message& msg) {
      on_client_message(c, msg);
    });
  }
}

void EpochPipeline::start_ring() {
  if (!cfg_.enable_ring) return;
  std::vector<net::NodeId> members;
  for (std::size_t n = 0; n < num_replicas_; ++n)
    members.push_back(solver_node(n));
  for (std::size_t n = 0; n < num_replicas_; ++n) {
    rings_.push_back(std::make_unique<cluster::RingNode>(
        network_, solver_node(n), cluster::MemberList{members}, cfg_.ring));
    rings_.back()->on_membership_change(
        [this](const cluster::MemberList&, net::NodeId dead) {
          on_member_dead(dead);
        });
  }
  for (auto& ring : rings_) ring->start();
}

void EpochPipeline::bucket_requests() {
  const SimTime horizon =
      std::max(trace_.horizon(), cfg_.epoch_length) + 1e-9;
  const auto num_epochs =
      static_cast<std::size_t>(horizon / cfg_.epoch_length) + 1;
  epoch_buckets_.assign(num_epochs, {});
  for (const auto& request : trace_.requests()) {
    if (request.client >= num_clients_)
      throw std::invalid_argument("EdrSystem: request client out of range");
    const auto epoch =
        static_cast<std::size_t>(request.arrival / cfg_.epoch_length);
    epoch_buckets_[epoch].push_back(
        {request.id, request.client, request.arrival, request.size_mb});
    // The client announces the request to the solvers responsible for it
    // at arrival time (the paper's ClientListener path); tiny control
    // message.
    sim_.schedule_at(request.arrival, [this, c = request.client] {
      announce_scratch_.clear();
      algorithm_->announce_targets(c, num_solvers_, announce_scratch_);
      for (const std::size_t s : announce_scratch_) {
        if (policy_.solvers_are_replicas && !alive_[s]) continue;
        send_control(client_node(c), solver_node(s),
                     algorithm_->announce_type(), 28);
      }
    });
  }
}

void EpochPipeline::schedule_epoch_boundaries() {
  for (std::size_t e = 0; e < epoch_buckets_.size(); ++e) {
    const SimTime when = static_cast<double>(e + 1) * cfg_.epoch_length;
    sim_.schedule_at(when, [this, e] {
      if (!epoch_buckets_[e].empty()) {
        solve_queue_.push_back(e);
        maybe_start_solve();
      }
    });
  }
}

// ---------- messaging ----------

void EpochPipeline::send_control(net::NodeId from, net::NodeId to, int type,
                                 std::size_t bytes, std::any payload) {
  net::Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.bytes = bytes;
  msg.payload = std::move(payload);
  network_.send(std::move(msg));
}

void EpochPipeline::on_solver_message(std::size_t s,
                                      const net::Message& msg) {
  if (policy_.solvers_are_replicas && !alive_[s]) return;
  if (msg.type >= 100 && msg.type < 200) {
    if (s < rings_.size()) rings_[s]->handle(msg);
    return;
  }
  // Announcements are bucketed centrally (the message cost is what counts);
  // only the algorithm's round traffic advances the barrier.
  if (algorithm_->is_round_type(msg.type)) on_round_message(msg);
}

void EpochPipeline::on_client_message(std::size_t c,
                                      const net::Message& msg) {
  (void)c;
  if (algorithm_->is_round_type(msg.type)) {
    on_round_message(msg);
    return;
  }
  if (msg.type == algorithm_->assignment_type()) on_assignment_delivered(msg);
}

// ---------- membership / failures ----------

void EpochPipeline::inject_failure(std::size_t n, SimTime when) {
  sim_.schedule_at(when, [this, n] {
    if (!alive_[n]) return;
    logf(LogLevel::kInfo, "edr: replica %zu crashes at t=%.3f", n,
         sim_.now());
    tracer().instant("replica_crash", "fault", solver_node(n));
    alive_[n] = false;
    death_time_[n] = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    down_intervals_[n].emplace_back(sim_.now(), -1.0);
    network_.detach(solver_node(n));
    if (n < rings_.size()) rings_[n]->stop();
    report_.failed_replicas.push_back(solver_node(n));
    if (!cfg_.enable_ring) {
      // Without the ring there is no failure detector; surviving nodes
      // would stall forever, so propagate the change immediately (used
      // only by unit setups that disable the ring).
      on_member_dead(solver_node(n));
    }
  });
}

void EpochPipeline::inject_recovery(std::size_t n, SimTime when) {
  sim_.schedule_at(when, [this, n] {
    if (alive_[n]) return;
    logf(LogLevel::kInfo, "edr: replica %zu recovers at t=%.3f", n,
         sim_.now());
    tracer().instant("replica_recover", "fault", solver_node(n));
    alive_[n] = true;
    death_time_[n] = -1.0;
    if (!down_intervals_[n].empty() &&
        down_intervals_[n].back().second < 0.0)
      down_intervals_[n].back().second = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    network_.attach(solver_node(n), [this, n](const net::Message& msg) {
      on_solver_message(n, msg);
    });
    if (n < rings_.size()) {
      // Learn the survivor set from any alive peer (here: our own alive[]
      // view, which a real node would fetch from a seed member).
      std::vector<net::NodeId> survivors;
      for (std::size_t m = 0; m < num_replicas_; ++m)
        if (alive_[m]) survivors.push_back(solver_node(m));
      rings_[n]->rejoin(cluster::MemberList{survivors});
    }
  });
}

void EpochPipeline::inject_link_change(const LinkDegradation& change,
                                       SimTime when) {
  sim_.schedule_at(when, [this, change] {
    logf(LogLevel::kInfo,
         "edr: link change at t=%.3f (client=%d replica=%d lat x%.2f "
         "bw x%.2f)",
         sim_.now(), change.client, change.replica, change.latency_factor,
         change.bandwidth_factor);
    tracer().instant("link_change", "fault", 0);
    const std::size_t c_lo = change.client < 0 ? 0 : change.client;
    const std::size_t c_hi =
        change.client < 0 ? num_clients_ : change.client + 1;
    const std::size_t n_lo = change.replica < 0 ? 0 : change.replica;
    const std::size_t n_hi =
        change.replica < 0 ? num_replicas_ : change.replica + 1;
    for (std::size_t c = c_lo; c < c_hi; ++c) {
      for (std::size_t n = n_lo; n < n_hi; ++n) {
        // One write serves both the scheduler's feasibility view and the
        // delivery path: the network reads its link latency from this
        // matrix.
        cfg_.latency(c, n) *= change.latency_factor;
        if (policy_.per_client_links)
          network_.scale_client_bandwidth(client_node(c), solver_node(n),
                                          change.bandwidth_factor);
      }
    }
    // A replica-wide cut also shrinks the capacity the optimizer plans
    // against (and the transfer pacing rate).
    if (change.client < 0 && change.bandwidth_factor != 1.0)
      for (std::size_t n = n_lo; n < n_hi; ++n)
        cfg_.replicas[n].bandwidth *= change.bandwidth_factor;
  });
}

void EpochPipeline::on_member_dead(net::NodeId dead) {
  const auto n = static_cast<std::size_t>(dead);
  if (n < alive_.size() && alive_[n]) {
    // Peers detected the crash before the crash event ran (possible only
    // with aggressive timeouts); honor their verdict.
    alive_[n] = false;
    death_time_[n] = sim_.now();
    timelines_[n].set(sim_.now(), power::Activity::kIdle);
    down_intervals_[n].emplace_back(sim_.now(), -1.0);
    network_.detach(dead);
    if (n < rings_.size()) rings_[n]->stop();
  }
  // Abort and restart any in-flight solve: the paper's "EDR will perform
  // the runtime scheduling again based on the new ring of replicas".
  if (solve_in_flight_) {
    ++solve_generation_;
    solve_in_flight_ = false;
    algorithm_->abort_epoch();
    solve_queue_.push_front(current_epoch_);
    set_all_selecting(false);
    maybe_start_solve();
  }
}

// ---------- power bookkeeping ----------

void EpochPipeline::set_activity(std::size_t n, power::Activity activity,
                                 double intensity) {
  if (!policy_.model_power) return;
  if (!alive_[n]) return;
  timelines_[n].set(sim_.now(), activity, intensity);
}

void EpochPipeline::set_all_selecting(bool selecting) {
  const double intensity = selection_intensity();
  for (std::size_t col = 0; col < active_replicas_.size(); ++col) {
    const std::size_t n = active_replicas_[col];
    if (!alive_[n]) continue;
    if (sim_.now() < transfer_until_[n]) continue;  // still transferring
    set_activity(n, selecting ? power::Activity::kSelecting
                              : power::Activity::kIdle,
                 selecting ? intensity : 0.0);
  }
}

/// Coordination intensity: normalize the backend's per-round traffic
/// against the CDPSM 8-replica reference volume so heavier protocols sit
/// visibly higher on the power traces (Fig 3 vs 4).
double EpochPipeline::selection_intensity() const {
  if (!problem_) return 0.5;
  const double clients = static_cast<double>(problem_->num_clients());
  const double replicas = static_cast<double>(problem_->num_replicas());
  const double bytes = algorithm_->coordination_bytes(clients, replicas);
  const double reference = clients * replicas * 8.0 * 7.0;
  return clamp(bytes / reference, 0.1, 1.5);
}

// ---------- solving ----------

void EpochPipeline::maybe_start_solve() {
  if (solve_in_flight_ || solve_queue_.empty()) return;
  const std::size_t epoch = solve_queue_.front();
  solve_queue_.pop_front();
  start_solve(epoch);
}

void EpochPipeline::start_solve(std::size_t epoch) {
  current_epoch_ = epoch;
  current_requests_ = epoch_buckets_[epoch];
  // Shed remainders from earlier epochs join whatever batch runs next.
  for (auto& request : retry_backlog_) current_requests_.push_back(request);
  retry_backlog_.clear();
  solve_started_ = sim_.now();

  // Build the active problem: alive replicas, clients with demand.
  active_replicas_.clear();
  for (std::size_t n = 0; n < num_replicas_; ++n)
    if (alive_[n]) active_replicas_.push_back(n);
  if (active_replicas_.empty()) {
    requests_dropped_ += current_requests_.size();
    requests_dropped_metric_.add(current_requests_.size());
    maybe_start_solve();
    return;
  }

  // Per-client demand totals over the clients this batch touches, in
  // ascending id order (the problem's row order), without a pass over the
  // whole client population.
  if (demand_scratch_.size() != num_clients_) {
    demand_scratch_.assign(num_clients_, 0.0);
    client_state_.assign(num_clients_, kClientUnseen);
  }
  candidate_scratch_.clear();
  for (const auto& request : current_requests_) {
    if (client_state_[request.client] == kClientUnseen) {
      client_state_[request.client] = kClientIdle;
      candidate_scratch_.push_back(request.client);
    }
    demand_scratch_[request.client] += request.size_mb;
  }
  std::sort(candidate_scratch_.begin(), candidate_scratch_.end());

  active_clients_.clear();
  std::vector<Megabytes> demands;
  for (const std::uint32_t c : candidate_scratch_) {
    if (demand_scratch_[c] <= 0.0) continue;
    // Latency feasibility against the *alive* replica set (hosts that do
    // not bound decision latency admit everyone).
    bool reachable = !policy_.drop_unreachable_clients;
    for (const std::size_t n : active_replicas_)
      if (cfg_.latency(c, n) <= cfg_.max_latency) reachable = true;
    if (!reachable) {
      client_state_[c] = kClientUnreachable;
      continue;
    }
    client_state_[c] = kClientKept;
    active_clients_.push_back(c);
    demands.push_back(demand_scratch_[c]);
  }
  // Keep the active clients' requests in arrival order; an unreachable
  // client's requests are dropped, a zero-demand client's vanish.
  kept_scratch_.clear();
  std::size_t unreachable = 0;
  for (const auto& request : current_requests_) {
    if (client_state_[request.client] == kClientKept)
      kept_scratch_.push_back(request);
    else if (client_state_[request.client] == kClientUnreachable)
      ++unreachable;
  }
  requests_dropped_ += unreachable;
  requests_dropped_metric_.add(unreachable);
  for (const std::uint32_t c : candidate_scratch_) {
    demand_scratch_[c] = 0.0;
    client_state_[c] = kClientUnseen;
  }
  // Swap rather than move so the displaced buffer's capacity is reused by
  // the next epoch's filter pass.
  std::swap(current_requests_, kept_scratch_);

  if (active_clients_.empty()) {
    maybe_start_solve();
    return;
  }

  // Problem construction is shared with the live runtime (replicas must
  // build bit-identical instances from the same inputs) — see
  // core/epoch_problem.hpp.
  const EpochProblemSpec spec{
      .cfg = &cfg_,
      .window = cfg_.epoch_length * policy_.transfer_window_fraction,
      .now = sim_.now(),
      .active_clients = active_clients_,
      .active_replicas = active_replicas_,
      .models = models_,
      .shared_model = &power_model_};
  problem_.emplace(make_epoch_problem(spec, std::move(demands)));

  // Demand can exceed even the pooled epoch capacity under a traffic
  // spike; shed proportionally (admission control) so the optimization
  // stays feasible.  The shed fraction of each request re-enters the next
  // epoch's batch (the client retry loop of a real deployment) until its
  // retry budget runs out.
  const double shed_fraction = shed_to_feasible(problem_, cfg_.max_latency);
  if (shed_fraction > 0.0) {
    for (auto& request : current_requests_) {
      const double shed_mb = request.size_mb * shed_fraction;
      request.size_mb -= shed_mb;
      if (cfg_.retry_shed && request.retries < cfg_.max_retries) {
        PendingRequest remainder = request;
        remainder.size_mb = shed_mb;
        remainder.retries += 1;
        retry_backlog_.push_back(remainder);
      } else {
        report_.megabytes_abandoned += shed_mb;
      }
    }
  }

  solve_in_flight_ = true;
  ++report_.epochs;
  epochs_metric_.add(1);
  const std::uint64_t generation = ++solve_generation_;
  epoch_span_ = tracer().new_id();
  // A solve aborted by a membership change leaves the recorder's epoch
  // open; begin_epoch discards it and starts the restart's fresh one.
  if (recorder_ != nullptr) recorder_->begin_epoch(current_epoch_, sim_.now());
  if (monitor_ != nullptr) monitor_->begin_epoch(current_epoch_);

  // Request-handling time before the optimization can begin: the
  // ClientListener path costs a fixed amount per request, which is what
  // makes decision latency grow with the batch size (Fig 9).
  const SimTime service_delay =
      static_cast<double>(current_requests_.size()) *
      cfg_.request_service_seconds;

  algorithm_->begin_epoch(context());
  if (algorithm_->iterative()) {
    set_all_selecting(true);
    if (policy_.split_service_delay) {
      sim_.schedule_after(service_delay, [this, generation] {
        if (generation != solve_generation_) return;
        schedule_round(generation);
      });
    } else {
      schedule_round(generation, service_delay);
    }
  } else {
    algorithm_->plan_prologue(context(), plan_scratch_);
    for (const auto& planned : plan_scratch_)
      send_control(node_of(planned.from_kind, planned.from),
                   node_of(planned.to_kind, planned.to), planned.type,
                   planned.bytes);
    const SimTime delay = service_delay + compute_delay();
    sim_.schedule_after(delay, [this, generation] {
      if (generation != solve_generation_) return;
      // A one-shot backend may decline to produce an allocation (e.g. the
      // centralized coordinator died mid-solve); the epoch then stalls
      // until a membership change aborts and restarts it.
      if (auto allocation = algorithm_->solve_oneshot(context())) {
        record_observation();
        finish_solve(std::move(*allocation));
      }
    });
  }
}

/// Seconds of local compute per distributed round: seconds-per-entry times
/// the |C|x|N| problem size times the backend's workload factor.
SimTime EpochPipeline::compute_delay() const {
  const double entries = static_cast<double>(problem_->num_clients()) *
                         static_cast<double>(problem_->num_replicas());
  return cfg_.compute_seconds_per_entry * entries *
         algorithm_->compute_factor(context());
}

void EpochPipeline::schedule_round(std::uint64_t generation,
                                   SimTime extra_delay) {
  round_started_ = sim_.now();
  round_span_ = tracer().new_id();
  sim_.schedule_after(extra_delay + compute_delay(), [this, generation] {
    if (generation != solve_generation_) return;
    launch_round_messages(generation);
  });
}

void EpochPipeline::launch_round_messages(std::uint64_t generation) {
  // Local compute is done; what follows until the barrier is the exchange.
  tracer().span("round.compute", "solver", round_started_,
                sim_.now() - round_started_, telemetry::kControlTrack,
                tracer().new_id(), round_span_);
  exchange_started_ = sim_.now();
  // Fire this round's coordination traffic; the barrier (all delivered)
  // triggers the synchronous math and the next round.  Flow events tie
  // each message's send/delivery to this round's span.
  round_msgs_pending_ = 0;
  pending_generation_ = generation;
  algorithm_->plan_round(context(), plan_scratch_);
  network_.set_flow_parent(round_span_);
  for (const auto& planned : plan_scratch_) {
    ++round_msgs_pending_;
    send_control(node_of(planned.from_kind, planned.from),
                 node_of(planned.to_kind, planned.to), planned.type,
                 planned.bytes, generation);
  }
  network_.set_flow_parent(0);
  if (round_msgs_pending_ == 0) {
    // Single-solver degenerate case: no traffic, just run the math.
    complete_round(generation);
  }
}

void EpochPipeline::on_round_message(const net::Message& msg) {
  if (!solve_in_flight_ || round_msgs_pending_ == 0) return;
  // Stale deliveries from a solve that was aborted (replica failure) must
  // not count toward the new round's barrier.
  const auto* generation = std::any_cast<std::uint64_t>(&msg.payload);
  if (generation == nullptr || *generation != pending_generation_) return;
  if (--round_msgs_pending_ == 0) complete_round(pending_generation_);
}

void EpochPipeline::complete_round(std::uint64_t generation) {
  if (generation != solve_generation_) return;
  ++report_.total_rounds;
  rounds_metric_.add(1);
  const bool done = algorithm_->step_round(context());
  record_observation();
  // The round span covers local compute + the message barrier (the math
  // above runs in zero sim time at the barrier instant); its exchange
  // child covers launch -> barrier.
  tracer().span("round.exchange", "net", exchange_started_,
                sim_.now() - exchange_started_, telemetry::kControlTrack,
                tracer().new_id(), round_span_);
  tracer().span("solver.round", "solver", round_started_,
                sim_.now() - round_started_, telemetry::kControlTrack,
                round_span_, epoch_span_);
  if (done) {
    finish_solve(algorithm_->extract_allocation(context()));
  } else {
    schedule_round(generation);
  }
}

/// Ask the backend for its per-replica view of the round that just
/// stepped, stamp it, and feed the recorder/monitor.  Gated so runs
/// without the opt-in attachments never touch the hook.
void EpochPipeline::record_observation() {
  if (recorder_ == nullptr && monitor_ == nullptr) return;
  sample_scratch_.clear();
  algorithm_->observe(context(), sample_scratch_);
  for (auto& sample : sample_scratch_) {
    sample.epoch = current_epoch_;
    sample.time = sim_.now();
    if (recorder_ != nullptr) recorder_->record(sample);
    if (monitor_ != nullptr) monitor_->observe(sample);
  }
}

void EpochPipeline::finish_solve(Matrix allocation) {
  solve_in_flight_ = false;
  set_all_selecting(false);
  tracer().span("epoch", "system", solve_started_,
                sim_.now() - solve_started_, telemetry::kControlTrack,
                epoch_span_, 0);
  if (recorder_ != nullptr) {
    auto summary = recorder_->end_epoch(sim_.now());
    if (monitor_ != nullptr) monitor_->end_epoch(summary);
    report_.convergence.push_back(summary);
  } else if (monitor_ != nullptr) {
    telemetry::EpochSummary summary;
    summary.epoch = current_epoch_;
    summary.end_time = sim_.now();
    monitor_->end_epoch(summary);
  }

  // Assignments out: the backend's fan-out tells each client its share
  // (the client's response time clock stops when its *last* share
  // arrives).
  algorithm_->plan_assignments(context(), plan_scratch_);
  for (const auto& planned : plan_scratch_)
    send_control(node_of(planned.from_kind, planned.from),
                 node_of(planned.to_kind, planned.to), planned.type,
                 planned.bytes, std::make_any<std::size_t>(current_epoch_));
  expected_assignments_[current_epoch_] = plan_scratch_.size();

  // Placement shortfall: a request-granular policy (Round-Robin) can fail
  // to place a remainder when a client's feasible replicas are full even
  // though other replicas have room.  Account for it explicitly so the
  // megabyte ledger always balances.
  double placed = 0.0;
  for (std::size_t col = 0; col < active_replicas_.size(); ++col)
    placed += allocation.col_sum(col);
  const double shortfall = problem_->total_demand() - placed;
  if (shortfall > 1e-9) report_.megabytes_abandoned += shortfall;

  // Transfers: replica col pushes its column total, paced over the
  // transfer window at intensity s_n / capacity.
  if (policy_.file_transfers) {
    const double window =
        cfg_.epoch_length * policy_.transfer_window_fraction;
    for (std::size_t col = 0; col < active_replicas_.size(); ++col) {
      const std::size_t n = active_replicas_[col];
      const double load_mb = allocation.col_sum(col);
      if (load_mb <= 1e-9 || !alive_[n]) continue;
      const double capacity_mb = cfg_.replicas[n].bandwidth * window;
      const double intensity = clamp(load_mb / capacity_mb, 0.0, 1.0);
      const double duration =
          load_mb <= capacity_mb ? window
                                 : load_mb / cfg_.replicas[n].bandwidth;
      set_activity(n, power::Activity::kTransfer, intensity);
      tracer().span("file_transfer", "transfer", sim_.now(), duration,
                    solver_node(n));
      transfer_until_[n] = sim_.now() + duration;
      report_.replicas[n].assigned_mb += load_mb;
      report_.megabytes_served += load_mb;
      sim_.schedule_after(duration, [this, n] {
        if (!alive_[n]) return;
        if (sim_.now() + 1e-12 >= transfer_until_[n])
          set_activity(n, power::Activity::kIdle, 0.0);
      });
    }
  }
  for (const auto& request : current_requests_) {
    if (request.retries == 0) {
      ++report_.requests_served;
      requests_served_metric_.add(1);
      // Response-time samples: arrival -> now (+ assignment delivery
      // latency, folded in by on_assignment_delivered).  Retried
      // remainders are follow-up transfers, not new decisions.
      pending_responses_[current_epoch_].push_back(request.arrival);
    } else {
      report_.megabytes_retried += request.size_mb;
    }
  }

  maybe_start_solve();
  schedule_backlog_epoch();
}

/// A retry backlog with no future organic epoch would strand; give it a
/// synthetic epoch one epoch-length out.
void EpochPipeline::schedule_backlog_epoch() {
  if (retry_backlog_.empty() || solve_in_flight_ || !solve_queue_.empty() ||
      synthetic_epoch_scheduled_)
    return;
  synthetic_epoch_scheduled_ = true;
  sim_.schedule_after(cfg_.epoch_length, [this] {
    synthetic_epoch_scheduled_ = false;
    if (retry_backlog_.empty()) return;
    epoch_buckets_.emplace_back();
    solve_queue_.push_back(epoch_buckets_.size() - 1);
    maybe_start_solve();
  });
}

void EpochPipeline::on_assignment_delivered(const net::Message& msg) {
  const auto* epoch = std::any_cast<std::size_t>(&msg.payload);
  if (epoch == nullptr) return;
  auto it = expected_assignments_.find(*epoch);
  if (it == expected_assignments_.end() || it->second == 0) return;
  if (--it->second == 0) {
    // Every share of this epoch has reached its client: close out the
    // epoch's response times.
    for (const SimTime arrival : pending_responses_[*epoch]) {
      const double response_ms = milliseconds(sim_.now() - arrival);
      report_.response_times_ms.push_back(response_ms);
      response_metric_.observe(response_ms);
      if (monitor_ != nullptr)
        monitor_->observe_response(response_ms, sim_.now(), *epoch);
    }
    pending_responses_.erase(*epoch);
    expected_assignments_.erase(it);
  }
}

// ---------- finalization ----------

RunReport EpochPipeline::finalize() {
  report_.makespan = sim_.now();
  report_.replicas.resize(num_replicas_);
  if (policy_.model_power) {
    for (std::size_t n = 0; n < num_replicas_; ++n) {
      auto& rep = report_.replicas[n];
      rep.alive = alive_[n];
      const SimTime horizon =
          alive_[n] ? report_.makespan : std::max(death_time_[n], 0.0);
      SimTime downtime = 0.0;
      for (const auto& [from, to] : down_intervals_[n]) {
        const SimTime end = to < 0.0 ? horizon : std::min(to, horizon);
        downtime += std::max(0.0, end - std::min(from, horizon));
      }
      rep.downtime = downtime;
      // Crashed intervals sit at the idle level in the timeline (set on
      // death); a powered-off node draws nothing, so bill them out.
      const auto& model = model_of(n);
      auto* const tel = cfg_.telemetry.get();
      rep.energy =
          power::integrate_energy(model, timelines_[n], horizon, tel) -
          model.params().idle * downtime;
      rep.active_energy =
          power::integrate_active_energy(model, timelines_[n], horizon, tel);
      if (cfg_.tariffs.empty()) {
        rep.cost = energy_cost(rep.energy, cfg_.replicas[n].price);
        rep.active_cost =
            energy_cost(rep.active_energy, cfg_.replicas[n].price);
      } else {
        rep.cost = power::integrate_cost(model, timelines_[n], horizon,
                                         cfg_.tariffs[n],
                                         /*active_only=*/false, tel);
        rep.active_cost =
            power::integrate_cost(model, timelines_[n], horizon,
                                  cfg_.tariffs[n], /*active_only=*/true, tel);
        // Bill out the crashed intervals (idle-level draw under the tariff).
        const power::ActivityTimeline always_idle;
        for (const auto& [from, to] : down_intervals_[n]) {
          const SimTime end = to < 0.0 ? horizon : std::min(to, horizon);
          if (end <= from) continue;
          rep.cost -= power::integrate_cost(model, always_idle, end,
                                            cfg_.tariffs[n]) -
                      power::integrate_cost(model, always_idle, from,
                                            cfg_.tariffs[n]);
        }
      }
      if (cfg_.record_traces)
        rep.trace = power::sample_trace(model, timelines_[n], horizon,
                                        cfg_.meter_hz, tel);
      report_.total_cost += rep.cost;
      report_.total_active_cost += rep.active_cost;
      report_.total_energy += rep.energy;
      report_.total_active_energy += rep.active_energy;
    }
  }
  for (const auto& request : retry_backlog_)
    report_.megabytes_abandoned += request.size_mb;
  // Coordination traffic comes from the network's per-type counters: the
  // protocol types live below 100 (the ring owns 100-199 and is membership
  // upkeep, not coordination; kFileData is modeled as paced activity, not
  // messages, so it never appears here).
  const auto control = network_.traffic_in_range(0, 99);
  report_.control_messages = control.messages;
  report_.control_bytes = control.bytes;
  report_.requests_dropped = requests_dropped_;
  if (monitor_ != nullptr) report_.alerts = monitor_->alerts();
  return std::move(report_);
}

RunReport EpochPipeline::run() {
  report_.replicas.resize(num_replicas_);
  setup_links();
  attach_nodes();
  start_ring();
  bucket_requests();
  schedule_epoch_boundaries();

  if (policy_.run_to_drain) {
    // No periodic ring traffic: the event loop drains on its own and the
    // makespan is the last delivery.
    sim_.run();
  } else {
    // The ring heartbeats forever; run until only periodic ring events are
    // left (no solve in flight, queue empty, all transfers done).
    const SimTime hard_stop =
        (static_cast<double>(epoch_buckets_.size()) + 4.0) *
            cfg_.epoch_length +
        trace_.horizon() + 10.0;
    sim_.run_until(hard_stop);
    for (auto& ring : rings_) ring->stop();
    sim_.run_until(hard_stop + cfg_.ring.failure_timeout);
  }
  return finalize();
}

}  // namespace edr::core
