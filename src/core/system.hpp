// EdrSystem — the full runtime on the simulated cluster.
//
// This is the system of paper §III-B/C running end to end: clients submit
// requests, replicas batch them into scheduling epochs, the distributed
// algorithm (CDPSM or LDDM) runs as real message rounds over the simulated
// network (round k+1 starts only after every round-k message has been
// delivered, so link latency, bandwidth and FIFO queueing shape the
// decision latency), assignments flow back to the clients, file transfers
// execute against each replica's line rate, activity timelines feed the
// emulated power meters, and the heartbeat ring watches for replica
// failures the whole time.
//
// Everything the paper measures falls out of one run() call:
//   Fig 3/4 — per-replica 50 Hz power traces,
//   Fig 6/7 — per-replica energy cost,
//   Fig 8   — total cost and consumption,
//   Fig 9   — per-request response times.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/ring.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/admm.hpp"
#include "core/algorithm.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "core/representation.hpp"
#include "net/network.hpp"
#include "net/sim.hpp"
#include "optim/problem.hpp"
#include "power/meter.hpp"
#include "power/model.hpp"
#include "power/pricing.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace edr::core {

struct SystemConfig {
  /// Registry key of the scheduler backend ("lddm", "cdpsm", "central",
  /// "rr", plus anything registered via core/algorithm_registry.hpp — the
  /// baselines library adds "donar").
  std::string algorithm = "lddm";
  /// Energy/capacity parameters per replica (defines |N|).
  std::vector<optim::ReplicaParams> replicas;
  std::size_t num_clients = 8;
  /// Client->replica latency in ms; empty = generated uniform in
  /// [min_link_latency, max_link_latency] with per-client feasibility
  /// guaranteed (same policy as optim::make_random_instance).
  Matrix latency;
  Milliseconds min_link_latency = 0.1;
  Milliseconds max_link_latency = 2.0;
  Milliseconds max_latency = 1.8;  ///< T, the tolerable latency bound

  /// Requests arriving within one epoch are batched into one Problem.
  SimTime epoch_length = 1.0;
  /// Per-round local compute cost: seconds per matrix entry touched.
  double compute_seconds_per_entry = 2e-7;
  /// Per-request handling cost at the replicas (ClientListener accept +
  /// parse + bookkeeping); makes decision latency grow with batch size as
  /// in the paper's Fig 9.
  double request_service_seconds = 5e-4;

  /// Derive each replica's (α, β) scheduling coefficients from the physical
  /// power model and its line rate, so minimizing the model cost minimizes
  /// the *metered* cost (see DESIGN.md §5).  Off = use the coefficients in
  /// `replicas` verbatim (the paper's SystemG calibration).
  bool derive_energy_model_from_power = true;
  /// Carry warm-start state across epochs (LDDM multipliers + primal
  /// columns; any backend may keep such state via its DistributedAlgorithm).
  /// The paper does not discuss it; it is a pure runtime win and can be
  /// ablated.
  bool warm_start = true;
  /// When a traffic spike exceeds the pooled epoch capacity, admission
  /// control sheds demand proportionally; with retry enabled the shed
  /// megabytes re-enter the next epoch's batch (bounded by max_retries per
  /// original request) instead of being dropped.
  bool retry_shed = true;
  std::size_t max_retries = 3;

  /// Optional time-of-day tariffs, one per replica (empty = the static
  /// prices in `replicas`).  When set, the scheduler re-reads each region's
  /// price at every epoch and the meters bill with the exact time-varying
  /// integral — the "more restrictions" extension the paper leaves as
  /// future work (§V).
  std::vector<power::TimeOfDayTariff> tariffs;
  /// Whether the scheduler sees the true time-varying tariff (the default)
  /// or each tariff flattened to its mean — the blinded arm of the
  /// tariff-awareness ablation.  The meters always bill the true
  /// time-varying price either way; only the price the optimization
  /// minimizes changes.  Ignored when `tariffs` is empty.
  bool tariff_aware_scheduler = true;

  /// Optional per-replica power models (empty = `power` for all).  Lets a
  /// deployment mix hardware generations: an efficient node with a lower
  /// idle floor and shallower transfer curve competes on energy terms even
  /// in a pricier region.
  std::vector<power::PowerModelParams> power_per_replica;

  /// Runtime solver settings: looser than the library defaults because a
  /// scheduler needs ~0.1% accuracy, not 0.001%.
  CdpsmOptions cdpsm{.step = 0.0, .max_rounds = 300, .tolerance = 1e-4,
                     .patience = 3};
  LddmOptions lddm{.rho = 2.0, .mu_step = 0.0, .mu_step_factor = 3.0,
                   .max_rounds = 300, .tolerance = 1e-4, .patience = 3};
  AdmmOptions admm{.rho = 1.0, .max_rounds = 300, .tolerance = 1e-4,
                   .patience = 3};
  /// Iterate storage for the iterative backends (lddm/cdpsm); central, rr
  /// and donar ignore it.  kDense is the byte-identical golden path;
  /// kSparse keeps the solver state on the latency-feasible pairs only;
  /// kAggregated additionally collapses clients with identical feasible
  /// sets into equivalence classes (exact — see DESIGN.md §12).  Warm
  /// start is a dense-layout feature and is skipped for the compact
  /// representations.
  SolverRepresentation representation = SolverRepresentation::kDense;
  power::PowerModelParams power;
  cluster::RingConfig ring;
  /// Enable the heartbeat ring (off saves events in pure-cost benches).
  bool enable_ring = true;
  /// Meter sampling rate (paper: ~50 samples/s).
  double meter_hz = 50.0;
  /// Record full power traces (Figs 3-4 need them; cost benches can skip).
  bool record_traces = true;

  /// Optional telemetry context (null = off, the no-op-cheap default).
  /// When set, the system wires the simulator clock into the tracer and
  /// instruments every layer: sim.* event-loop metrics, net.* per-type
  /// traffic counters and link-queueing histogram, solver.* round metrics,
  /// system.* epoch/response metrics, power.meter.* integration counters,
  /// plus epoch / solver-round / file-transfer spans for chrome://tracing.
  /// Telemetry never feeds back into scheduling decisions, so enabling it
  /// does not perturb determinism.
  std::shared_ptr<telemetry::Telemetry> telemetry;

  std::uint64_t seed = 1;
};

struct ReplicaReport {
  double assigned_mb = 0.0;
  Joules energy = 0.0;        ///< total integrated energy (downtime excluded)
  Joules active_energy = 0.0; ///< energy above the idle floor
  Cents cost = 0.0;           ///< price-weighted total energy
  Cents active_cost = 0.0;    ///< price-weighted active energy
  power::PowerTrace trace;    ///< empty unless record_traces
  bool alive = true;
  /// Total time spent crashed (before recovery or run end).
  SimTime downtime = 0.0;
};

struct RunReport {
  std::vector<ReplicaReport> replicas;
  Cents total_cost = 0.0;
  Cents total_active_cost = 0.0;
  Joules total_energy = 0.0;
  Joules total_active_energy = 0.0;

  /// Per-request decision latency (request arrival -> assignment received).
  std::vector<double> response_times_ms;
  [[nodiscard]] double mean_response_ms() const;
  [[nodiscard]] double p99_response_ms() const;

  std::size_t epochs = 0;
  std::size_t total_rounds = 0;
  std::size_t requests_served = 0;
  /// Requests shed because no latency-feasible replica was alive.
  std::size_t requests_dropped = 0;
  /// Megabytes shed by admission control and abandoned (retries exhausted
  /// or retry disabled).
  double megabytes_abandoned = 0.0;
  /// Megabytes that were shed but successfully served in a later epoch.
  double megabytes_retried = 0.0;
  double megabytes_served = 0.0;
  /// Coordination traffic only (excludes file data).
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  SimTime makespan = 0.0;
  /// Replicas that died (fault injection) during the run.
  std::vector<net::NodeId> failed_replicas;
  /// Per-epoch convergence summaries; filled only when a FlightRecorder is
  /// enabled on the telemetry context (empty otherwise, and the report
  /// JSON omits the section so pinned goldens are unaffected).
  std::vector<telemetry::EpochSummary> convergence;
  /// Alerts raised by the ConvergenceMonitor, when one is enabled.
  std::vector<telemetry::Alert> alerts;
};

/// A multiplicative change to client<->replica link quality, applied at a
/// scheduled instant (see EdrSystem::inject_link_change).  Factors
/// compose: inject the inverse factors later to restore the link.
struct LinkDegradation {
  /// Client index, or -1 for every client.
  int client = -1;
  /// Replica index, or -1 for every replica.
  int replica = -1;
  /// Multiplier on the link latency (> 1 inflates; scheduler feasibility
  /// and message delivery both see the new value).
  double latency_factor = 1.0;
  /// Multiplier on the link bandwidth (< 1 cuts capacity).  When the
  /// change is replica-wide (client == -1) the replica's schedulable
  /// capacity is scaled too, so the optimizer routes around the brownout.
  double bandwidth_factor = 1.0;
};

class EpochPipeline;

/// Drives one complete run of the system over a workload trace: the
/// algorithm-agnostic EpochPipeline (core/epoch_pipeline.hpp) under the
/// EDR host policy, with the backend picked from the algorithm registry by
/// SystemConfig::algorithm.
class EdrSystem {
 public:
  EdrSystem(SystemConfig config, workload::Trace trace);
  ~EdrSystem();
  EdrSystem(const EdrSystem&) = delete;
  EdrSystem& operator=(const EdrSystem&) = delete;

  /// Schedule replica `n` to crash at `when` (before run()).
  void inject_failure(std::size_t replica, SimTime when);

  /// Schedule a crashed replica to recover at `when`: it rejoins the ring
  /// (announcing itself to the survivors) and is eligible for scheduling
  /// from the next epoch on.
  void inject_recovery(std::size_t replica, SimTime when);

  /// Schedule a link-quality change at `when`: latency inflation and/or
  /// bandwidth cuts on the matched client<->replica links.  The scheduler
  /// re-reads the degraded latency matrix (and capacity) at the next
  /// epoch, so it routes around the brownout; schedule the inverse
  /// factors to lift it.
  void inject_link_change(const LinkDegradation& change, SimTime when);

  /// Execute the whole trace; may be called once.
  RunReport run();

  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  std::unique_ptr<EpochPipeline> impl_;
  SystemConfig config_;
};

/// Convenience latency-matrix generator shared with the instance generator.
[[nodiscard]] Matrix make_latency_matrix(Rng& rng, std::size_t num_clients,
                                         std::size_t num_replicas,
                                         Milliseconds min_latency,
                                         Milliseconds max_latency_link,
                                         Milliseconds bound);

}  // namespace edr::core
