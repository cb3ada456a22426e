#include "e2e.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/algorithm_registry.hpp"
#include "replay.hpp"
#include "runtime/local_cluster.hpp"

namespace perfbench {

namespace {

using edr::core::DistributedAlgorithm;
using edr::core::EpochContext;

constexpr const char* kTimedKey = "perfbench.timed";

/// Forwards every call to the real backend.  It stamps each epoch's start,
/// counts rounds, and scores each extracted allocation against its epoch
/// problem (objective and feasibility) — O(clients x replicas) per epoch,
/// against the O(rounds x clients x replicas) solve it follows.
class TimedAlgorithm final : public DistributedAlgorithm {
 public:
  TimedAlgorithm(std::unique_ptr<DistributedAlgorithm> inner, SimRun& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const char* display_name() const override {
    return inner_->display_name();
  }
  [[nodiscard]] std::span<const edr::core::MessageTypeInfo> message_types()
      const override {
    return inner_->message_types();
  }
  [[nodiscard]] int announce_type() const override {
    return inner_->announce_type();
  }
  void announce_targets(std::uint32_t client, std::size_t num_solvers,
                        std::vector<std::size_t>& out) const override {
    inner_->announce_targets(client, num_solvers, out);
  }
  [[nodiscard]] int assignment_type() const override {
    return inner_->assignment_type();
  }
  void plan_assignments(
      const EpochContext& ctx,
      std::vector<edr::core::PlannedMessage>& out) const override {
    inner_->plan_assignments(ctx, out);
  }
  [[nodiscard]] bool iterative() const override { return inner_->iterative(); }
  [[nodiscard]] double compute_factor(const EpochContext& ctx) const override {
    return inner_->compute_factor(ctx);
  }
  [[nodiscard]] double coordination_bytes(double clients,
                                          double replicas) const override {
    return inner_->coordination_bytes(clients, replicas);
  }
  void begin_epoch(const EpochContext& ctx) override {
    sink_.epoch_starts_s.push_back(steady_seconds());
    rounds_ = 0;
    inner_->begin_epoch(ctx);
  }
  void plan_prologue(
      const EpochContext& ctx,
      std::vector<edr::core::PlannedMessage>& out) const override {
    inner_->plan_prologue(ctx, out);
  }
  void plan_round(const EpochContext& ctx,
                  std::vector<edr::core::PlannedMessage>& out) const override {
    inner_->plan_round(ctx, out);
  }
  bool step_round(const EpochContext& ctx) override {
    ++rounds_;
    return inner_->step_round(ctx);
  }
  void observe(const EpochContext& ctx,
               std::vector<edr::telemetry::RoundSample>& out) override {
    inner_->observe(ctx, out);
  }
  edr::Matrix extract_allocation(const EpochContext& ctx) override {
    edr::Matrix allocation = inner_->extract_allocation(ctx);
    score(ctx, allocation);
    return allocation;
  }
  std::optional<edr::Matrix> solve_oneshot(const EpochContext& ctx) override {
    auto allocation = inner_->solve_oneshot(ctx);
    if (allocation) score(ctx, *allocation);
    return allocation;
  }
  void abort_epoch() override { inner_->abort_epoch(); }

 private:
  void score(const EpochContext& ctx, const edr::Matrix& allocation) {
    const auto& problem = *ctx.problem;
    sink_.rounds.push_back(rounds_);
    sink_.objective_cents += problem.total_cost(allocation);
    if (!allocation_feasible(problem, allocation)) ++sink_.infeasible_epochs;
  }

  std::unique_ptr<DistributedAlgorithm> inner_;
  SimRun& sink_;
  std::uint32_t rounds_ = 0;
};

/// Route `cfg.algorithm` through the decorator, reporting into `sink`.
/// The registry keeps the factory; `sink` must outlive every EdrSystem
/// constructed until the next call.
void route_through(const std::string& inner_key, SimRun& sink) {
  edr::core::AlgorithmRegistry::instance().add(
      kTimedKey, [inner_key, &sink](const edr::core::SystemConfig& cfg) {
        return std::make_unique<TimedAlgorithm>(
            edr::core::AlgorithmRegistry::instance().make(inner_key, cfg),
            sink);
      });
}

LiveRun run_cluster(const edr::runtime::LiveConfig& cfg) {
  LiveRun run;
  const double clock_before = core_clock_ghz();
  edr::runtime::LocalClusterOptions options;
  // Runs on the coordinator, i.e. this thread.
  options.coordinator.on_epoch_start = [&run](std::uint32_t) {
    run.epoch_starts_s.push_back(steady_seconds());
  };
  run.started_s = steady_seconds();
  edr::runtime::LocalCluster cluster{cfg, options};
  run.result = cluster.run();
  run.wall_s = steady_seconds() - run.started_s;
  run.clock_ghz = 0.5 * (clock_before + core_clock_ghz());
  run.setup_s = run.epoch_starts_s.empty()
                    ? run.wall_s
                    : run.epoch_starts_s.front() - run.started_s;
  return run;
}

}  // namespace

double core_clock_ghz() {
  constexpr int kSteps = 1 << 21;
  constexpr double kCyclesPerStep = 6.0;  // three dependent shift + xor pairs
  double best_s = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double start = steady_seconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int k = 0; k < kSteps; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    // Keeps the chain from being optimized away; x is never 0.
    const double seconds = steady_seconds() - start + (x == 0 ? 1.0 : 0.0);
    best_s = i == 0 ? seconds : std::min(best_s, seconds);
  }
  return kCyclesPerStep * kSteps / best_s * 1e-9;
}

bool allocation_feasible(const edr::optim::Problem& problem,
                         const edr::Matrix& allocation) {
  // Absolute megabytes, relative to the epoch's demand: the solvers stop
  // at a 1e-4 relative tolerance but extract an allocation that meets row
  // sums and capacities to rounding.
  const double tolerance = 1e-6 * std::max(1.0, problem.total_demand());
  return allocation.rows() == problem.num_clients() &&
         allocation.cols() == problem.num_replicas() &&
         edr::optim::check_feasibility(problem, allocation).ok(tolerance);
}

SimMeasurement measure_sim(const edr::core::SystemConfig& cfg,
                           const std::vector<edr::workload::Request>& requests,
                           double seconds) {
  SimMeasurement measurement;
  edr::core::SystemConfig timed = cfg;
  timed.algorithm = kTimedKey;

  // One untimed set-up warms the heap and the caches; then timed ones for
  // at least 3 s (at least five, at most 101), so the median is steady at
  // every client count.
  for (int warm = 0; warm < 1; ++warm) {
    SimRun scratch;
    route_through(cfg.algorithm, scratch);
    edr::core::EdrSystem system{timed, edr::workload::Trace{}};
    (void)system.run();
  }
  const double setup_began = steady_seconds();
  while (measurement.setup_s.size() < 5 ||
         (measurement.setup_s.size() < 101 &&
          steady_seconds() - setup_began < 3.0)) {
    SimRun scratch;
    route_through(cfg.algorithm, scratch);
    const double clock_before = core_clock_ghz();
    const double started = steady_seconds();
    auto system = std::make_unique<edr::core::EdrSystem>(
        timed, edr::workload::Trace{});
    (void)system->run();
    measurement.setup_s.push_back(steady_seconds() - started);
    measurement.setup_clock_ghz.push_back(
        0.5 * (clock_before + core_clock_ghz()));
  }

  const edr::workload::Trace trace{requests};
  const double deadline = steady_seconds() + seconds;
  do {
    SimRun run;
    route_through(cfg.algorithm, run);
    const double clock_before = core_clock_ghz();
    run.started_s = steady_seconds();
    auto system = std::make_unique<edr::core::EdrSystem>(timed, trace);
    run.report = system->run();
    run.wall_s = steady_seconds() - run.started_s;
    run.clock_ghz = 0.5 * (clock_before + core_clock_ghz());
    system.reset();
    measurement.runs.push_back(std::move(run));
    if (measurement.runs.size() == 1) measurement.peak_rss_mb = peak_rss_mb();
  } while (steady_seconds() < deadline);
  return measurement;
}

LiveMeasurement measure_live(const edr::runtime::LiveConfig& cfg,
                             double seconds) {
  LiveMeasurement measurement;
  // Set-up alone: the same configuration (full request schedule) with a
  // one-epoch horizon.  The first run only warms up.
  edr::runtime::LiveConfig one_epoch = cfg;
  one_epoch.epochs = 1;
  for (int i = 0; i < 4; ++i) {
    const LiveRun run = run_cluster(one_epoch);
    if (!run.result.completed)
      throw std::runtime_error("live set-up run did not complete");
    if (i == 0) continue;
    measurement.setup_s.push_back(run.setup_s);
    measurement.setup_clock_ghz.push_back(run.clock_ghz);
  }
  const double deadline = steady_seconds() + seconds;
  do {
    LiveRun run = run_cluster(cfg);
    measurement.setup_s.push_back(run.setup_s);
    measurement.setup_clock_ghz.push_back(run.clock_ghz);
    measurement.runs.push_back(std::move(run));
    if (measurement.runs.size() == 1) measurement.peak_rss_mb = peak_rss_mb();
  } while (steady_seconds() < deadline);
  return measurement;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
