// End-to-end measurement: whole runs of EdrSystem and LocalCluster, timed
// from the outside with tracing off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/live_protocol.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/// The core clock every reported time is scaled to (see core_clock_ghz).
inline constexpr double kReferenceClockGhz = 2.5;

/// This core's clock right now, in GHz, from the fastest of three timings
/// of a dependent chain of 6 x 2^21 single-cycle shift/xor operations
/// (about 5 ms).  The shared host's cores run at clocks up to ~1.3x apart
/// from minute to minute, and wall times follow; the runs time this
/// before and after every repeat and scale their times by the median
/// clock / kReferenceClockGhz, i.e. report them as the time the same
/// cycles take at the reference clock.
[[nodiscard]] double core_clock_ghz();

/// One EdrSystem run: construction plus run(), as a user pays for it.
struct SimRun {
  double started_s = 0.0;  ///< steady-clock second before construction
  double wall_s = 0.0;
  double clock_ghz = 0.0;  ///< mean core_clock_ghz() before and after
  edr::core::RunReport report;
  /// Steady-clock second at each epoch's begin_epoch; consecutive
  /// differences are the per-epoch wall times.
  std::vector<double> epoch_starts_s;
  std::vector<std::uint32_t> rounds;  ///< per solved epoch
  double objective_cents = 0.0;      ///< sum of Problem::total_cost
  std::size_t infeasible_epochs = 0;  ///< allocations failing the check
};

struct SimMeasurement {
  /// EdrSystem construction + run() with an empty trace, per repetition,
  /// and the core clock around each.
  std::vector<double> setup_s;
  std::vector<double> setup_clock_ghz;
  std::vector<SimRun> runs;
  /// Process high-water mark right after the first measured run, in MB:
  /// later runs only re-use the heap, but glibc may grow it a little.
  double peak_rss_mb = 0.0;
};

/// Set up several times, then run the whole trace repeatedly until
/// `seconds` have passed (at least once).  `cfg.algorithm` names the
/// backend; the runs see it through a forwarding decorator that only
/// stamps epoch boundaries and checks each extracted allocation.
[[nodiscard]] SimMeasurement measure_sim(
    const edr::core::SystemConfig& cfg,
    const std::vector<edr::workload::Request>& requests, double seconds);

/// One LocalCluster run (inproc transport).
struct LiveRun {
  double started_s = 0.0;  ///< steady-clock second before construction
  double wall_s = 0.0;     ///< construction -> run() returned
  double setup_s = 0.0;    ///< construction -> first epoch start
  double clock_ghz = 0.0;  ///< mean core_clock_ghz() before and after
  /// Steady-clock second at each epoch start (the coordinator's
  /// on_epoch_start hook, right before it broadcasts kStart).
  std::vector<double> epoch_starts_s;
  edr::runtime::LiveRunResult result;
};

struct LiveMeasurement {
  /// Set-up samples: from the one-epoch set-up runs and from every
  /// measured run, and the core clock around each.
  std::vector<double> setup_s;
  std::vector<double> setup_clock_ghz;
  std::vector<LiveRun> runs;
  /// As SimMeasurement::peak_rss_mb.  Each cluster run starts fresh
  /// threads, and their malloc arenas would otherwise make the figure grow
  /// with the number of runs that fit in the measurement.
  double peak_rss_mb = 0.0;
};

[[nodiscard]] LiveMeasurement measure_live(
    const edr::runtime::LiveConfig& cfg, double seconds);

/// The allocation meets every demand row sum and replica capacity (and
/// the latency mask) to within rounding of the epoch's demand.
[[nodiscard]] bool allocation_feasible(const edr::optim::Problem& problem,
                                       const edr::Matrix& allocation);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
