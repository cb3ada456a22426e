// Outside-in per-layer replay of a workload's epochs.
//
// The end-to-end runs time whole epochs; this replay splits them by layer.
// It re-executes each epoch the way EpochPipeline::start_solve (simulator)
// or LiveReplica::run_epoch (live runtime) does — demand bucketing, problem
// build, optional shedding, begin_epoch, the round loop, extraction — but
// calls each layer's public functions from the benchmark's own code, with a
// span around every call.  It is faithful only while its per-epoch round
// counts equal the end-to-end run's, which the benchmark checks.
//
// Optional probes time layers that are not on the replayed solve path: the
// client aggregation and its fan-out, the live wire codec at each epoch's
// frame sizes, and delivery of each round's planned messages through a
// standalone Simulator + SimNetwork carrying the workload's links (first
// 10 solved epochs only: it costs about as much as the simulator itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/system.hpp"
#include "optim/problem.hpp"
#include "power/model.hpp"
#include "telemetry/trace.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/// How requests become epochs.
enum class Schedule {
  /// EpochPipeline: one solve per non-empty arrival bucket, then
  /// synthetic epochs while shed remainders are pending.
  kPipeline,
  /// LiveReplica: every configured epoch, empty ones included.
  kLive,
};

/// One epoch's batch, built exactly as the program builds it.
struct EpochBatch {
  std::size_t epoch = 0;
  std::vector<std::uint32_t> active_clients;
  std::vector<std::size_t> active_replicas;
  std::vector<bool> alive;
  std::vector<edr::core::PendingRequest> requests;
  /// Empty when no client has demand this epoch.
  std::optional<edr::optim::Problem> problem;
};

/// Demand bucketing, batch assembly, problem build and admission control
/// (shed remainders re-enter the next batch), with every replica alive.
/// Keeps a reference to `cfg`, which must outlive the builder.
class EpochBuilder {
 public:
  EpochBuilder(const edr::core::SystemConfig& cfg,
               const std::vector<edr::workload::Request>& requests,
               Schedule schedule, std::size_t live_epochs);

  /// Fill `batch` with the next epoch; false once the schedule is done.
  /// The problem build and shedding run inside a "build" span.
  bool next(EpochBatch& batch, edr::telemetry::EventTracer& tracer);

 private:
  const edr::core::SystemConfig& cfg_;
  Schedule schedule_;
  double window_s_ = 0.0;
  edr::power::PowerModel shared_model_;
  std::vector<std::vector<edr::core::PendingRequest>> buckets_;
  std::vector<edr::core::PendingRequest> backlog_;
  std::size_t cursor_ = 0;
};

struct ReplayEpoch {
  std::size_t epoch = 0;
  /// False when no client had demand (the live runtime still completes
  /// such an epoch, with an empty allocation; the pipeline skips it).
  bool solved = false;
  std::uint32_t rounds = 0;
  /// The round loop stopped at the backend's max_rounds.
  bool capped = false;
  /// runtime::digest_matrix of the extracted allocation.
  std::uint64_t digest = 0;
  double objective = 0.0;
};

/// Totals of the optional probes.
struct Probes {
  double aggregate_s = 0.0;  ///< build_client_aggregation + aggregate_problem
  double expand_s = 0.0;     ///< expand_allocation
  std::uint64_t classes = 0;
  double round_codec_s = 0.0;  ///< encode_round + decode_round
  std::uint64_t round_frames = 0;
  std::uint64_t round_bytes = 0;
  double epoch_done_codec_s = 0.0;  ///< encode/decode_epoch_done
  std::uint64_t epoch_done_frames = 0;
  std::uint64_t epoch_done_bytes = 0;
  double start_bytes = 0.0;  ///< one kStart frame
  double deliver_s = 0.0;    ///< send + drain of planned round messages
  std::uint64_t delivery_epochs = 0;  ///< epochs whose rounds were delivered
  std::uint64_t messages = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
};

struct ReplayOptions {
  Schedule schedule = Schedule::kPipeline;
  std::size_t live_epochs = 0;
  /// Spans land here when it is non-null and enabled.
  edr::telemetry::EventTracer* tracer = nullptr;
  bool probes = false;
};

struct ReplayResult {
  std::vector<ReplayEpoch> epochs;  ///< every epoch the schedule formed
  double wall_s = 0.0;
  Probes probes;
};

/// Replay every epoch of `requests` under `cfg` (an iterative backend).
[[nodiscard]] ReplayResult replay(
    const edr::core::SystemConfig& cfg,
    const std::vector<edr::workload::Request>& requests,
    const ReplayOptions& options);

/// Seconds per span name over everything `tracer` retained.
[[nodiscard]] std::map<std::string, double> span_seconds(
    const edr::telemetry::EventTracer& tracer);

/// Seconds on the steady clock (the tracer clock the replay uses).
[[nodiscard]] double steady_seconds();

}  // namespace perfbench
