// The benchmark's workloads and the inputs each one hands the program.
//
// A workload fixes the substrate (simulator or live runtime), the cluster,
// the client population, the per-client request rate and the iterate
// representation; the seed fixes the link latencies and the demand.  The
// program under test only ever receives the finished inputs: a
// SystemConfig plus request list for EdrSystem, or a LiveConfig for
// LocalCluster.  See perfbench/NOTES.md for why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/representation.hpp"
#include "core/system.hpp"
#include "runtime/live_protocol.hpp"
#include "workload/trace.hpp"

namespace perfbench {

enum class Substrate { kSim, kLive };

struct Workload {
  const char* name = "";
  Substrate substrate = Substrate::kSim;
  std::size_t replicas = 0;
  std::size_t clients = 0;
  double rate_per_client_hz = 0.0;
  /// Epochs of demand: the trace length for the simulator, the configured
  /// epoch count for the live runtime.
  std::size_t epochs = 0;
  edr::core::SolverRepresentation representation =
      edr::core::SolverRepresentation::kDense;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Offered megabytes per epoch as a share of pooled transfer capacity.
inline constexpr double kLoadFraction = 0.4;

struct Inputs {
  /// What the scheduler runs: the EdrSystem configuration for simulator
  /// workloads, LiveConfig::to_system_config() for the live one.  The
  /// per-layer replay builds its epoch problems from this.
  edr::core::SystemConfig system;
  /// The live runtime's configuration.  For simulator workloads it is the
  /// same workload expressed as a LiveConfig, used only to size the live
  /// codec at that workload's scale.
  edr::runtime::LiveConfig live;
  std::vector<edr::workload::Request> requests;
};

[[nodiscard]] Inputs make_inputs(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
