// Demand generator for the end-to-end epoch benchmark.
//
// The shipped trace generator draws its arrival count independently of
// the client population, so it cannot load the client dimension.  This one
// sizes demand per client population (as Mathew et al., arXiv 1109.5641,
// size demand per front end): the request count per epoch is
// clients x rate x epoch length, and request sizes are scaled so the
// offered megabytes of every epoch are exactly `load_fraction` of the
// pooled transfer capacity.  Holding each epoch's offered load fixed keeps
// admission control out of the picture (no request is ever shed) and keeps
// the schedule-quality metrics comparable across seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/trace.hpp"

namespace perfbench {

struct DemandSpec {
  std::size_t clients = 0;
  double rate_per_client_hz = 0.0;
  std::size_t epochs = 0;
  double epoch_length_s = 1.0;
  /// Pooled per-epoch transfer capacity in MB: replicas x bandwidth x
  /// transfer window.
  double pooled_capacity_mb = 0.0;
  double load_fraction = 0.4;
};

/// Requests for `spec.epochs` epochs, sorted by arrival, ids 0..n-1.
/// Arrivals are uniform within each epoch, clients uniform over the
/// population, sizes uniform in [0.5, 1.5) x mean before the per-epoch
/// scaling.  Same seed, same requests.
[[nodiscard]] std::vector<edr::workload::Request> generate_demand(
    const DemandSpec& spec, std::uint64_t seed);

}  // namespace perfbench
