#include "demand.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

std::vector<edr::workload::Request> generate_demand(const DemandSpec& spec,
                                                    std::uint64_t seed) {
  if (spec.clients == 0 || spec.epochs == 0 || spec.pooled_capacity_mb <= 0.0)
    throw std::invalid_argument("generate_demand: empty spec");
  const auto per_epoch = static_cast<std::size_t>(std::llround(
      static_cast<double>(spec.clients) * spec.rate_per_client_hz *
      spec.epoch_length_s));
  if (per_epoch == 0)
    throw std::invalid_argument("generate_demand: no requests per epoch");
  const double offered_mb = spec.load_fraction * spec.pooled_capacity_mb;

  edr::Rng rng{seed};
  std::vector<edr::workload::Request> requests;
  requests.reserve(per_epoch * spec.epochs);
  std::vector<double> sizes(per_epoch);
  for (std::size_t e = 0; e < spec.epochs; ++e) {
    double total = 0.0;
    for (double& size : sizes) {
      size = rng.uniform(0.5, 1.5);
      total += size;
    }
    const double start = static_cast<double>(e) * spec.epoch_length_s;
    for (const double size : sizes) {
      edr::workload::Request request;
      request.client = static_cast<std::uint32_t>(rng.bounded(spec.clients));
      // Strictly inside [start, start + length): an arrival that rounded up
      // to the boundary would land in the next epoch's bucket.
      request.arrival =
          start + rng.uniform() * spec.epoch_length_s * (1.0 - 1e-9);
      request.size_mb = size * offered_mb / total;
      requests.push_back(request);
    }
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < requests.size(); ++i) requests[i].id = i;
  return requests;
}

}  // namespace perfbench
