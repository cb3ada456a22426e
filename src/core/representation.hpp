// The solver-representation knob: how CDPSM/LDDM store and exchange the
// traffic matrix while iterating.
//
//  * kDense      — the golden path: dense |C|x|N| Matrix everywhere,
//                  byte-identical to the historical behavior and pinned by
//                  the golden-equivalence digests.
//  * kSparse     — compact CSR-by-client storage over the feasible pairs
//                  (common/sparse.hpp); projections, gradients and wire
//                  frames touch only the ~|C|·k feasible entries.
//  * kAggregated — kSparse plus the client equivalence-class transform:
//                  clients with identical feasible-replica sets collapse to
//                  one aggregate row, the engine solves per class, and the
//                  allocation fans back out by demand share (exact — see
//                  core/aggregation.hpp and DESIGN.md §12).
//
// SystemConfig::representation reaches CdpsmOptions/LddmOptions/AdmmOptions
// through the algorithm registry; backends without an iterative engine
// (central, rr, donar) ignore it.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace edr::core {

enum class SolverRepresentation { kDense, kSparse, kAggregated };

[[nodiscard]] constexpr std::string_view to_string(
    SolverRepresentation representation) {
  switch (representation) {
    case SolverRepresentation::kDense:
      return "dense";
    case SolverRepresentation::kSparse:
      return "sparse";
    case SolverRepresentation::kAggregated:
      return "aggregated";
  }
  return "dense";
}

[[nodiscard]] inline std::optional<SolverRepresentation>
parse_representation(std::string_view name) {
  if (name == "dense") return SolverRepresentation::kDense;
  if (name == "sparse") return SolverRepresentation::kSparse;
  if (name == "aggregated") return SolverRepresentation::kAggregated;
  return std::nullopt;
}

}  // namespace edr::core
