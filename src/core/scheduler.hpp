// Scheduler interface: one scheduling epoch in, one traffic matrix out.
//
// Everything the evaluation compares — EDR-LDDM, EDR-CDPSM, the centralized
// reference, Round-Robin, DONAR — implements this interface, so the bench
// harness can replay identical traces through each algorithm and attribute
// cost differences to the algorithm alone.
#pragma once

#include <memory>
#include <string>

#include "common/matrix.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"
#include "optim/problem.hpp"

namespace edr::core {

struct ScheduleResult {
  Matrix allocation;
  /// Distributed rounds to convergence (0 for non-iterative schedulers).
  std::size_t rounds = 0;
  /// Coordination messages exchanged while solving.
  std::size_t messages = 0;
  /// Coordination bytes exchanged while solving.
  std::size_t bytes = 0;
  bool converged = true;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Compute an allocation for `problem`.  Throws std::runtime_error if the
  /// instance is infeasible (callers validate with check_transport_feasible
  /// when infeasibility is an expected input).
  [[nodiscard]] virtual ScheduleResult schedule(
      const optim::Problem& problem) = 0;
};

/// The "single central agent" the paper contrasts EDR with.
class CentralizedScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Centralized"; }
  [[nodiscard]] ScheduleResult schedule(
      const optim::Problem& problem) override;
};

/// EDR running the consensus-based projected subgradient method.
class CdpsmScheduler final : public Scheduler {
 public:
  explicit CdpsmScheduler(CdpsmOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string name() const override { return "EDR-CDPSM"; }
  [[nodiscard]] ScheduleResult schedule(
      const optim::Problem& problem) override;

 private:
  CdpsmOptions options_;
};

/// EDR running Lagrangian dual decomposition.
class LddmScheduler final : public Scheduler {
 public:
  explicit LddmScheduler(LddmOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string name() const override { return "EDR-LDDM"; }
  [[nodiscard]] ScheduleResult schedule(
      const optim::Problem& problem) override;

 private:
  LddmOptions options_;
};

/// The paper's baseline: split every client's demand equally across its
/// latency-feasible replicas, oblivious to price and load, then waterfall
/// any capacity overflow onto the remaining feasible replicas.
[[nodiscard]] Matrix round_robin_allocation(const optim::Problem& problem);

}  // namespace edr::core
