// The four built-in DistributedAlgorithm backends.
//
// Concrete classes are exposed (not just registry keys) so tests can drive
// an algorithm synchronously against a fabricated EpochContext — e.g. the
// warm-start regression in tests/core/algorithm_test.cpp.
#pragma once

#include <memory>
#include <vector>

#include "core/admm.hpp"
#include "core/algorithm.hpp"
#include "core/cdpsm.hpp"
#include "core/lddm.hpp"

namespace edr::core {

/// Consensus-based distributed projected subgradient (paper §III-C.1).
class CdpsmAlgorithm final : public DistributedAlgorithm {
 public:
  explicit CdpsmAlgorithm(CdpsmOptions options);

  [[nodiscard]] const char* name() const override { return "cdpsm"; }
  [[nodiscard]] const char* display_name() const override {
    return "EDR-CDPSM";
  }
  [[nodiscard]] std::span<const MessageTypeInfo> message_types()
      const override;
  [[nodiscard]] double compute_factor(const EpochContext& ctx) const override;
  [[nodiscard]] double coordination_bytes(double clients,
                                          double replicas) const override;
  void begin_epoch(const EpochContext& ctx) override;
  void plan_round(const EpochContext& ctx,
                  std::vector<PlannedMessage>& out) const override;
  bool step_round(const EpochContext& ctx) override;
  void observe(const EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;
  Matrix extract_allocation(const EpochContext& ctx) override;
  void abort_epoch() override;

 private:
  CdpsmOptions options_;
  std::unique_ptr<CdpsmEngine> engine_;
  CdpsmRoundStats last_round_;
};

/// Lagrangian dual decomposition (paper §III-C.2) with cross-epoch warm
/// starts: duals per global client plus primal columns per global
/// (client, replica) pair survive between epochs and are re-injected,
/// scaled to the new demand level.
class LddmAlgorithm final : public DistributedAlgorithm {
 public:
  LddmAlgorithm(LddmOptions options, bool warm_start);

  [[nodiscard]] const char* name() const override { return "lddm"; }
  [[nodiscard]] const char* display_name() const override {
    return "EDR-LDDM";
  }
  [[nodiscard]] std::span<const MessageTypeInfo> message_types()
      const override;
  void begin_epoch(const EpochContext& ctx) override;
  void plan_round(const EpochContext& ctx,
                  std::vector<PlannedMessage>& out) const override;
  bool step_round(const EpochContext& ctx) override;
  void observe(const EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;
  Matrix extract_allocation(const EpochContext& ctx) override;
  void abort_epoch() override;

 private:
  LddmOptions options_;
  LddmRoundStats last_round_;
  bool warm_start_ = true;
  std::unique_ptr<LddmEngine> engine_;
  std::vector<double> warm_mu_;  // duals carried across epochs
  Matrix warm_columns_;          // primal loads carried across epochs
  double warm_demand_total_ = 0.0;
};

/// Consensus ADMM (scaled form) with cross-epoch warm starts: the consensus
/// iterate Z, the scaled duals U and the adapted penalty ρ survive between
/// epochs and are re-injected, scaled to the new demand level.  Converges
/// in far fewer rounds than the subgradient schemes at LDDM-class traffic
/// (client↔replica only).
class AdmmAlgorithm final : public DistributedAlgorithm {
 public:
  AdmmAlgorithm(AdmmOptions options, bool warm_start);

  [[nodiscard]] const char* name() const override { return "admm"; }
  [[nodiscard]] const char* display_name() const override {
    return "EDR-ADMM";
  }
  [[nodiscard]] std::span<const MessageTypeInfo> message_types()
      const override;
  void begin_epoch(const EpochContext& ctx) override;
  void plan_round(const EpochContext& ctx,
                  std::vector<PlannedMessage>& out) const override;
  bool step_round(const EpochContext& ctx) override;
  void observe(const EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;
  Matrix extract_allocation(const EpochContext& ctx) override;
  void abort_epoch() override;

 private:
  AdmmOptions options_;
  AdmmRoundStats last_round_;
  bool warm_start_ = true;
  std::unique_ptr<AdmmEngine> engine_;
  Matrix warm_z_;  // consensus iterate carried across epochs
  Matrix warm_u_;  // scaled duals carried across epochs
  double warm_rho_ = 0.0;  // adapted penalty carried across epochs
  double warm_demand_total_ = 0.0;
};

/// Energy-oblivious request-granular rotation (the paper's baseline).  The
/// rotation cursor is cross-epoch state: it survives aborts and epochs so
/// load keeps rotating instead of restarting at replica 0.
class RoundRobinAlgorithm final : public DistributedAlgorithm {
 public:
  [[nodiscard]] const char* name() const override { return "rr"; }
  [[nodiscard]] const char* display_name() const override {
    return "RoundRobin";
  }
  [[nodiscard]] bool iterative() const override { return false; }
  std::optional<Matrix> solve_oneshot(const EpochContext& ctx) override;
  void observe(const EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;

 private:
  std::size_t cursor_ = 0;
  std::vector<telemetry::RoundSample> pending_samples_;
};

/// Single-coordinator reference: clients ship demands to the lowest-id
/// alive replica, which solves the global problem (the single point of
/// failure the paper's decentralized design avoids).
class CentralizedAlgorithm final : public DistributedAlgorithm {
 public:
  [[nodiscard]] const char* name() const override { return "central"; }
  [[nodiscard]] const char* display_name() const override {
    return "Centralized";
  }
  [[nodiscard]] bool iterative() const override { return false; }
  [[nodiscard]] double compute_factor(const EpochContext& ctx) const override;
  void begin_epoch(const EpochContext& ctx) override;
  void plan_prologue(const EpochContext& ctx,
                     std::vector<PlannedMessage>& out) const override;
  std::optional<Matrix> solve_oneshot(const EpochContext& ctx) override;
  void observe(const EpochContext& ctx,
               std::vector<telemetry::RoundSample>& out) override;

 private:
  std::size_t coordinator_ = 0;
  std::vector<telemetry::RoundSample> pending_samples_;
};

}  // namespace edr::core
