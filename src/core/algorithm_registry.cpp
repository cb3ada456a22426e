#include "core/algorithm_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/builtin_algorithms.hpp"
#include "core/system.hpp"

namespace edr::core {

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry = [] {
    AlgorithmRegistry r;
    r.add("lddm",
          "Lagrangian dual decomposition (paper default; client-replica "
          "traffic only)",
          [](const SystemConfig& cfg) {
            auto options = cfg.lddm;
            options.representation = cfg.representation;
            options.simd = cfg.simd;
            return std::make_unique<LddmAlgorithm>(options, cfg.warm_start);
          });
    r.add("cdpsm",
          "Consensus projected subgradient (full estimate exchange between "
          "replicas)",
          [](const SystemConfig& cfg) {
            auto options = cfg.cdpsm;
            options.representation = cfg.representation;
            options.simd = cfg.simd;
            return std::make_unique<CdpsmAlgorithm>(options);
          });
    r.add("admm",
          "Consensus ADMM (scaled form; fewest rounds at LDDM-class "
          "traffic)",
          [](const SystemConfig& cfg) {
            auto options = cfg.admm;
            options.representation = cfg.representation;
            options.simd = cfg.simd;
            return std::make_unique<AdmmAlgorithm>(options, cfg.warm_start);
          });
    r.add("central",
          "Single-coordinator exact solve (the paper's centralized "
          "reference)",
          [](const SystemConfig&) {
            return std::make_unique<CentralizedAlgorithm>();
          });
    r.add("rr",
          "Energy-oblivious round-robin rotation (the paper's baseline)",
          [](const SystemConfig&) {
            return std::make_unique<RoundRobinAlgorithm>();
          });
    return r;
  }();
  return registry;
}

void AlgorithmRegistry::add(std::string key, AlgorithmFactory factory) {
  add(std::move(key), std::string(), std::move(factory));
}

void AlgorithmRegistry::add(std::string key, std::string description,
                            AlgorithmFactory factory) {
  for (auto& entry : entries_) {
    if (entry.key == key) {
      entry.description = std::move(description);
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back(
      {std::move(key), std::move(description), std::move(factory)});
}

std::string AlgorithmRegistry::description(const std::string& key) const {
  for (const auto& entry : entries_)
    if (entry.key == key) return entry.description;
  return {};
}

bool AlgorithmRegistry::contains(const std::string& key) const {
  for (const auto& entry : entries_)
    if (entry.key == key) return true;
  return false;
}

std::vector<std::string> AlgorithmRegistry::keys() const {
  std::vector<std::string> keys;
  for (const auto& entry : entries_) keys.push_back(entry.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::unique_ptr<DistributedAlgorithm> AlgorithmRegistry::make(
    const std::string& key, const SystemConfig& cfg) const {
  for (const auto& entry : entries_)
    if (entry.key == key) return entry.factory(cfg);
  std::string known;
  for (const auto& k : keys()) {
    if (!known.empty()) known += "|";
    known += k;
  }
  throw std::invalid_argument("unknown algorithm '" + key + "' (" + known +
                              ")");
}

std::unique_ptr<DistributedAlgorithm> make_algorithm(const SystemConfig& cfg) {
  return AlgorithmRegistry::instance().make(cfg.algorithm, cfg);
}

std::string algorithm_display_name(const std::string& key) {
  return AlgorithmRegistry::instance().make(key, SystemConfig{})
      ->display_name();
}

}  // namespace edr::core
