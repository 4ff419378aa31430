// String-keyed strategy registry.
//
// Every collaborative-training strategy — the paper's approaches, the LbChat
// ablations, and the communication-efficiency protocols from related work —
// registers under its table name together with a factory and an option
// schema. Consumers (the CLI, the fleet service's JobSpec, the bench
// harness) construct strategies by name with a StrategyOptions bag; unknown
// names and unknown option keys are hard errors, mirroring the JobSpec
// "typo'd knob must not silently run the default" policy.
//
// The registry is also the single source of truth for the name list:
// registration rejects empty and duplicate names.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fingerprint.h"
#include "common/tunable.h"
#include "engine/fleet.h"

namespace lbchat::baselines {

/// One tunable a strategy exposes through the registry. The built-ins take
/// theirs from their options struct's tunables() (common/tunable.h).
struct OptionSpec {
  std::string name;
  double default_value = 0.0;
  std::string description;
  TunableRange range{};
};

/// A flat key -> value bag of per-strategy tunables, kept sorted by key so
/// iteration (and everything derived from it, fingerprints included) is
/// deterministic regardless of insertion order. Values are doubles — every
/// current tunable is numeric; booleans travel as 0/1.
class StrategyOptions {
 public:
  /// Insert or overwrite.
  void set(std::string_view key, double value);
  [[nodiscard]] bool contains(std::string_view key) const;
  /// The stored value, or `fallback` when the key was never set.
  [[nodiscard]] double get_or(std::string_view key, double fallback) const;
  [[nodiscard]] bool empty() const { return kv_.empty(); }
  [[nodiscard]] std::size_t size() const { return kv_.size(); }

  struct Kv {
    std::string key;
    double value = 0.0;
  };
  /// Sorted ascending by key.
  [[nodiscard]] const std::vector<Kv>& entries() const { return kv_; }

 private:
  std::vector<Kv> kv_;
};

class StrategyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<engine::Strategy>(const StrategyOptions&)>;

  /// Register `name`. Throws std::logic_error on an empty name, a duplicate
  /// name, or a schema with duplicate/empty option names — registration is
  /// the uniqueness gate that the old hand-maintained initializer list never
  /// had.
  void register_strategy(std::string name, Factory factory,
                         std::vector<OptionSpec> schema = {});

  /// Construct a strategy by name. Throws std::invalid_argument on an
  /// unknown name, an option key absent from the strategy's schema, or a
  /// value outside the option's range.
  [[nodiscard]] std::unique_ptr<engine::Strategy> make(
      std::string_view name, const StrategyOptions& options = {}) const;

  /// Registered names, in registration order (the paper-table order for the
  /// built-ins).
  [[nodiscard]] std::vector<std::string> list() const;
  [[nodiscard]] bool contains(std::string_view name) const;

  /// The option schema of a registered strategy (empty for strategies
  /// without tunables). Throws std::invalid_argument on an unknown name.
  [[nodiscard]] const std::vector<OptionSpec>& option_schema(std::string_view name) const;

  /// Schema-validated canonical view of `options` for cache keys: sorted by
  /// key, with entries equal to the schema default dropped — so a strategy
  /// explicitly configured to its defaults fingerprints identically to one
  /// whose options were never mentioned (engine::scenario_fingerprint tail
  /// contract). Throws std::invalid_argument like make().
  [[nodiscard]] std::vector<StrategyOptionKv> fingerprint_options(
      std::string_view name, const StrategyOptions& options) const;

 private:
  struct Entry {
    std::string name;
    Factory factory;
    std::vector<OptionSpec> schema;
  };
  [[nodiscard]] const Entry& entry(std::string_view name) const;

  std::vector<Entry> entries_;
};

/// The process-wide registry, pre-populated with every built-in strategy:
/// ProxSkip, RSU-L, DFL-DDS, DP, LbChat, SCO, the two LbChat ablations,
/// DynThresh, and SimGossip.
[[nodiscard]] StrategyRegistry& registry();

}  // namespace lbchat::baselines
