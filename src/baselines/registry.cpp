#include "baselines/registry.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "baselines/dfl_dds.h"
#include "baselines/dp.h"
#include "baselines/dyn_thresh.h"
#include "baselines/proxskip.h"
#include "baselines/rsul.h"
#include "baselines/sim_gossip.h"
#include "core/lbchat.h"

namespace lbchat::baselines {
namespace {

/// The entry of `kv` in `strategy`'s schema. Throws std::invalid_argument on
/// an unknown key or a value outside the option's range.
const OptionSpec& checked_option(const std::string& strategy,
                                 const std::vector<OptionSpec>& schema,
                                 const StrategyOptions::Kv& kv) {
  const auto it = std::find_if(schema.begin(), schema.end(),
                               [&](const OptionSpec& s) { return s.name == kv.key; });
  if (it == schema.end()) {
    throw std::invalid_argument{"strategy '" + strategy + "' has no option '" + kv.key + "'"};
  }
  if (!it->range.contains(kv.value)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", kv.value);
    throw std::invalid_argument{"strategy '" + strategy + "' option '" + kv.key + "' must be " +
                                it->range.describe() + ", got " + got};
  }
  return *it;
}

}  // namespace

void StrategyOptions::set(std::string_view key, double value) {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  if (it != kv_.end() && it->key == key) {
    it->value = value;
  } else {
    kv_.insert(it, Kv{std::string{key}, value});
  }
}

bool StrategyOptions::contains(std::string_view key) const {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  return it != kv_.end() && it->key == key;
}

double StrategyOptions::get_or(std::string_view key, double fallback) const {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const Kv& kv, std::string_view k) { return kv.key < k; });
  return it != kv_.end() && it->key == key ? it->value : fallback;
}

void StrategyRegistry::register_strategy(std::string name, Factory factory,
                                         std::vector<OptionSpec> schema) {
  if (name.empty()) {
    throw std::logic_error{"register_strategy: empty strategy name"};
  }
  if (!factory) {
    throw std::logic_error{"register_strategy: null factory for '" + name + "'"};
  }
  for (const Entry& e : entries_) {
    if (e.name == name) {
      throw std::logic_error{"register_strategy: duplicate strategy name '" + name + "'"};
    }
  }
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (schema[i].name.empty()) {
      throw std::logic_error{"register_strategy: empty option name for '" + name + "'"};
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (schema[j].name == schema[i].name) {
        throw std::logic_error{"register_strategy: duplicate option '" + schema[i].name +
                               "' for '" + name + "'"};
      }
    }
  }
  entries_.push_back(Entry{std::move(name), std::move(factory), std::move(schema)});
}

const StrategyRegistry::Entry& StrategyRegistry::entry(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument{"strategy registry: unknown strategy '" + std::string{name} +
                              "'"};
}

std::unique_ptr<engine::Strategy> StrategyRegistry::make(
    std::string_view name, const StrategyOptions& options) const {
  const Entry& e = entry(name);
  for (const auto& kv : options.entries()) (void)checked_option(e.name, e.schema, kv);
  return e.factory(options);
}

std::vector<std::string> StrategyRegistry::list() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) names.push_back(e.name);
  return names;
}

bool StrategyRegistry::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

const std::vector<OptionSpec>& StrategyRegistry::option_schema(std::string_view name) const {
  return entry(name).schema;
}

std::vector<StrategyOptionKv> StrategyRegistry::fingerprint_options(
    std::string_view name, const StrategyOptions& options) const {
  const Entry& e = entry(name);
  std::vector<StrategyOptionKv> out;
  for (const auto& kv : options.entries()) {
    // Defaults are dropped so an explicitly-default run keys identically to
    // one that never mentioned the option (fingerprint tail contract).
    if (kv.value != checked_option(e.name, e.schema, kv).default_value) {
      out.push_back(StrategyOptionKv{kv.key, kv.value});
    }
  }
  return out;
}

namespace {

/// Registers strategy `S`, built from an `Opts` whose declared tunables are
/// the schema; the defaults come from a default-constructed `Opts`.
template <class S, class Opts>
void register_tuned(StrategyRegistry& reg, std::string name) {
  std::vector<OptionSpec> schema;
  for (const auto& t : Opts::tunables()) {
    schema.push_back({t.name, t.get(Opts{}), t.description, t.range});
  }
  reg.register_strategy(
      std::move(name),
      [](const StrategyOptions& o) -> std::unique_ptr<engine::Strategy> {
        Opts opts;
        for (const auto& t : Opts::tunables()) t.set(opts, o.get_or(t.name, t.get(opts)));
        return std::make_unique<S>(opts);
      },
      std::move(schema));
}

/// The factory of a strategy without tunables.
template <class S>
std::unique_ptr<engine::Strategy> untuned(const StrategyOptions&) {
  return std::make_unique<S>();
}

/// An LbChat ablation: the defaults with one mechanism switched off.
StrategyRegistry::Factory lbchat_without(bool core::LbChatOptions::*mechanism) {
  return [mechanism](const StrategyOptions&) -> std::unique_ptr<engine::Strategy> {
    core::LbChatOptions opts;
    opts.*mechanism = false;
    return std::make_unique<core::LbChatStrategy>(opts);
  };
}

StrategyRegistry build_registry() {
  StrategyRegistry reg;
  register_tuned<ProxSkipStrategy, ProxSkipOptions>(reg, "ProxSkip");
  reg.register_strategy("RSU-L", untuned<RsuStrategy>);
  register_tuned<DflDdsStrategy, DflDdsOptions>(reg, "DFL-DDS");
  reg.register_strategy("DP", untuned<DpStrategy>);
  register_tuned<core::LbChatStrategy, core::LbChatOptions>(reg, "LbChat");
  reg.register_strategy("SCO", lbchat_without(&core::LbChatOptions::share_model));
  reg.register_strategy("LbChat(equal-comp)",
                        lbchat_without(&core::LbChatOptions::adaptive_compression));
  reg.register_strategy("LbChat(avg-agg)",
                        lbchat_without(&core::LbChatOptions::coreset_weighted_aggregation));
  register_tuned<DynThreshStrategy, DynThreshOptions>(reg, "DynThresh");
  register_tuned<SimGossipStrategy, SimGossipOptions>(reg, "SimGossip");
  return reg;
}

}  // namespace

StrategyRegistry& registry() {
  static StrategyRegistry reg = build_registry();
  return reg;
}

}  // namespace lbchat::baselines
