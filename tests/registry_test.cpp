// The string-keyed strategy registry (baselines/registry.h): name list
// integrity, construction, option validation, and the canonical fingerprint
// view of options.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "baselines/dyn_thresh.h"
#include "baselines/registry.h"
#include "baselines/sim_gossip.h"
#include "common/fingerprint.h"

namespace lbchat::baselines {
namespace {

TEST(StrategyOptionsTest, SortedSetGetRoundTrip) {
  StrategyOptions o;
  EXPECT_TRUE(o.empty());
  o.set("zeta", 2.0);
  o.set("alpha", 1.0);
  o.set("mid", 3.0);
  o.set("alpha", 4.0);  // overwrite, not duplicate
  EXPECT_EQ(o.size(), 3u);
  EXPECT_TRUE(o.contains("alpha"));
  EXPECT_FALSE(o.contains("beta"));
  EXPECT_DOUBLE_EQ(o.get_or("alpha", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(o.get_or("beta", -1.0), -1.0);
  // entries() is sorted by key regardless of insertion order.
  ASSERT_EQ(o.entries().size(), 3u);
  EXPECT_EQ(o.entries()[0].key, "alpha");
  EXPECT_EQ(o.entries()[1].key, "mid");
  EXPECT_EQ(o.entries()[2].key, "zeta");
}

TEST(RegistryTest, ListsEveryStrategyWithUniqueNonEmptyNames) {
  const auto names = registry().list();
  // The paper's eight plus the two communication-efficiency protocols.
  ASSERT_EQ(names.size(), 10u);
  std::set<std::string> unique;
  for (const auto& n : names) {
    EXPECT_FALSE(n.empty());
    EXPECT_TRUE(unique.insert(n).second) << "duplicate name " << n;
    EXPECT_TRUE(registry().contains(n));
  }
  EXPECT_TRUE(unique.count("DynThresh") == 1);
  EXPECT_TRUE(unique.count("SimGossip") == 1);
}

TEST(RegistryTest, NameRoundTripsThroughConstruction) {
  for (const auto& name : registry().list()) {
    const auto s = registry().make(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
  }
}

TEST(RegistryTest, UnknownNamesAndOptionsAreErrors) {
  EXPECT_THROW((void)registry().make("NoSuch"), std::invalid_argument);
  EXPECT_THROW((void)registry().option_schema("NoSuch"), std::invalid_argument);
  StrategyOptions bad;
  bad.set("no_such_option", 1.0);
  EXPECT_THROW((void)registry().make("DynThresh", bad), std::invalid_argument);
  EXPECT_THROW((void)registry().fingerprint_options("DynThresh", bad), std::invalid_argument);
  // RSU-L has no tunables at all, so any option key is unknown.
  StrategyOptions any;
  any.set("temperature", 0.5);
  EXPECT_THROW((void)registry().make("RSU-L", any), std::invalid_argument);
}

TEST(RegistryTest, RegistrationRejectsBadNames) {
  StrategyRegistry r;
  const auto factory = [](const StrategyOptions&) {
    return std::unique_ptr<engine::Strategy>{std::make_unique<DynThreshStrategy>()};
  };
  EXPECT_THROW(r.register_strategy("", factory), std::logic_error);
  r.register_strategy("A", factory);
  EXPECT_THROW(r.register_strategy("A", factory), std::logic_error);
  EXPECT_THROW(r.register_strategy("B", nullptr), std::logic_error);
  EXPECT_THROW(r.register_strategy("B", factory, {{"", 0.0, ""}}), std::logic_error);
  EXPECT_THROW(r.register_strategy("B", factory, {{"x", 0.0, ""}, {"x", 1.0, ""}}),
               std::logic_error);
}

TEST(RegistryTest, OptionsReachTheStrategy) {
  StrategyOptions o;
  o.set("divergence_bound", 7e-3);
  const auto s = registry().make("DynThresh", o);
  // No direct accessor for the bound; construction not throwing plus the
  // schema round-trip below is the contract. The typed constructor is pinned
  // here instead.
  EXPECT_EQ(s->name(), "DynThresh");
  const auto sim = registry().make("SimGossip");
  auto* sg = dynamic_cast<SimGossipStrategy*>(sim.get());
  ASSERT_NE(sg, nullptr);
  // Default temperature 0.1: cosine 1 maps to 1/2, cosine 0.9 is strongly
  // gated.
  EXPECT_NEAR(sg->weight_for_similarity(1.0), 0.5, 1e-12);
  EXPECT_LT(sg->weight_for_similarity(0.9), 0.3);
  StrategyOptions hot;
  hot.set("temperature", 10.0);
  const auto soft = registry().make("SimGossip", hot);
  auto* sg_soft = dynamic_cast<SimGossipStrategy*>(soft.get());
  ASSERT_NE(sg_soft, nullptr);
  EXPECT_GT(sg_soft->weight_for_similarity(0.9), 0.45);
}

TEST(RegistryTest, FingerprintOptionsDropDefaults) {
  // Explicitly setting an option to its schema default must canonicalize to
  // "no options" so the cache key matches a run that never mentioned it.
  StrategyOptions defaults;
  defaults.set("divergence_bound", 1.5e-2);
  defaults.set("pair_weight", 0.5);
  EXPECT_TRUE(registry().fingerprint_options("DynThresh", defaults).empty());

  StrategyOptions custom;
  custom.set("divergence_bound", 2e-4);
  custom.set("pair_weight", 0.5);
  const auto kvs = registry().fingerprint_options("DynThresh", custom);
  ASSERT_EQ(kvs.size(), 1u);
  EXPECT_EQ(kvs[0].key, "divergence_bound");
  EXPECT_DOUBLE_EQ(kvs[0].value, 2e-4);

  // And through the scenario fingerprint: defaults keep the legacy key.
  const engine::ScenarioConfig cfg;
  EXPECT_EQ(scenario_fingerprint(cfg, "DynThresh",
                                 registry().fingerprint_options("DynThresh", defaults)),
            scenario_fingerprint(cfg, "DynThresh"));
  EXPECT_NE(scenario_fingerprint(cfg, "DynThresh", kvs),
            scenario_fingerprint(cfg, "DynThresh"));
}

TEST(RegistryTest, SchemasDocumentEveryOption) {
  for (const auto& name : registry().list()) {
    for (const auto& spec : registry().option_schema(name)) {
      EXPECT_FALSE(spec.name.empty()) << name;
      EXPECT_FALSE(spec.description.empty()) << name << "." << spec.name;
      EXPECT_TRUE(spec.range.contains(spec.default_value)) << name << "." << spec.name;
    }
  }
}

TEST(RegistryTest, SchemasArePinned) {
  // Name, default, description and order of every tunable, rendered as
  // lbchat_sim_cli --list-strategies prints them.
  std::string listing;
  char line[256];
  for (const auto& name : registry().list()) {
    listing += name + "\n";
    for (const auto& opt : registry().option_schema(name)) {
      std::snprintf(line, sizeof line, "  --strategy-opt %s=%g  %s\n", opt.name.c_str(),
                    opt.default_value, opt.description.c_str());
      listing += line;
    }
  }
  EXPECT_EQ(listing,
            "ProxSkip\n"
            "  --strategy-opt comm_probability=0.2  probability a round synchronizes\n"
            "  --strategy-opt variate_scale=0  control-variate strength (0 = off)\n"
            "RSU-L\n"
            "DFL-DDS\n"
            "  --strategy-opt alpha_min=0.1  mixing-weight search range lower bound\n"
            "  --strategy-opt alpha_max=0.6  mixing-weight search range upper bound\n"
            "  --strategy-opt alpha_steps=11  line-search resolution\n"
            "DP\n"
            "LbChat\n"
            "  --strategy-opt eval_cap=64  in-chat coreset evaluation cap\n"
            "SCO\n"
            "LbChat(equal-comp)\n"
            "LbChat(avg-agg)\n"
            "DynThresh\n"
            "  --strategy-opt divergence_bound=0.015  RMS divergence from reference that "
            "triggers a chat\n"
            "  --strategy-opt pair_weight=0.5  blend weight on the delivered peer model\n"
            "SimGossip\n"
            "  --strategy-opt temperature=0.1  softness of the similarity-to-weight map\n");
}

/// make() and fingerprint_options() both accept or both reject.
bool accepts(const char* strategy, const char* key, double value) {
  StrategyOptions o;
  o.set(key, value);
  bool made = true;
  bool keyed = true;
  try {
    (void)registry().make(strategy, o);
  } catch (const std::invalid_argument&) {
    made = false;
  }
  try {
    (void)registry().fingerprint_options(strategy, o);
  } catch (const std::invalid_argument&) {
    keyed = false;
  }
  EXPECT_EQ(made, keyed) << strategy << " " << key << "=" << value;
  return made;
}

TEST(RegistryTest, IntegerTunablesMustBeWholeAndInRange) {
  // eval_cap: 0 means uncapped (subsample_coreset).
  EXPECT_TRUE(accepts("LbChat", "eval_cap", 0));
  EXPECT_TRUE(accepts("LbChat", "eval_cap", 8));
  EXPECT_FALSE(accepts("LbChat", "eval_cap", -1));
  EXPECT_FALSE(accepts("LbChat", "eval_cap", 8.5));
  EXPECT_FALSE(accepts("LbChat", "eval_cap", 1e300));
  EXPECT_TRUE(accepts("DFL-DDS", "alpha_steps", 1));
  EXPECT_FALSE(accepts("DFL-DDS", "alpha_steps", 0));
  EXPECT_FALSE(accepts("DFL-DDS", "alpha_steps", 1.5));
  EXPECT_FALSE(accepts("DFL-DDS", "alpha_steps", 1e300));
  EXPECT_FALSE(accepts("DFL-DDS", "alpha_steps", 2147483648.0));  // INT_MAX + 1
}

TEST(RegistryTest, ProbabilitiesAndBlendWeightsLieInTheUnitInterval) {
  for (const auto& [strategy, key] :
       {std::pair{"ProxSkip", "comm_probability"}, std::pair{"DFL-DDS", "alpha_min"},
        std::pair{"DFL-DDS", "alpha_max"}, std::pair{"DynThresh", "pair_weight"}}) {
    EXPECT_TRUE(accepts(strategy, key, 0.0)) << key;
    EXPECT_TRUE(accepts(strategy, key, 1.0)) << key;
    EXPECT_FALSE(accepts(strategy, key, -0.1)) << key;
    EXPECT_FALSE(accepts(strategy, key, 5.0)) << key;
  }
}

TEST(RegistryTest, TemperatureMustBePositive) {
  EXPECT_TRUE(accepts("SimGossip", "temperature", 1e-9));
  EXPECT_FALSE(accepts("SimGossip", "temperature", 0.0));
  EXPECT_FALSE(accepts("SimGossip", "temperature", -1.0));
}

TEST(RegistryTest, StrengthsAndBoundsMustBeNonNegative) {
  EXPECT_TRUE(accepts("ProxSkip", "variate_scale", 0.0));
  EXPECT_FALSE(accepts("ProxSkip", "variate_scale", -0.5));
  EXPECT_TRUE(accepts("DynThresh", "divergence_bound", 0.0));
  EXPECT_FALSE(accepts("DynThresh", "divergence_bound", -1e-3));
}

TEST(RegistryTest, NonFiniteValuesAreRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(accepts("DynThresh", "divergence_bound", inf));
  EXPECT_FALSE(accepts("SimGossip", "temperature", std::numeric_limits<double>::quiet_NaN()));
}

TEST(RegistryTest, RangeErrorsNameTheRange) {
  StrategyOptions o;
  o.set("eval_cap", -1);
  try {
    (void)registry().make("LbChat", o);
    FAIL() << "eval_cap=-1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "strategy 'LbChat' option 'eval_cap' must be an integer in "
                 "[0, 9007199254740992], got -1");
  }
}

}  // namespace
}  // namespace lbchat::baselines
