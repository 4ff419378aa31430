// Fleet-evaluation service tests (src/svc, DESIGN.md §13).
//
// The determinism spine: a job's served payload must be byte-identical
// across {cold run, cache hit, preempted + re-queued + resumed run,
// persisted + recovered-in-a-new-service run}, at 1 and 4 workers, with
// faults and adversaries enabled. Everything else — queue ordering,
// backpressure, cancellation, the wire protocol — wraps around that.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/file_io.h"
#include "engine/fleet.h"
#include "obs/export.h"
#include "svc/job.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/result.h"
#include "svc/result_cache.h"
#include "svc/server.h"
#include "svc/socket.h"

namespace lbchat::svc {
namespace {

// --- helpers ---------------------------------------------------------------

std::filesystem::path fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lbchat_svc_" + tag + "_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// `text` in double quotes: a JSON key or string. Built by append, not by
/// `"\"" + std::string`, which GCC 12 misreads as an overlapping copy
/// (-Wrestrict) once inlined.
std::string in_quotes(std::string_view text) {
  return std::string{"\""}.append(text).append("\"");
}

std::string slurp(const std::filesystem::path& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text)) << path;
  return text;
}

// The tiny-but-complete scenario every run test uses: small fleet, short
// horizon, faults + Byzantine peers + stragglers all live, so the determinism
// assertions cover the full engine surface.
std::string tiny_spec(int seed = 7, const std::string& extra_members = "") {
  std::string spec = R"({"strategy":"LbChat","name":"tiny","vehicles":4,)"
                     R"("duration":40,"collect_duration":20,"collect_fps":1,)"
                     R"("eval_frames":2,"background_cars":4,"pedestrians":6,)"
                     R"("eval_interval":10,"train_interval":2,"batch_size":4,)"
                     R"("coreset":12,"time_budget":8,"pair_cooldown":5,)"
                     R"("radio_range":400,"model_bytes":4194304,)"
                     R"("byzantine_frac":0.25,"straggler_frac":0.25,)"
                     R"("faults":{"burst_rate_per_min":2.0,"burst_extra_loss":1.0,)"
                     R"("churn_rate_per_min":0.5,"corrupt_prob_near":0.05,)"
                     R"("corrupt_prob_far":0.2,"chat_backoff":true},)";
  spec += "\"seed\":" + std::to_string(seed);
  if (!extra_members.empty()) spec += "," + extra_members;
  spec += "}";
  return spec;
}

ServiceOptions tiny_options(const std::filesystem::path& root, int workers,
                            bool cache_enabled = true, double epoch_s = 10.0) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.epoch_s = epoch_s;
  opts.root = root;
  opts.cache_enabled = cache_enabled;
  return opts;
}

JobStatus submit_and_wait(FleetService& service, const std::string& spec) {
  std::string error;
  const std::uint64_t id = service.submit(spec, error);
  EXPECT_NE(id, 0u) << error;
  JobStatus status;
  EXPECT_TRUE(service.wait(id, status));
  return status;
}

// --- JSON parser -----------------------------------------------------------

TEST(JsonTest, ParsesScalarsObjectsArrays) {
  std::string err;
  const auto v = json_parse(
      R"({"a":1.5,"b":"x\nA","c":[true,false,null],"d":{"e":-2e3}})", err);
  ASSERT_NE(v, nullptr) << err;
  EXPECT_DOUBLE_EQ(v->get("a")->as_number(), 1.5);
  EXPECT_EQ(v->get("b")->as_string(), "x\nA");
  ASSERT_EQ(v->get("c")->items().size(), 3u);
  EXPECT_TRUE(v->get("c")->items()[0]->as_bool());
  EXPECT_TRUE(v->get("c")->items()[2]->is_null());
  EXPECT_DOUBLE_EQ(v->get("d")->get("e")->as_number(), -2000.0);
  EXPECT_EQ(v->get("missing"), nullptr);
}

TEST(JsonTest, ParsesSurrogatePairs) {
  std::string err;
  const auto v = json_parse(R"("😀")", err);
  ASSERT_NE(v, nullptr) << err;
  EXPECT_EQ(v->as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string err;
  EXPECT_EQ(json_parse("{", err), nullptr);
  EXPECT_EQ(json_parse("{\"a\":1,}", err), nullptr);
  EXPECT_EQ(json_parse("[1 2]", err), nullptr);
  EXPECT_EQ(json_parse("01", err), nullptr);
  EXPECT_EQ(json_parse("\"unterminated", err), nullptr);
  EXPECT_EQ(json_parse("\"bad\\q\"", err), nullptr);
  EXPECT_EQ(json_parse("nul", err), nullptr);
  EXPECT_EQ(json_parse("{} trailing", err), nullptr);
  EXPECT_EQ(json_parse(R"({"a":1,"a":2})", err), nullptr) << "duplicate keys";
  EXPECT_FALSE(err.empty());
}

TEST(JsonTest, RecordsSourceSpans) {
  std::string err;
  const std::string text = R"( {"a":"{spec}","spec":{"x":[1, 2]},"n":-2e3} )";
  const auto v = json_parse(text, err);
  ASSERT_NE(v, nullptr) << err;
  const auto slice = [&](const JsonValue* j) {
    return text.substr(j->source_begin(), j->source_end() - j->source_begin());
  };
  EXPECT_EQ(slice(v.get()), R"({"a":"{spec}","spec":{"x":[1, 2]},"n":-2e3})");
  EXPECT_EQ(slice(v->get("a")), R"("{spec}")");
  EXPECT_EQ(slice(v->get("spec")), R"({"x":[1, 2]})");
  EXPECT_EQ(slice(v->get("spec")->get("x")), "[1, 2]");
  EXPECT_EQ(slice(v->get("n")), "-2e3");
}

TEST(JsonTest, EscapeRoundTrips) {
  const std::string raw = "a\"b\\c\nd\x01";
  std::string err;
  const auto v = json_parse(in_quotes(json_escape(raw)), err);
  ASSERT_NE(v, nullptr) << err;
  EXPECT_EQ(v->as_string(), raw);
}

// --- Job specs -------------------------------------------------------------

TEST(JobSpecTest, ParsesFullSpec) {
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(7, R"("priority":3,"events":true)"), spec, err)) << err;
  EXPECT_EQ(spec.approach_name, "LbChat");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.priority, 3);
  EXPECT_TRUE(spec.events);
  EXPECT_EQ(spec.cfg.num_vehicles, 4);
  EXPECT_DOUBLE_EQ(spec.cfg.duration_s, 40.0);
  EXPECT_EQ(spec.cfg.batch_size, 4);
  EXPECT_DOUBLE_EQ(spec.cfg.adversary.byzantine_frac, 0.25);
  EXPECT_DOUBLE_EQ(spec.cfg.faults.burst_rate_per_min, 2.0);
  EXPECT_TRUE(spec.cfg.faults.chat_backoff);
  EXPECT_EQ(spec.source, tiny_spec(7, R"("priority":3,"events":true)"));
}

TEST(JobSpecTest, RejectsUnknownAndInvalid) {
  JobSpec spec;
  std::string err;
  EXPECT_FALSE(parse_job_spec(R"({"approch":"LbChat"})", spec, err));
  EXPECT_NE(err.find("approch"), std::string::npos);
  EXPECT_FALSE(parse_job_spec(R"({"vehicles":"four"})", spec, err));
  EXPECT_FALSE(parse_job_spec(R"({"vehicles":1})", spec, err));
  EXPECT_FALSE(parse_job_spec(R"({"duration":0})", spec, err));
  EXPECT_FALSE(parse_job_spec(R"({"strategy":"NoSuch"})", spec, err));
  // The pre-registry "approach" spelling is gone: a spec naming it fails.
  EXPECT_FALSE(parse_job_spec(R"({"approach":"LbChat","vehicles":4,"duration":40})", spec, err));
  EXPECT_EQ(err, "unknown key \"approach\"");
  EXPECT_FALSE(parse_job_spec(R"({"faults":{"burst_rate":1}})", spec, err));
  EXPECT_FALSE(parse_job_spec(R"([1,2])", spec, err));
  EXPECT_FALSE(parse_job_spec("not json", spec, err));
}

TEST(JobSpecTest, SeedMustBeAnExactInteger) {
  // "seed" arrives as a JSON double: fractions, negatives and values past
  // 2^53 (where doubles stop naming one integer) are errors, never a cast.
  const auto parse = [](const std::string& seed, JobSpec& spec, std::string& err) {
    return parse_job_spec(R"({"vehicles":4,"duration":40,"seed":)" + seed + "}", spec, err);
  };
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(parse("9007199254740992", spec, err)) << err;  // 2^53
  EXPECT_EQ(spec.cfg.seed, 9007199254740992ull);
  ASSERT_TRUE(parse("0", spec, err)) << err;
  EXPECT_EQ(spec.cfg.seed, 0u);
  for (const char* bad : {"1.5", "9007199254740994", "1e300", "18446744073709551616", "-1"}) {
    err.clear();
    EXPECT_FALSE(parse(bad, spec, err)) << bad;
    EXPECT_EQ(err, "\"seed\" must be an integer in [0, 2^53]") << bad;
  }
}

TEST(JobSpecTest, NumbersMustBeFiniteAndCountsWhole) {
  // A literal beyond DBL_MAX parses to inf: every number key rejects it
  // (an infinite horizon would never end). Byte counts are whole numbers in
  // [1, 2^53], never truncated.
  const auto parse = [](const std::string& extra, JobSpec& spec, std::string& err) {
    return parse_job_spec(R"({"vehicles":4,)" + extra + "}", spec, err);
  };
  JobSpec spec;
  std::string err;
  for (const char* key : {"duration", "collect_duration", "collect_fps", "radio_range",
                          "learning_rate", "byzantine_frac", "preempt_at"}) {
    for (const char* inf : {"1e400", "-1e400"}) {
      err.clear();
      EXPECT_FALSE(parse(in_quotes(key) + ":" + inf, spec, err)) << key << inf;
      EXPECT_EQ(err, in_quotes(key) + " must be finite") << key << inf;
    }
  }
  EXPECT_FALSE(parse(R"("faults":{"burst_radius_m":1e400})", spec, err));
  EXPECT_EQ(err, "\"burst_radius_m\" must be finite");
  EXPECT_FALSE(parse(R"("strategy_options":{"divergence_bound":1e400})", spec, err));

  ASSERT_TRUE(parse(R"("model_bytes":9007199254740992,"coreset_bytes_per_sample":1)", spec,
                    err))
      << err;
  EXPECT_EQ(spec.cfg.wire.model_bytes, 9007199254740992u);
  EXPECT_EQ(spec.cfg.wire.coreset_bytes_per_sample, 1u);
  for (const char* key : {"model_bytes", "coreset_bytes_per_sample"}) {
    for (const char* bad : {"1.5", "0", "-3", "9007199254740994", "1e300"}) {
      err.clear();
      EXPECT_FALSE(parse(in_quotes(key) + ":" + bad, spec, err)) << key << bad;
      EXPECT_EQ(err, in_quotes(key) + " must be an integer in [1, 2^53]")
          << key << bad;
    }
    err.clear();
    EXPECT_FALSE(parse(in_quotes(key) + ":1e400", spec, err)) << key;
    EXPECT_EQ(err, in_quotes(key) + " must be finite") << key;
  }
}

TEST(JobSpecTest, HorizonsFractionsAndBatchSizeAreRangeChecked) {
  // Every number key carries its range: an interval, rate or horizon that
  // must be positive, a count or radius that must not be negative, a share
  // or probability in [0, 1], a batch or backoff base of at least 1 and a
  // metro fleet of at least 2. Out of range is a spec error, not an abort
  // at run time or a silently different run.
  const auto parse = [](const std::string& extra, JobSpec& spec, std::string& err) {
    return parse_job_spec(R"({"vehicles":4,"duration":40,)" + extra + "}", spec, err);
  };
  const auto faults = [](const std::string& key, const std::string& value) {
    return R"("faults":{")" + key + "\":" + value + "}";
  };
  JobSpec spec;
  std::string err;
  for (const char* key : {"collect_duration", "collect_fps", "eval_interval", "train_interval",
                          "learning_rate", "time_budget", "session_timeout", "radio_range"}) {
    for (const char* bad : {"0", "-5"}) {
      err.clear();
      EXPECT_FALSE(parse(in_quotes(key) + ":" + bad, spec, err)) << key << bad;
      EXPECT_EQ(err, in_quotes(key) + " must be > 0") << key << bad;
    }
  }
  for (const char* key : {"pair_cooldown", "background_cars", "pedestrians", "eval_frames"}) {
    err.clear();
    EXPECT_FALSE(parse(in_quotes(key) + ":-1", spec, err)) << key;
    EXPECT_EQ(err, in_quotes(key) + " must be >= 0") << key;
    EXPECT_TRUE(parse(in_quotes(key) + ":0", spec, err)) << key << err;
  }
  for (const char* key : {"burst_rate_per_min", "burst_duration_s", "burst_radius_m",
                          "churn_rate_per_min", "churn_offline_mean_s", "backoff_max_exp"}) {
    err.clear();
    EXPECT_FALSE(parse(faults(key, "-1"), spec, err)) << key;
    EXPECT_EQ(err, in_quotes(key) + " must be >= 0") << key;
    EXPECT_TRUE(parse(faults(key, "0"), spec, err)) << key << err;
  }
  for (const char* key : {"byzantine_frac", "straggler_frac"}) {
    for (const char* bad : {"1.5", "-0.1", "1.0000001"}) {
      err.clear();
      EXPECT_FALSE(parse(in_quotes(key) + ":" + bad, spec, err)) << key << bad;
      EXPECT_EQ(err, in_quotes(key) + " must be in [0, 1]") << key << bad;
    }
    for (const char* good : {"0", "1", "0.5"}) {
      EXPECT_TRUE(parse(in_quotes(key) + ":" + good, spec, err)) << key << err;
    }
  }
  for (const char* key : {"burst_extra_loss", "corrupt_prob_near", "corrupt_prob_far"}) {
    for (const char* bad : {"-3", "5", "1.0000001"}) {
      err.clear();
      EXPECT_FALSE(parse(faults(key, bad), spec, err)) << key << bad;
      EXPECT_EQ(err, in_quotes(key) + " must be in [0, 1]") << key << bad;
    }
    EXPECT_TRUE(parse(faults(key, "1"), spec, err)) << key << err;
  }
  for (const char* bad : {"0", "-1", "-2147483648"}) {
    err.clear();
    EXPECT_FALSE(parse(R"("batch_size":)" + std::string{bad}, spec, err)) << bad;
    EXPECT_EQ(err, "\"batch_size\" must be >= 1") << bad;
  }
  for (const char* bad : {"0.5", "0", "-2"}) {
    err.clear();
    EXPECT_FALSE(parse(faults("backoff_base", bad), spec, err)) << bad;
    EXPECT_EQ(err, "\"backoff_base\" must be >= 1") << bad;
  }
  EXPECT_TRUE(parse(faults("backoff_base", "1"), spec, err)) << err;
  for (const char* bad : {"1", "0", "-5"}) {
    err.clear();
    EXPECT_FALSE(parse(R"("num_vehicles":)" + std::string{bad}, spec, err)) << bad;
    EXPECT_EQ(err, "\"num_vehicles\" must be >= 2") << bad;
  }
  ASSERT_TRUE(parse(R"("num_vehicles":2)", spec, err)) << err;
  EXPECT_EQ(spec.cfg.num_vehicles, 2);
  ASSERT_TRUE(parse(R"("collect_duration":0.5,"batch_size":1)", spec, err)) << err;
  EXPECT_DOUBLE_EQ(spec.cfg.collect_duration_s, 0.5);
  EXPECT_EQ(spec.cfg.batch_size, 1);
}

TEST(JobSpecTest, ThreadsKeyIsBounded) {
  // A lane is an OS thread, so "threads" has a fixed range: a spec asking
  // for two billion lanes fails to parse (the JSON key and the CLI flag
  // alike) and no sim is ever built from it.
  JobSpec spec;
  std::string err;
  for (const char* bad : {"2000000000", "257", "-1"}) {
    err.clear();
    EXPECT_FALSE(parse_job_spec(R"({"vehicles":4,"threads":)" + std::string{bad} + "}", spec, err))
        << bad;
    EXPECT_EQ(err, "\"threads\" must be in [0, 256]") << bad;
    JobSpecBuilder builder{spec};
    err.clear();
    EXPECT_FALSE(builder.set_text("threads", bad, err)) << bad;
    EXPECT_EQ(err, "\"threads\" must be in [0, 256]") << bad;
  }
  for (const int good : {0, 1, 256}) {
    ASSERT_TRUE(parse_job_spec(R"({"vehicles":4,"threads":)" + std::to_string(good) + "}", spec,
                               err))
        << good << err;
    EXPECT_EQ(spec.cfg.num_threads, good);
  }
}

TEST(JobSpecTest, StrategyKeyAndOptionsParse) {
  // "strategy" names the registry key. Options are validated against the
  // registry schema.
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(parse_job_spec(
      R"({"strategy":"DynThresh","vehicles":4,"duration":40,)"
      R"("strategy_options":{"divergence_bound":2e-4,"pair_weight":0.5}})",
      spec, err))
      << err;
  EXPECT_EQ(spec.approach_name, "DynThresh");
  EXPECT_DOUBLE_EQ(spec.options.get_or("divergence_bound", -1.0), 2e-4);

  EXPECT_FALSE(parse_job_spec(R"({"strategy":"NoSuch"})", spec, err));
  EXPECT_NE(err.find("NoSuch"), std::string::npos);
  EXPECT_FALSE(parse_job_spec(
      R"({"strategy":"DynThresh","vehicles":4,"duration":40,)"
      R"("strategy_options":{"divergence_bond":1.0}})",
      spec, err))
      << "typo'd option key must fail the submission";
  EXPECT_NE(err.find("divergence_bond"), std::string::npos);
  EXPECT_FALSE(parse_job_spec(
      R"({"strategy":"DynThresh","strategy_options":{"divergence_bound":"x"}})", spec, err));
}

TEST(JobSpecTest, SetTextReachesObjectMembers) {
  // Command-line text: "object.member" sets one member, with the same type
  // check and error text as the JSON spec.
  JobSpec spec;
  JobSpecBuilder builder{spec};
  std::string err;
  ASSERT_TRUE(builder.set_text("strategy", "LbChat(avg-agg)", err)) << err;
  EXPECT_EQ(spec.approach_name, "LbChat(avg-agg)");
  ASSERT_TRUE(builder.set_text("strategy_options.divergence_bound", "2e-4", err)) << err;
  EXPECT_DOUBLE_EQ(spec.options.get_or("divergence_bound", -1.0), 2e-4);
  ASSERT_TRUE(builder.set_text("faults.burst_rate_per_min", "0.5", err)) << err;
  EXPECT_DOUBLE_EQ(spec.cfg.faults.burst_rate_per_min, 0.5);
  EXPECT_FALSE(builder.set_text("strategy_options.divergence_bound", "abc", err));
  EXPECT_EQ(err, "\"strategy_options.divergence_bound\" must be a number");
  EXPECT_FALSE(builder.set_text("faults.no_such_key", "1", err));
  EXPECT_EQ(err, "unknown faults key \"no_such_key\"");
}

TEST(JobSpecTest, StrategyOptionRangesFailTheSpec) {
  JobSpec spec;
  std::string err;
  for (const char* opts : {R"("LbChat","strategy_options":{"eval_cap":-1})",
                           R"("DFL-DDS","strategy_options":{"alpha_steps":1.5})",
                           R"("SimGossip","strategy_options":{"temperature":0})",
                           R"("ProxSkip","strategy_options":{"comm_probability":5})"}) {
    EXPECT_FALSE(parse_job_spec(std::string{R"({"strategy":)"} + opts + "}", spec, err)) << opts;
    EXPECT_NE(err.find("must be"), std::string::npos) << err;
  }
}

TEST(JobSpecTest, CliMarkedKeysAreTheSpecFlags) {
  std::vector<std::string> keys;
  for (const JobKey& k : job_keys()) {
    if (k.cli.value.empty()) continue;
    keys.emplace_back(k.key);
    EXPECT_FALSE(k.cli.help.empty()) << k.key;
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"strategy", "vehicles", "num_vehicles",
                                            "duration", "collect_duration", "coreset", "seed",
                                            "threads", "byzantine_frac", "straggler_frac"}));
}

/// Every leaf of `cfg`'s member list by dotted path, as a double.
std::map<std::string, double> config_leaves(const engine::ScenarioConfig& cfg) {
  std::map<std::string, double> out;
  engine::for_each_member(cfg, [&](std::string_view path, const auto& m, const auto&) {
    out[std::string{path}] = static_cast<double>(m);
  });
  return out;
}

TEST(JobSpecTest, EachMemberKeySetsExactlyItsMember) {
  // A single-member key row names one member of ScenarioConfig's list: set
  // to an in-range value off the default, that member changes and no other.
  const engine::ScenarioConfig base = JobSpec{}.cfg;
  const std::map<std::string, double> defaults = config_leaves(base);
  std::set<std::string> flags;
  engine::for_each_member(base, [&](std::string_view path, const auto& m, const auto&) {
    if (std::is_same_v<std::remove_cvref_t<decltype(m)>, bool>) flags.emplace(path);
  });
  int rows = 0;
  for (const JobKey& row : job_keys()) {
    if (row.set != nullptr) continue;
    ++rows;
    SCOPED_TRACE(std::string{row.key});
    const std::string path{row.member};
    ASSERT_EQ(defaults.count(path), 1u) << path;
    // The row points at the member its key names: each word of the key
    // ("radio_range") is in the path ("radio.max_range_m").
    std::stringstream words{std::string{row.key}};
    for (std::string word; std::getline(words, word, '_');) {
      EXPECT_NE(path.find(word), std::string::npos) << word << " vs " << path;
    }
    const double old = defaults.at(path);
    double x = old + 1.0;
    if (!row.range.contains(x)) x = old / 2.0;
    ASSERT_TRUE(row.range.contains(x) && x != old);
    std::string text = std::to_string(x);
    if (flags.count(path) != 0) {
      x = old == 0.0 ? 1.0 : 0.0;
      text = old == 0.0 ? "true" : "false";
    }
    JobSpec spec;
    JobSpecBuilder builder{spec};
    std::string err;
    ASSERT_TRUE(builder.set_text(row.key, text, err)) << text << ": " << err;
    std::map<std::string, double> expected = defaults;
    expected[path] = x;
    EXPECT_EQ(config_leaves(spec.cfg), expected);
  }
  EXPECT_EQ(rows, 33);
}

TEST(JobSpecTest, SpecFlagsAndJsonKeysFingerprintAlike) {
  // lbchat_sim_cli's --a-b V is set_text("a_b", "V"); the service reads
  // {"a_b": V}. Both must land on the same job.
  const std::map<std::string, std::pair<std::string, std::string>> sample = {
      {"strategy", {"DP", R"("DP")"}},
      {"vehicles", {"6", "6"}},
      {"num_vehicles", {"12", "12"}},
      {"duration", {"60", "60"}},
      {"collect_duration", {"30", "30"}},
      {"coreset", {"20", "20"}},
      {"seed", {"9", "9"}},
      {"threads", {"3", "3"}},
      {"byzantine_frac", {"0.25", "0.25"}},
      {"straggler_frac", {"0.5", "0.5"}},
  };
  const std::map<std::string, std::pair<std::string, std::string>> base = {
      {"strategy", {"LbChat", R"("LbChat")"}},
      {"vehicles", {"4", "4"}},
      {"duration", {"40", "40"}},
  };
  JobSpec plain;
  std::string err;
  ASSERT_TRUE(parse_job_spec(R"({"strategy":"LbChat","vehicles":4,"duration":40})", plain, err))
      << err;
  std::set<std::uint64_t> via_flags;
  std::set<std::uint64_t> via_json;
  for (const JobKey& k : job_keys()) {
    if (k.cli.value.empty()) continue;
    const std::string key{k.key};
    ASSERT_EQ(sample.count(key), 1u) << key;
    auto members = base;
    members[key] = sample.at(key);

    JobSpec flag_spec;
    JobSpecBuilder builder{flag_spec};
    std::string json = "{";
    for (const auto& [name, value] : members) {
      ASSERT_TRUE(builder.set_text(name, value.first, err)) << name << ": " << err;
      json += (json.size() > 1 ? ",\"" : "\"") + name + "\":" + value.second;
    }
    json += "}";
    ASSERT_TRUE(builder.finish(err)) << key << ": " << err;
    JobSpec json_spec;
    ASSERT_TRUE(parse_job_spec(json, json_spec, err)) << json << ": " << err;

    const std::uint64_t fp = job_fingerprint(flag_spec);
    EXPECT_EQ(fp, job_fingerprint(json_spec)) << key;
    // Every key but the bit-inert thread count shapes the run.
    EXPECT_EQ(fp == job_fingerprint(plain), key == "threads") << key;
    via_flags.insert(fp);
    via_json.insert(job_fingerprint(json_spec));
  }
  EXPECT_EQ(via_flags, via_json);
}

TEST(JobSpecTest, FingerprintSplitsOnNonDefaultOptionsOnly) {
  JobSpec plain;
  JobSpec defaults;
  JobSpec custom;
  std::string err;
  const std::string base = R"("strategy":"DynThresh","vehicles":4,"duration":40)";
  ASSERT_TRUE(parse_job_spec("{" + base + "}", plain, err)) << err;
  ASSERT_TRUE(parse_job_spec(
      "{" + base + R"(,"strategy_options":{"divergence_bound":1.5e-2}})", defaults, err))
      << err;
  ASSERT_TRUE(parse_job_spec(
      "{" + base + R"(,"strategy_options":{"divergence_bound":2e-4}})", custom, err))
      << err;
  // Explicit schema defaults canonicalize away; a real tuning splits the key.
  EXPECT_EQ(job_fingerprint(plain), job_fingerprint(defaults));
  EXPECT_NE(job_fingerprint(plain), job_fingerprint(custom));
}

TEST(JobSpecTest, FingerprintSplitsOnEventsButNotPreemptAt) {
  JobSpec plain;
  JobSpec events;
  JobSpec preempt;
  std::string err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(), plain, err)) << err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(7, R"("events":true)"), events, err)) << err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(7, R"("preempt_at":20)"), preempt, err)) << err;
  // events changes the payload file set, so it must split the cache key;
  // preempt_at cannot change the payload bytes, so it must not.
  EXPECT_NE(job_fingerprint(plain), job_fingerprint(events));
  EXPECT_EQ(job_fingerprint(plain), job_fingerprint(preempt));
}

TEST(JobSpecTest, FingerprintSplitsOnMetroScaling) {
  // "num_vehicles" tiles the town to the requested count. At the spec's own
  // count the tiling is the identity, and the engine has one tick, so the
  // scenario (and its cache key) is the plain one; a real scale-up changes
  // the town and the result, so the key must split.
  JobSpec fixed;
  JobSpec identity;
  JobSpec metro;
  std::string err;
  const std::string base =
      R"("strategy":"DP","vehicles":6,"duration":120,"collect_duration":60,"seed":3)";
  ASSERT_TRUE(parse_job_spec("{" + base + "}", fixed, err)) << err;
  ASSERT_TRUE(parse_job_spec("{" + base + R"(,"num_vehicles":6})", identity, err)) << err;
  ASSERT_TRUE(parse_job_spec("{" + base + R"(,"num_vehicles":12})", metro, err)) << err;
  EXPECT_EQ(job_fingerprint(fixed), job_fingerprint(identity));
  EXPECT_NE(job_fingerprint(fixed), job_fingerprint(metro));
}

// --- Queue -----------------------------------------------------------------

TEST(JobQueueTest, PriorityThenFifoOrdering) {
  JobQueue q{8};
  EXPECT_TRUE(q.push(1, 0));
  EXPECT_TRUE(q.push(2, 5));
  EXPECT_TRUE(q.push(3, 0));
  EXPECT_TRUE(q.push(4, 5));
  EXPECT_EQ(q.front_priority(), 5);
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 4u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.front_priority(), std::nullopt);
}

TEST(JobQueueTest, BoundedWithForceBypass) {
  JobQueue q{2};
  EXPECT_TRUE(q.push(1, 0));
  EXPECT_TRUE(q.push(2, 0));
  EXPECT_FALSE(q.push(3, 0)) << "capacity must bound ordinary pushes";
  EXPECT_TRUE(q.push(3, 0, /*force=*/true)) << "preempted re-entries bypass the bound";
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2));
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
}

// --- Result cache ----------------------------------------------------------

TEST(ResultCacheTest, PublishLookupRoundTrip) {
  const auto root = fresh_dir("cache");
  ResultCache cache{root};
  JobPayload payload;
  payload.metrics_json = "{\"metrics\":[]}";
  payload.report_json = "{\"approach\":\"x\"}";
  payload.manifest_json = "{\"files\":[\"metrics.json\",\"report.json\"]}";

  JobPayload out;
  EXPECT_FALSE(cache.lookup(0xABCDu, out));
  ASSERT_TRUE(cache.publish(0xABCDu, payload));
  ASSERT_TRUE(cache.lookup(0xABCDu, out));
  EXPECT_EQ(out.metrics_json, payload.metrics_json);
  EXPECT_EQ(out.report_json, payload.report_json);
  EXPECT_EQ(out.manifest_json, payload.manifest_json);
  EXPECT_TRUE(out.events_jsonl.empty());
  // Re-publishing an existing fingerprint is an idempotent success.
  EXPECT_TRUE(cache.publish(0xABCDu, payload));
  std::filesystem::remove_all(root);
}

TEST(ResultCacheTest, HalfWrittenEntryReadsAsMiss) {
  const auto root = fresh_dir("cache_half");
  ResultCache cache{root};
  // An entry directory without manifest.json (crashed publish) is a miss.
  std::filesystem::create_directories(cache.entry_dir(7));
  ASSERT_TRUE(write_file(cache.entry_dir(7) / "metrics.json", "{}"));
  JobPayload out;
  EXPECT_FALSE(cache.lookup(7, out));
  std::filesystem::remove_all(root);
}

// --- Service: runs, cache, determinism -------------------------------------

TEST(FleetServiceTest, SubmitRunsAndProducesPayload) {
  const auto root = fresh_dir("run");
  FleetService service{tiny_options(root, 1)};
  const JobStatus status = submit_and_wait(service, tiny_spec());
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_FALSE(status.cached);

  JobPayload payload;
  std::string error;
  ASSERT_TRUE(service.result(status.id, payload, error)) << error;
  EXPECT_NE(payload.metrics_json.find("run.final_mean_loss"), std::string::npos);
  EXPECT_NE(payload.report_json.find("\"vehicles\""), std::string::npos);
  EXPECT_NE(payload.manifest_json.find("\"loss_curve\""), std::string::npos);

  // The payload on disk is exactly what result() returned.
  EXPECT_EQ(slurp(std::filesystem::path{status.output_dir} / "metrics.json"),
            payload.metrics_json);
  EXPECT_EQ(slurp(std::filesystem::path{status.output_dir} / "report.json"),
            payload.report_json);
  EXPECT_EQ(slurp(std::filesystem::path{status.output_dir} / "manifest.json"),
            payload.manifest_json);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, RegistryStrategyRunsThroughService) {
  // A strategy from outside the paper (DynThresh) with non-default
  // options must run end to end through the job server; the options split
  // the cache key from the default-configured run.
  const auto root = fresh_dir("dynthresh");
  FleetService service{tiny_options(root, 1)};
  const std::string spec = R"({"strategy":"DynThresh","name":"dt","vehicles":4,)"
                           R"("duration":40,"collect_duration":20,"collect_fps":1,)"
                           R"("eval_frames":2,"background_cars":4,"pedestrians":6,)"
                           R"("eval_interval":10,"train_interval":2,"batch_size":4,)"
                           R"("coreset":12,"seed":7,)"
                           R"("strategy_options":{"divergence_bound":1e-3}})";
  const JobStatus status = submit_and_wait(service, spec);
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  JobPayload payload;
  std::string error;
  ASSERT_TRUE(service.result(status.id, payload, error)) << error;
  EXPECT_NE(payload.manifest_json.find("DynThresh"), std::string::npos);

  // Same spec: cache hit. Different bound: a fresh run.
  const JobStatus again = submit_and_wait(service, spec);
  EXPECT_TRUE(again.cached);
  std::string retuned = spec;
  retuned.replace(retuned.find("1e-3"), 4, "2e-3");
  const JobStatus other = submit_and_wait(service, retuned);
  ASSERT_EQ(other.state, JobState::kDone) << other.error;
  EXPECT_FALSE(other.cached);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, CacheHitServesSameBytesWithoutRunning) {
  const auto root = fresh_dir("cachehit");
  FleetService service{tiny_options(root, 1)};
  const JobStatus first = submit_and_wait(service, tiny_spec());
  ASSERT_EQ(first.state, JobState::kDone) << first.error;
  const JobStatus second = submit_and_wait(service, tiny_spec());
  ASSERT_EQ(second.state, JobState::kDone) << second.error;
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u) << "the second submission must not run";
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.submitted, 2u);

  JobPayload a;
  JobPayload b;
  std::string error;
  ASSERT_TRUE(service.result(first.id, a, error));
  ASSERT_TRUE(service.result(second.id, b, error));
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.manifest_json, b.manifest_json);
  // A different spec is a miss.
  const JobStatus third = submit_and_wait(service, tiny_spec(8));
  EXPECT_FALSE(third.cached);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, JobNamedLikeAPayloadFileStillHitsTheCache) {
  // A cache entry lists events.jsonl in its manifest's "files" array only
  // when the job recorded events. A job *named* events.jsonl with events off
  // has no such file, and its second submission must still be a cache hit.
  const auto root = fresh_dir("cachename");
  FleetService service{tiny_options(root, 1)};
  std::string spec = tiny_spec();
  spec.replace(spec.find("\"LbChat\""), 8, "\"DP\"");
  spec.replace(spec.find("\"tiny\""), 6, "\"events.jsonl\"");
  const JobStatus first = submit_and_wait(service, spec);
  ASSERT_EQ(first.state, JobState::kDone) << first.error;
  const JobStatus second = submit_and_wait(service, spec);
  ASSERT_EQ(second.state, JobState::kDone) << second.error;
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(service.stats().completed, 1u) << "the second submission must not run";
  JobPayload payload;
  std::string error;
  ASSERT_TRUE(service.result(second.id, payload, error)) << error;
  EXPECT_TRUE(payload.events_jsonl.empty());
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

// The headline test: a straight run vs a run preempted at T/2, re-queued,
// and resumed must export byte-identical metrics/report payloads — at 1 and
// at 4 workers, with faults and adversaries live. Caching is disabled so the
// preempted run really runs.
class PreemptDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(PreemptDeterminismTest, PreemptedRunMatchesStraightRun) {
  const int workers = GetParam();
  const auto ref_root = fresh_dir("det_ref");
  JobPayload reference;
  {
    FleetService service{tiny_options(ref_root, 1, /*cache_enabled=*/false)};
    const JobStatus status = submit_and_wait(service, tiny_spec());
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    std::string error;
    ASSERT_TRUE(service.result(status.id, reference, error)) << error;
    service.shutdown(false);
  }

  const auto root = fresh_dir("det_preempt");
  FleetService service{tiny_options(root, workers, /*cache_enabled=*/false)};
  // Preempt at T/2 = 20s of the 40s horizon. At 4 workers, surround the
  // preempted job with same-spec companions so re-queue + resume happens in
  // a busy pool (and likely on a different worker).
  std::string error;
  const std::uint64_t id = service.submit(tiny_spec(7, R"("preempt_at":20)"), error);
  ASSERT_NE(id, 0u) << error;
  std::vector<std::uint64_t> companions;
  for (int i = 1; i < workers; ++i) {
    const std::uint64_t cid = service.submit(tiny_spec(7, R"("preempt_at":20)"), error);
    ASSERT_NE(cid, 0u) << error;
    companions.push_back(cid);
  }
  JobStatus status;
  ASSERT_TRUE(service.wait(id, status));
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_GE(status.preemptions, 1) << "preempt_at must have fired";

  JobPayload payload;
  ASSERT_TRUE(service.result(id, payload, error)) << error;
  EXPECT_EQ(payload.metrics_json, reference.metrics_json);
  EXPECT_EQ(payload.report_json, reference.report_json);
  EXPECT_EQ(payload.manifest_json, reference.manifest_json);

  for (const std::uint64_t cid : companions) {
    JobStatus cs;
    ASSERT_TRUE(service.wait(cid, cs));
    ASSERT_EQ(cs.state, JobState::kDone) << cs.error;
    JobPayload cp;
    ASSERT_TRUE(service.result(cid, cp, error)) << error;
    EXPECT_EQ(cp.metrics_json, reference.metrics_json);
    EXPECT_EQ(cp.report_json, reference.report_json);
  }
  service.shutdown(false);
  std::filesystem::remove_all(ref_root);
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(Workers, PreemptDeterminismTest, ::testing::Values(1, 4));

TEST(FleetServiceTest, EventsJobExportsIdenticalEventsAcrossPreemption) {
  // Each job records its own events, and the event ring travels through the
  // checkpoint's kObs section, so events.jsonl is byte-stable across a
  // mid-run preemption even while other events jobs run alongside it.
  const auto ref_root = fresh_dir("ev_ref");
  std::map<int, JobPayload> reference;
  {
    FleetService service{tiny_options(ref_root, 1, /*cache_enabled=*/false)};
    for (const int seed : {7, 8}) {
      const JobStatus st = submit_and_wait(service, tiny_spec(seed, R"("events":true)"));
      ASSERT_EQ(st.state, JobState::kDone) << st.error;
      std::string error;
      ASSERT_TRUE(service.result(st.id, reference[seed], error)) << error;
      ASSERT_FALSE(reference[seed].events_jsonl.empty());
    }
    service.shutdown(false);
  }
  ASSERT_NE(reference[7].events_jsonl, reference[8].events_jsonl);

  const auto root = fresh_dir("ev_preempt");
  FleetService service{tiny_options(root, 2, /*cache_enabled=*/false)};
  std::string error;
  const std::vector<std::pair<int, std::uint64_t>> jobs{
      {7, service.submit(tiny_spec(7, R"("events":true,"preempt_at":20)"), error)},
      {7, service.submit(tiny_spec(7, R"("events":true)"), error)},
      {8, service.submit(tiny_spec(8, R"("events":true)"), error)},
  };
  for (const auto& [seed, id] : jobs) {
    ASSERT_NE(id, 0u) << error;
    JobStatus st;
    ASSERT_TRUE(service.wait(id, st));
    ASSERT_EQ(st.state, JobState::kDone) << st.error;
    if (id == jobs.front().second) {
      EXPECT_GE(st.preemptions, 1) << "preempt_at must have fired";
    }
    JobPayload payload;
    ASSERT_TRUE(service.result(id, payload, error)) << error;
    EXPECT_EQ(payload.events_jsonl, reference[seed].events_jsonl) << "job " << id;
    EXPECT_EQ(payload.metrics_json, reference[seed].metrics_json) << "job " << id;
  }
  service.shutdown(false);
  std::filesystem::remove_all(ref_root);
  std::filesystem::remove_all(root);
}

// Graceful-shutdown hardening: a daemon stopped mid-run persists every
// unfinished job; a new service over the same root resumes them from their
// checkpoints (counting the hop as a migration) and serves payloads
// byte-identical to a straight run. No job is lost or corrupted.
TEST(FleetServiceTest, ShutdownPersistsAndRestartResumesByteIdentically) {
  const auto ref_root = fresh_dir("restart_ref");
  JobPayload ref_a;
  JobPayload ref_b;
  {
    FleetService service{tiny_options(ref_root, 1, /*cache_enabled=*/false)};
    const JobStatus a = submit_and_wait(service, tiny_spec());
    ASSERT_EQ(a.state, JobState::kDone) << a.error;
    std::string error;
    ASSERT_TRUE(service.result(a.id, ref_a, error));
    const JobStatus b = submit_and_wait(service, tiny_spec(8));
    ASSERT_EQ(b.state, JobState::kDone) << b.error;
    ASSERT_TRUE(service.result(b.id, ref_b, error));
    service.shutdown(false);
  }

  const auto root = fresh_dir("restart");
  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  {
    // Job A self-preempts at T/2 and re-queues behind job B (same priority,
    // earlier queue seat). Shutting down right after persists A (queued, with
    // a mid-run checkpoint) and B (stop-preempted at its next slice boundary).
    FleetService service{tiny_options(root, 1, /*cache_enabled=*/false, 5.0)};
    std::string error;
    id_a = service.submit(tiny_spec(7, R"("preempt_at":20)"), error);
    ASSERT_NE(id_a, 0u) << error;
    id_b = service.submit(tiny_spec(8), error);
    ASSERT_NE(id_b, 0u) << error;
    // Wait until A has actually been preempted at least once, so its
    // persisted state includes a mid-run checkpoint.
    for (int i = 0; i < 6000; ++i) {
      const auto st = service.status(id_a);
      ASSERT_TRUE(st.has_value());
      if (st->preemptions >= 1 || st->state == JobState::kDone) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    service.shutdown(/*persist=*/true);
  }

  {
    FleetService service{tiny_options(root, 2, /*cache_enabled=*/false, 5.0)};
    const ServiceStats boot = service.stats();
    EXPECT_GE(boot.recovered, 1u) << "persisted jobs must be re-queued on restart";
    JobStatus a;
    JobStatus b;
    ASSERT_TRUE(service.wait(id_a, a)) << "job A lost across restart";
    ASSERT_TRUE(service.wait(id_b, b)) << "job B lost across restart";
    ASSERT_EQ(a.state, JobState::kDone) << a.error;
    ASSERT_EQ(b.state, JobState::kDone) << b.error;
    EXPECT_GE(service.stats().migrations, 1u)
        << "a checkpointed job resumed in a new process counts as a migration";

    JobPayload pa;
    JobPayload pb;
    std::string error;
    ASSERT_TRUE(service.result(id_a, pa, error)) << error;
    ASSERT_TRUE(service.result(id_b, pb, error)) << error;
    EXPECT_EQ(pa.metrics_json, ref_a.metrics_json);
    EXPECT_EQ(pa.report_json, ref_a.report_json);
    EXPECT_EQ(pa.manifest_json, ref_a.manifest_json);
    EXPECT_EQ(pb.metrics_json, ref_b.metrics_json);
    EXPECT_EQ(pb.report_json, ref_b.report_json);
    service.shutdown(false);
  }
  std::filesystem::remove_all(ref_root);
  std::filesystem::remove_all(root);
}

// --- Service: queue behaviour without workers ------------------------------

TEST(FleetServiceTest, BackpressureAndCancel) {
  const auto root = fresh_dir("backpressure");
  ServiceOptions opts = tiny_options(root, 0);
  opts.queue_capacity = 2;
  FleetService service{opts};
  std::string error;
  const std::uint64_t a = service.submit(tiny_spec(), error);
  ASSERT_NE(a, 0u);
  const std::uint64_t b = service.submit(tiny_spec(8), error);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(service.submit(tiny_spec(9), error), 0u);
  EXPECT_EQ(error, "queue_full");
  EXPECT_EQ(service.stats().submitted, 2u)
      << "rejected submissions must not count as submitted";

  EXPECT_TRUE(service.cancel(a));
  EXPECT_FALSE(service.cancel(a)) << "already terminal";
  const auto st = service.status(a);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::kCancelled);
  // The cancelled job freed a slot.
  EXPECT_NE(service.submit(tiny_spec(9), error), 0u);
  EXPECT_FALSE(service.cancel(999)) << "unknown job";
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, WaitTimesOutWithoutBlockingOnNonTerminalJobs) {
  const auto root = fresh_dir("wait_timeout");
  FleetService service{tiny_options(root, 0)};  // no workers: never terminal
  std::string error;
  const std::uint64_t id = service.submit(tiny_spec(), error);
  ASSERT_NE(id, 0u) << error;
  JobStatus status;
  EXPECT_FALSE(service.wait(999, status, 0.05)) << "unknown id stays false";
  ASSERT_TRUE(service.wait(id, status, 0.05));
  EXPECT_EQ(status.state, JobState::kQueued)
      << "a bounded wait must return the current status instead of hanging";
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

// A recovered job's state files must outlive the recovery itself: deleting
// them at boot meant any non-clean exit after a restart silently lost every
// unfinished job. They are removed only when the job reaches a terminal state.
TEST(FleetServiceTest, RecoveredJobsSurviveASecondUncleanRestart) {
  const auto root = fresh_dir("rerestart");
  std::uint64_t id = 0;
  {
    FleetService service{tiny_options(root, 0)};
    std::string error;
    id = service.submit(tiny_spec(), error);
    ASSERT_NE(id, 0u) << error;
    service.shutdown(/*persist=*/true);
  }
  const auto spec_file = root / "state" / ("job_" + std::to_string(id) + ".spec.json");
  {
    // Boot 2 recovers the job, then exits without persisting — the stand-in
    // for a crash/SIGKILL after recovery.
    FleetService service{tiny_options(root, 0)};
    EXPECT_EQ(service.stats().recovered, 1u);
    EXPECT_TRUE(std::filesystem::exists(spec_file))
        << "recovery must not delete the persisted state";
    service.shutdown(/*persist=*/false);
  }
  {
    // Boot 3 still sees the job and runs it to completion.
    FleetService service{tiny_options(root, 1)};
    EXPECT_EQ(service.stats().recovered, 1u) << "job lost by the second restart";
    JobStatus status;
    ASSERT_TRUE(service.wait(id, status));
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    service.shutdown(false);
  }
  EXPECT_FALSE(std::filesystem::exists(spec_file))
      << "terminal jobs must clean up their state files";
  std::filesystem::remove_all(root);
}

TEST(FleetServiceTest, DrainPersistsQueuedJobsAndRefusesNewOnes) {
  const auto root = fresh_dir("drain");
  std::uint64_t id = 0;
  {
    FleetService service{tiny_options(root, 0)};
    std::string error;
    id = service.submit(tiny_spec(), error);
    ASSERT_NE(id, 0u) << error;
    EXPECT_EQ(service.drain(), 1u);
    EXPECT_EQ(service.submit(tiny_spec(8), error), 0u);
    EXPECT_EQ(error, "draining");
    service.shutdown(false);
  }
  // The drained job's spec survived on disk and a fresh service runs it.
  {
    FleetService service{tiny_options(root, 1)};
    EXPECT_EQ(service.stats().recovered, 1u);
    JobStatus status;
    ASSERT_TRUE(service.wait(id, status));
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    service.shutdown(false);
  }
  std::filesystem::remove_all(root);
}

// --- Export names ----------------------------------------------------------

/// "name:kind" for every metric of a metrics_json document, in order.
std::vector<std::string> metric_names(const std::string& json) {
  std::string err;
  const auto root = json_parse(json, err);
  EXPECT_NE(root, nullptr) << err;
  std::vector<std::string> out;
  if (root == nullptr) return out;
  for (const auto& m : root->get("metrics")->items()) {
    out.push_back(m->get("name")->as_string() + ":" + m->get("kind")->as_string());
  }
  return out;
}

TEST(ExportNamesTest, SnapshotNamesKindsAndReportColumnsArePinned) {
  // Every exported metric name and kind, and the report's columns, with
  // events, an adversary and heterogeneity on: a rename or a dropped
  // counter in any of the three outputs fails here.
  JobSpec spec;
  std::string err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(), spec, err)) << err;
  engine::FleetSim sim{spec.cfg, baselines::registry().make(spec.approach_name, spec.options)};
  sim.enable_events();
  const engine::RunMetrics m = sim.run();

  const std::vector<std::string> transfer = {
      "adversary.attacker_weight_share:gauge",
      "adversary.byzantine_payloads_sent:gauge",
      "adversary.frames_rejected_invalid:gauge",
      "chat.duration_s:histogram",
      "hetero.straggler_train_skips:gauge",
      "train.steps:counter",
      "transfer.backoff_retries:gauge",
      "transfer.bytes_delivered:gauge",
      "transfer.coreset_sends_completed:gauge",
      "transfer.coreset_sends_started:gauge",
      "transfer.effective_model_receiving_rate:gauge",
      "transfer.frames_rejected:gauge",
      "transfer.model_frames_rejected:gauge",
      "transfer.model_receiving_rate:gauge",
      "transfer.model_sends_completed:gauge",
      "transfer.model_sends_started:gauge",
      "transfer.offline_vehicle_seconds:gauge",
      "transfer.sessions_aborted:gauge",
      "transfer.sessions_lost_to_blackout:gauge",
      "transfer.sessions_started:gauge",
  };
  EXPECT_EQ(metric_names(obs::metrics_json(sim.metrics_snapshot())), transfer);

  const std::vector<std::string> run = {
      "run.attacker_weight_share:gauge",
      "run.backoff_retries:counter",
      "run.bytes_delivered:counter",
      "run.byzantine_payloads_sent:counter",
      "run.coreset_sends_completed:counter",
      "run.coreset_sends_started:counter",
      "run.effective_model_receiving_rate:gauge",
      "run.final_mean_loss:gauge",
      "run.frames_rejected:counter",
      "run.frames_rejected_invalid:counter",
      "run.model_frames_rejected:counter",
      "run.model_receiving_rate:gauge",
      "run.model_sends_completed:counter",
      "run.model_sends_started:counter",
      "run.offline_vehicle_seconds:gauge",
      "run.sessions_aborted:counter",
      "run.sessions_lost_to_blackout:counter",
      "run.sessions_started:counter",
      "run.straggler_train_skips:counter",
      "run.train_steps:counter",
  };
  EXPECT_EQ(metric_names(build_payload(spec, m, "").metrics_json), run);

  const std::string csv = obs::run_report_csv(spec.cfg.duration_s, m);
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "id,bytes_sent,bytes_received,chats_started,chats_completed,chats_aborted,"
            "model_recv_started,model_recv_completed,frames_rejected,online_seconds,"
            "effective_model_receiving_rate,first_loss,final_loss");
}

// --- Protocol + socket -----------------------------------------------------

TEST(ProtocolTest, RejectsMalformedRequests) {
  const auto root = fresh_dir("proto_err");
  FleetService service{tiny_options(root, 0)};
  EXPECT_NE(handle_request(service, "not json").line.find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(handle_request(service, "[]").line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(handle_request(service, R"({"cmd":"nope"})").line.find("unknown command"),
            std::string::npos);
  EXPECT_NE(handle_request(service, R"({"cmd":"status"})").line.find("positive integer"),
            std::string::npos);
  EXPECT_NE(handle_request(service, R"({"cmd":"status","id":42})").line.find("unknown job"),
            std::string::npos);
  // Past 2^53 a JSON number names no single integer, and 1e300 would be an
  // undefined cast: both are malformed IDs, not unknown jobs.
  for (const char* id : {"1e300", "18446744073709551616", "1e16", "1e400"}) {
    EXPECT_NE(handle_request(service, std::string{R"({"cmd":"status","id":)"} + id + "}")
                  .line.find("positive integer"),
              std::string::npos)
        << id;
  }
  EXPECT_NE(handle_request(service, R"({"cmd":"status","id":9007199254740992})")
                .line.find("unknown job"),
            std::string::npos);
  EXPECT_NE(handle_request(service, R"({"cmd":"submit","spec":{"vehicles":1}})")
                .line.find("\"ok\":false"),
            std::string::npos);
  EXPECT_FALSE(handle_request(service, R"({"cmd":"stats"})").shutdown);
  EXPECT_TRUE(handle_request(service, R"({"cmd":"shutdown"})").shutdown);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(ProtocolTest, SubmitSlicesSpecFromParserSpans) {
  const auto root = fresh_dir("proto_spans");
  FleetService service{tiny_options(root, 0)};
  // An earlier (tolerated) member containing a nested "spec" key used to
  // derail the textual slicer; the spec's span now comes from the DOM.
  const std::string request =
      R"({"cmd":"submit","meta":{"spec":{"bogus":1}},"spec":)" + tiny_spec() + "}";
  const auto reply = handle_request(service, request);
  ASSERT_EQ(reply.line.rfind("{\"ok\":true", 0), 0u) << reply.line;
  // The persisted source is exactly the spec member's bytes.
  const auto st = service.status(1);
  ASSERT_TRUE(st.has_value());
  JobSpec expected;
  std::string err;
  ASSERT_TRUE(parse_job_spec(tiny_spec(), expected, err)) << err;
  EXPECT_EQ(st->fingerprint, job_fingerprint(expected));
  EXPECT_NE(handle_request(service, R"({"cmd":"submit","spec":[1]})")
                .line.find("must be an object"),
            std::string::npos);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(ProtocolTest, StatusEmbedsCheckpointInspectionForPreemptedJobs) {
  const auto root = fresh_dir("proto_ckpt");
  FleetService service{tiny_options(root, 0)};
  std::string error;
  const std::uint64_t id = service.submit(tiny_spec(), error);
  ASSERT_NE(id, 0u) << error;
  // Queued job held: no checkpoint yet, so no embedded inspection.
  const auto queued = handle_request(service, R"({"cmd":"status","id":1})");
  EXPECT_EQ(queued.line.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(queued.line.find("\"state\":\"queued\""), std::string::npos);
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

TEST(SocketTest, RequestRoundTripAndShutdown) {
  const auto root = fresh_dir("socket");
  const std::string sock = (root / "svc.sock").string();
  FleetService service{tiny_options(root, 1)};
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.listen(sock, error)) << error;
  std::thread serve_thread{[&] {
    server.serve([&service](const std::string& line) {
      const ProtocolReply reply = handle_request(service, line);
      return ServerReply{reply.line, reply.shutdown};
    });
  }};

  const std::string submit_reply = request_over_socket(
      sock, "{\"cmd\":\"submit\",\"spec\":" + tiny_spec() + "}", error);
  ASSERT_FALSE(submit_reply.empty()) << error;
  EXPECT_EQ(submit_reply.rfind("{\"ok\":true", 0), 0u) << submit_reply;

  // Waits are bounded daemon-side; poll until the job is terminal.
  std::string wait_reply;
  for (int i = 0; i < 60; ++i) {
    wait_reply = request_over_socket(sock, R"({"cmd":"wait","id":1,"timeout_s":2})", error);
    ASSERT_FALSE(wait_reply.empty()) << error;
    if (wait_reply.find("\"state\":\"done\"") != std::string::npos) break;
  }
  EXPECT_NE(wait_reply.find("\"state\":\"done\""), std::string::npos) << wait_reply;

  const std::string result_reply =
      request_over_socket(sock, R"({"cmd":"result","id":1})", error);
  EXPECT_NE(result_reply.find("\"manifest\""), std::string::npos) << result_reply;
  EXPECT_NE(result_reply.find("\"output_dir\""), std::string::npos) << result_reply;

  const std::string stats_reply =
      request_over_socket(sock, R"({"cmd":"stats"})", error);
  EXPECT_NE(stats_reply.find("\"completed\":1"), std::string::npos) << stats_reply;

  const std::string bye = request_over_socket(sock, R"({"cmd":"shutdown"})", error);
  EXPECT_EQ(bye, "{\"ok\":true}");
  serve_thread.join();
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

// The socket is bound under a staging sibling and renamed onto its path only
// once it listens, so a path that exists accepts connections; both names
// must fit sun_path.
TEST(SocketTest, PathAppearsOnlyOnceListening) {
  const auto root = fresh_dir("socket_stage");
  const std::string sock = (root / "svc.sock").string();
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.listen(sock, error)) << error;
  EXPECT_TRUE(std::filesystem::is_socket(sock));
  EXPECT_FALSE(std::filesystem::exists(sock + ".tmp"));

  // A path that fits sun_path while its staging sibling does not.
  const std::string dir = root.string() + "/";
  const std::string tight = dir + std::string(sizeof(sockaddr_un{}.sun_path) - 3 - dir.size(), 's');
  SocketServer other;
  EXPECT_FALSE(other.listen(tight, error));
  EXPECT_EQ(error, "socket path too long");
  EXPECT_FALSE(std::filesystem::exists(tight));
  std::filesystem::remove_all(root);
}

// A client that disconnects before reading its reply must be a closed
// connection, not a SIGPIPE: the default disposition would kill the daemon
// mid-flight, losing every accepted-but-unfinished job.
TEST(SocketTest, ClientGoneBeforeReplyDoesNotKillServer) {
  const auto root = fresh_dir("socket_gone");
  const std::string sock = (root / "svc.sock").string();
  FleetService service{tiny_options(root, 0)};  // no workers: job stays queued
  SocketServer server;
  std::string error;
  ASSERT_TRUE(server.listen(sock, error)) << error;
  std::thread serve_thread{[&] {
    server.serve([&service](const std::string& line) {
      const ProtocolReply reply = handle_request(service, line);
      return ServerReply{reply.line, reply.shutdown};
    });
  }};
  ASSERT_NE(service.submit(tiny_spec(), error), 0u) << error;

  // Raw client: send a bounded wait, then vanish without reading the reply.
  // The daemon writes its answer ~0.3s later into the closed socket.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(sock.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "{\"cmd\":\"wait\",\"id\":1,\"timeout_s\":0.3}\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  ::close(fd);

  // The daemon survived and still answers.
  const std::string stats_reply = request_over_socket(sock, R"({"cmd":"stats"})", error);
  ASSERT_FALSE(stats_reply.empty()) << error;
  EXPECT_EQ(stats_reply.rfind("{\"ok\":true", 0), 0u) << stats_reply;

  const std::string bye = request_over_socket(sock, R"({"cmd":"shutdown"})", error);
  EXPECT_EQ(bye, "{\"ok\":true}");
  serve_thread.join();
  service.shutdown(false);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace lbchat::svc
