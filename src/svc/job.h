// Job specs for the fleet service: a JSON object naming a strategy and a
// scenario configuration. Every key goes through one table (job.cpp), which
// lbchat_sim_cli's spec flags share: flag --a-b is the CLI-marked key a_b.
//
//   {"strategy":"DynThresh","vehicles":8,"duration":900,"seed":3,
//    "strategy_options":{"divergence_bound":2e-4},
//    "priority":1,"events":true,
//    "faults":{"burst_rate_per_min":0.5,"chat_backoff":true}}
//
// Unknown keys, unknown strategy names, and option keys absent from the
// strategy's registry schema are hard parse errors (a typo'd knob must not
// silently run the default).
// parse_job_spec keeps the original spec text so a persisted job round-trips
// byte-identically through the state directory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/registry.h"
#include "common/tunable.h"
#include "engine/scenario.h"

namespace lbchat::svc {

struct JobSpec {
  engine::ScenarioConfig cfg{};
  std::string approach_name{"LbChat"};
  /// Per-strategy tunables, validated against the registry schema at parse.
  baselines::StrategyOptions options{};
  /// Optional human label echoed in status/manifest output.
  std::string name;
  /// Higher runs earlier; ties broken by submission order.
  int priority = 0;
  /// Collect sim-time events and include events.jsonl in the payload. The
  /// events are the job's own run's, so this costs no concurrency.
  bool events = false;
  /// Test hook: self-preempt (checkpoint + requeue) once when sim time
  /// reaches this value. <= 0 disables. Excluded from the job fingerprint —
  /// by the determinism contract it cannot change the result bytes.
  double preempt_at = 0.0;
  /// The spec text as submitted (whitespace and all), for persistence.
  std::string source;
};

class JsonValue;

/// Applies JobSpec keys one at a time through the key table, so the JSON
/// parser and the CLI flags share each key's type check, range check and
/// fan-out. Call finish() once, after the last key.
class JobSpecBuilder {
 public:
  explicit JobSpecBuilder(JobSpec& spec) : spec_{spec} {}

  /// Apply top-level `key`. Returns false and fills `error` on an unknown key,
  /// a wrong type, or an out-of-range value.
  [[nodiscard]] bool set(std::string_view key, const JsonValue& value, std::string& error);
  /// set() with the value given as command-line text: a JSON literal, or else
  /// the JSON string it spells. A key "object.member" sets that one member of
  /// an object key ("strategy_options.divergence_bound").
  [[nodiscard]] bool set_text(std::string_view key, std::string_view text, std::string& error);
  /// The order-independent rules: metro scaling ("num_vehicles") last, then
  /// the cross-key checks (vehicles >= 2, duration > 0).
  [[nodiscard]] bool finish(std::string& error);

 private:
  JobSpec& spec_;
  int metro_vehicles_ = 0;
};

/// The usage line of a key lbchat_sim_cli also takes as a flag.
struct CliFlag {
  std::string_view value;  ///< placeholder for the flag's value, "N"
  std::string_view help;   ///< one line
};
struct KeyApply;  // job.cpp
/// One row of the JobSpec key table (job.cpp). A key that sets one member of
/// engine::ScenarioConfig's list names it by dotted path, with its range;
/// key "faults.m" is member m of the "faults" object. Any other key has a
/// setter of its own. A CLI-marked key a_b is lbchat_sim_cli's flag --a-b.
struct JobKey {
  std::string_view key;
  std::string_view member{};
  TunableRange range{};
  CliFlag cli{};
  bool (*set)(const KeyApply&) = nullptr;
};
/// Every JobSpec key, in table order.
[[nodiscard]] std::span<const JobKey> job_keys();

/// Parse a job-spec JSON object. Returns false and fills `error` on malformed
/// JSON, unknown keys, wrong types, or out-of-range values; `out` is
/// unspecified then. Never throws.
[[nodiscard]] bool parse_job_spec(std::string_view text, JobSpec& out, std::string& error);

/// Cache identity of a job: the shared scenario fingerprint
/// (engine/checkpoint.h — what the bench cache keys on) extended with the
/// payload-shaping knobs (events). Jobs with equal fingerprints produce
/// byte-identical payloads, so the result cache may serve one for the other.
[[nodiscard]] std::uint64_t job_fingerprint(const JobSpec& spec);

}  // namespace lbchat::svc
