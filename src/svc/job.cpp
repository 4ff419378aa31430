#include "svc/job.h"

#include <cmath>
#include <stdexcept>

#include "common/fingerprint.h"
#include "engine/checkpoint.h"
#include "nn/kernel_dispatch.h"
#include "svc/json.h"

namespace lbchat::svc {
namespace {

/// JSON numbers are doubles: above 2^53 they no longer name one integer.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

// One key being applied: its value, where it lands, and the typed reads the
// setters share. `key` names the key in error messages — a nested "faults"
// member by its bare name.
struct Apply {
  std::string key;
  const JsonValue& v;
  std::string& error;
  JobSpec& spec;
  int& metro_vehicles;

  bool fail(const std::string& what) const {
    error = what;
    return false;
  }
  bool number(double& out) const {
    if (!v.is_number()) return fail("\"" + key + "\" must be a number");
    // A literal beyond DBL_MAX parses to inf: no key takes an infinity.
    if (!std::isfinite(v.as_number())) return fail("\"" + key + "\" must be finite");
    out = v.as_number();
    return true;
  }
  bool integer(int& out) const {
    double d = 0.0;
    if (!number(d)) return false;
    if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
      return fail("\"" + key + "\" must be an integer");
    }
    out = static_cast<int>(d);
    return true;
  }
  bool boolean(bool& out) const {
    if (!v.is_bool()) return fail("\"" + key + "\" must be a boolean");
    out = v.as_bool();
    return true;
  }
  bool text(std::string& out) const {
    if (!v.is_string()) return fail("\"" + key + "\" must be a string");
    out = v.as_string();
    return true;
  }
  bool object() const {
    return v.is_object() || fail("\"" + key + "\" must be an object");
  }
  /// A count read as `x` (already type-checked): a whole number in
  /// [1, 2^53], never truncated.
  bool count(double x, std::size_t& out) const {
    if (!(x >= 1.0 && x <= kMaxExactInteger) || x != std::floor(x)) {
      return fail("\"" + key + "\" must be an integer in [1, 2^53]");
    }
    out = static_cast<std::size_t>(x);
    return true;
  }
};

struct KeyEntry {
  std::string_view key;
  bool (*set)(const Apply&);
};

const KeyEntry* find_key(std::string_view key);

// Every JobSpec key, once: each setter does its key's type and range checks.
// "faults" members are looked up here under a "faults." prefix, which no
// top-level key can reach.
constexpr KeyEntry kKeys[] = {
    // "approach" is the pre-registry spelling; both name the registry key.
    {"strategy", [](const Apply& a) { return a.text(a.spec.approach_name); }},
    {"approach", [](const Apply& a) { return a.text(a.spec.approach_name); }},
    {"strategy_options",
     [](const Apply& a) {
       if (!a.object()) return false;
       for (const auto& [key, value] : a.v.members()) {
         const Apply opt{"strategy_options." + key, *value, a.error, a.spec, a.metro_vehicles};
         double x = 0.0;
         if (!opt.number(x)) return false;
         a.spec.options.set(key, x);
       }
       return true;
     }},
    {"name", [](const Apply& a) { return a.text(a.spec.name); }},
    {"priority", [](const Apply& a) { return a.integer(a.spec.priority); }},
    {"events", [](const Apply& a) { return a.boolean(a.spec.events); }},
    {"preempt_at", [](const Apply& a) { return a.number(a.spec.preempt_at); }},
    {"vehicles", [](const Apply& a) { return a.integer(a.spec.cfg.num_vehicles); }},
    // Metro scaling applies in JobSpecBuilder::finish, after every key.
    {"num_vehicles", [](const Apply& a) { return a.integer(a.metro_vehicles); }},
    {"duration", [](const Apply& a) { return a.number(a.spec.cfg.duration_s); }},
    {"collect_duration", [](const Apply& a) { return a.number(a.spec.cfg.collect_duration_s); }},
    {"collect_fps", [](const Apply& a) { return a.number(a.spec.cfg.collect_fps); }},
    {"coreset",
     [](const Apply& a) {
       int n = 0;
       return a.integer(n) && a.count(n, a.spec.cfg.coreset_size);
     }},
    {"seed",
     [](const Apply& a) {
       double x = 0.0;
       if (!a.number(x)) return false;
       if (!(x >= 0.0 && x <= kMaxExactInteger) || x != std::floor(x)) {
         return a.fail("\"seed\" must be an integer in [0, 2^53]");
       }
       a.spec.cfg.seed = static_cast<std::uint64_t>(x);
       return true;
     }},
    {"threads", [](const Apply& a) { return a.integer(a.spec.cfg.num_threads); }},
    {"wireless_loss", [](const Apply& a) { return a.boolean(a.spec.cfg.wireless_loss); }},
    {"eval_interval", [](const Apply& a) { return a.number(a.spec.cfg.eval_interval_s); }},
    {"train_interval", [](const Apply& a) { return a.number(a.spec.cfg.train_interval_s); }},
    {"batch_size", [](const Apply& a) { return a.integer(a.spec.cfg.batch_size); }},
    {"learning_rate", [](const Apply& a) { return a.number(a.spec.cfg.learning_rate); }},
    {"time_budget", [](const Apply& a) { return a.number(a.spec.cfg.time_budget_s); }},
    {"pair_cooldown", [](const Apply& a) { return a.number(a.spec.cfg.pair_cooldown_s); }},
    {"session_timeout", [](const Apply& a) { return a.number(a.spec.cfg.session_timeout_s); }},
    {"byzantine_frac",
     [](const Apply& a) { return a.number(a.spec.cfg.adversary.byzantine_frac); }},
    {"straggler_frac",
     [](const Apply& a) {
       // One knob drives the whole heterogeneity profile: the same fraction
       // of compute stragglers and slow radios, plus moderate dataset skew.
       double frac = 0.0;
       if (!a.number(frac)) return false;
       engine::HeteroConfig& h = a.spec.cfg.hetero;
       h.straggler_frac = frac;
       h.slow_radio_frac = frac;
       h.dataset_skew = frac > 0.0 ? 0.5 : 0.0;
       return true;
     }},
    {"background_cars",
     [](const Apply& a) { return a.integer(a.spec.cfg.world.num_background_cars); }},
    {"pedestrians", [](const Apply& a) { return a.integer(a.spec.cfg.world.num_pedestrians); }},
    {"eval_frames", [](const Apply& a) { return a.integer(a.spec.cfg.eval_frames_per_vehicle); }},
    {"radio_range", [](const Apply& a) { return a.number(a.spec.cfg.radio.max_range_m); }},
    {"model_bytes",
     [](const Apply& a) {
       double x = 0.0;
       return a.number(x) && a.count(x, a.spec.cfg.wire.model_bytes);
     }},
    {"coreset_bytes_per_sample",
     [](const Apply& a) {
       double x = 0.0;
       return a.number(x) && a.count(x, a.spec.cfg.wire.coreset_bytes_per_sample);
     }},
    {"faults",
     [](const Apply& a) {
       if (!a.object()) return false;
       for (const auto& [key, value] : a.v.members()) {
         const KeyEntry* e = find_key("faults." + key);
         if (e == nullptr) return a.fail("unknown faults key \"" + key + "\"");
         if (!e->set(Apply{key, *value, a.error, a.spec, a.metro_vehicles})) return false;
       }
       return true;
     }},
    {"faults.burst_rate_per_min",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.burst_rate_per_min); }},
    {"faults.burst_duration_s",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.burst_duration_s); }},
    {"faults.burst_radius_m",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.burst_radius_m); }},
    {"faults.burst_extra_loss",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.burst_extra_loss); }},
    {"faults.churn_rate_per_min",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.churn_rate_per_min); }},
    {"faults.churn_offline_mean_s",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.churn_offline_mean_s); }},
    {"faults.corrupt_prob_near",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.corrupt_prob_near); }},
    {"faults.corrupt_prob_far",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.corrupt_prob_far); }},
    {"faults.chat_backoff",
     [](const Apply& a) { return a.boolean(a.spec.cfg.faults.chat_backoff); }},
    {"faults.backoff_base",
     [](const Apply& a) { return a.number(a.spec.cfg.faults.backoff_base); }},
    {"faults.backoff_max_exp",
     [](const Apply& a) { return a.integer(a.spec.cfg.faults.backoff_max_exp); }},
};

const KeyEntry* find_key(std::string_view key) {
  for (const KeyEntry& e : kKeys) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

}  // namespace

bool JobSpecBuilder::set(std::string_view key, const JsonValue& value, std::string& error) {
  const KeyEntry* e = key.find('.') == std::string_view::npos ? find_key(key) : nullptr;
  if (e == nullptr) {
    error = "unknown key \"" + std::string{key} + "\"";
    return false;
  }
  return e->set(Apply{std::string{key}, value, error, spec_, metro_vehicles_});
}

bool JobSpecBuilder::set_text(std::string_view key, std::string_view text, std::string& error) {
  // Text that is no JSON literal is the JSON string it spells, so "60x" fails
  // the number check instead of parsing as 60.
  std::string json_error;
  std::string literal{text};
  if (json_parse(literal, json_error) == nullptr) literal = "\"" + json_escape(text) + "\"";
  // "object.member" sets one member of an object key: {"member": literal}.
  const std::size_t dot = key.find('.');
  if (dot != std::string_view::npos) {
    literal = "{\"" + json_escape(key.substr(dot + 1)) + "\":" + literal + "}";
  }
  const auto value = json_parse(literal, json_error);
  if (value == nullptr) {
    error = "\"" + std::string{key} + "\": " + json_error;
    return false;
  }
  return set(key.substr(0, dot), *value, error);
}

bool JobSpecBuilder::finish(std::string& error) {
  engine::ScenarioConfig& cfg = spec_.cfg;
  // Metro scaling last, so it composes with "vehicles" (which then sets the
  // base the town tiles up from) regardless of key order.
  if (metro_vehicles_ > 0) engine::apply_metro_scale(cfg, metro_vehicles_);
  if (cfg.num_vehicles < 2) {
    error = "need at least 2 vehicles";
    return false;
  }
  if (cfg.duration_s <= 0.0) {
    error = "\"duration\" must be > 0";
    return false;
  }
  if (cfg.num_threads < 0) {
    error = "\"threads\" must be >= 0";
    return false;
  }
  return true;
}

bool parse_job_spec(std::string_view text, JobSpec& out, std::string& error) {
  out = JobSpec{};
  out.source = std::string{text};

  std::string json_error;
  const auto root = json_parse(text, json_error);
  if (root == nullptr) {
    error = "invalid JSON: " + json_error;
    return false;
  }
  if (!root->is_object()) {
    error = "job spec must be a JSON object";
    return false;
  }

  JobSpecBuilder builder{out};
  for (const auto& [key, value] : root->members()) {
    if (!builder.set(key, *value, error)) return false;
  }

  if (!baselines::registry().contains(out.approach_name)) {
    error = "unknown strategy '" + out.approach_name + "'";
    return false;
  }
  // Validate option keys against the strategy's schema now, so a typo fails
  // the submission instead of the worker.
  try {
    (void)baselines::registry().fingerprint_options(out.approach_name, out.options);
  } catch (const std::invalid_argument& e) {
    error = e.what();
    return false;
  }
  return builder.finish(error);
}

std::uint64_t job_fingerprint(const JobSpec& spec) {
  const auto opts = baselines::registry().fingerprint_options(spec.approach_name, spec.options);
  // Identity on the scalar path, so historical ResultCache entries keep
  // their keys; a SIMD-backed daemon gets a disjoint key space because its
  // run results differ bit-wise from the scalar ones.
  const std::uint64_t base =
      nn::salt_with_kernel_path(engine::scenario_fingerprint(spec.cfg, spec.approach_name, opts));
  if (!spec.events) return base;
  // An events job additionally exports events.jsonl, so its payload differs
  // from the plain job's — it must not share a cache entry.
  FnvHasher h;
  h.add(base);
  h.add(std::string_view{"payload-events-v1"});
  return h.digest();
}

}  // namespace lbchat::svc
