#include "svc/job.h"

#include <climits>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/fingerprint.h"
#include "common/thread_pool.h"
#include "engine/checkpoint.h"
#include "nn/kernel_dispatch.h"
#include "svc/json.h"

namespace lbchat::svc {

// One key being applied: its value, where it lands, and the typed read the
// setters share. `key` names the key in error messages — a nested "faults"
// member by its bare name.
struct KeyApply {
  std::string key;
  const JsonValue& v;
  std::string& error;
  JobSpec& spec;
  int& metro_vehicles;

  bool fail(const std::string& what) const {
    error = what;
    return false;
  }
  bool object() const {
    return v.is_object() || fail("\"" + key + "\" must be an object");
  }
  /// Sets `out` from the value, with the JSON type its C++ type asks for and
  /// within `range`. An int takes a whole number that fits 32 bits; a 64-bit
  /// count takes a whole number of `range` no larger than 2^53, never
  /// truncated. A literal beyond DBL_MAX parses to inf: no key takes one.
  template <class T>
  bool assign(T& out, TunableRange range = {}) const {
    if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) return fail("\"" + key + "\" must be a string");
      out = v.as_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      if (!v.is_bool()) return fail("\"" + key + "\" must be a boolean");
      out = v.as_bool();
    } else {
      if (!v.is_number()) return fail("\"" + key + "\" must be a number");
      const double x = v.as_number();
      if (!std::isfinite(x)) return fail("\"" + key + "\" must be finite");
      if constexpr (std::is_same_v<T, int>) {
        if (x != std::floor(x) || x < INT_MIN || x > INT_MAX) {
          return fail("\"" + key + "\" must be an integer");
        }
      } else if constexpr (std::is_integral_v<T>) {
        static_assert(std::is_same_v<T, std::uint64_t>);
        range = integral_range<T>(range);
      }
      if (!range.contains(x)) {
        // TunableRange::describe, naming the 2^53 cap of a 64-bit count.
        const std::string text =
            range.hi == kMaxExactInteger
                ? "an integer in [" + std::to_string(static_cast<long long>(range.lo)) + ", 2^53]"
                : range.describe();
        return fail("\"" + key + "\" must be " + text);
      }
      out = static_cast<T>(x);
    }
    return true;
  }
};

namespace {

const JobKey* find_key(std::string_view key);

bool apply(const JobKey& k, const KeyApply& a) {
  if (k.set != nullptr) return k.set(a);
  bool found = false;
  bool ok = false;
  engine::for_each_member(a.spec.cfg, [&](std::string_view path, auto& m, const auto&) {
    if (path != k.member) return;
    found = true;
    ok = a.assign(m, k.range);
  });
  if (!found) throw std::logic_error{"job key table: no member " + std::string{k.member}};
  return ok;
}

// Every JobSpec key, once: a member row with its range, or a key with its
// own setter. "faults" members are rows under a "faults." prefix, which no
// top-level key can reach.
constexpr JobKey kKeys[] = {
    {.key = "strategy",
     .cli = {"NAME", "registry name (--list-strategies lists them)"},
     .set = [](const KeyApply& a) { return a.assign(a.spec.approach_name); }},
    {.key = "strategy_options",
     .set =
         [](const KeyApply& a) {
           if (!a.object()) return false;
           for (const auto& [key, value] : a.v.members()) {
             const KeyApply opt{"strategy_options." + key, *value, a.error, a.spec,
                                a.metro_vehicles};
             double x = 0.0;
             if (!opt.assign(x)) return false;
             a.spec.options.set(key, x);
           }
           return true;
         }},
    {.key = "name", .set = [](const KeyApply& a) { return a.assign(a.spec.name); }},
    {.key = "priority", .set = [](const KeyApply& a) { return a.assign(a.spec.priority); }},
    {.key = "events", .set = [](const KeyApply& a) { return a.assign(a.spec.events); }},
    {.key = "preempt_at", .set = [](const KeyApply& a) { return a.assign(a.spec.preempt_at); }},
    {"vehicles", "num_vehicles", {}, {"N", "fleet size on a fixed map"}},
    // Metro scaling applies in JobSpecBuilder::finish, after every key.
    {.key = "num_vehicles",
     .cli = {"N", "metro scaling: N vehicles, town tiled to keep their density"},
     .set = [](const KeyApply& a) { return a.assign(a.metro_vehicles, at_least(2)); }},
    {"duration", "duration_s", {}, {"S", "simulated seconds of collaborative training"}},
    {"collect_duration", "collect_duration_s", above(0),
     {"S", "length of the data-collection phase"}},
    {"collect_fps", "collect_fps", above(0)},
    {"coreset", "coreset_size", within(1, INT_MAX), {"N", "coreset size per vehicle"}},
    {"seed", "seed", at_least(0), {"N", "scenario seed"}},
    // A lane is an OS thread: the bound keeps a spec from asking for more
    // threads than any host runs usefully.
    {"threads", "num_threads", within(0, ThreadPool::kMaxLanes),
     {"N", "worker lanes, 0 = all cores (bit-identical for any N)"}},
    {"wireless_loss", "wireless_loss"},
    {"eval_interval", "eval_interval_s", above(0)},
    {"train_interval", "train_interval_s", above(0)},
    // 0 would train nothing, and a negative size wraps to a huge size_t.
    {"batch_size", "batch_size", at_least(1)},
    {"learning_rate", "learning_rate", above(0)},
    {"time_budget", "time_budget_s", above(0)},
    {"pair_cooldown", "pair_cooldown_s", at_least(0)},
    {"session_timeout", "session_timeout_s", above(0)},
    {"byzantine_frac", "adversary.byzantine_frac", within(0, 1),
     {"F", "F*N Byzantine vehicles: poisoned payloads in CRC-valid frames"}},
    // One knob drives the whole heterogeneity profile: the same fraction of
    // compute stragglers and slow radios, plus moderate dataset skew.
    {.key = "straggler_frac",
     .cli = {"F", "F*N compute stragglers and F*N slow radios, plus dataset skew"},
     .set =
         [](const KeyApply& a) {
           engine::HeteroConfig& h = a.spec.cfg.hetero;
           if (!a.assign(h.straggler_frac, within(0, 1))) return false;
           h.slow_radio_frac = h.straggler_frac;
           h.dataset_skew = h.straggler_frac > 0.0 ? 0.5 : 0.0;
           return true;
         }},
    {"background_cars", "world.num_background_cars", at_least(0)},
    {"pedestrians", "world.num_pedestrians", at_least(0)},
    {"eval_frames", "eval_frames_per_vehicle", at_least(0)},
    {"radio_range", "radio.max_range_m", above(0)},
    {"model_bytes", "wire.model_bytes", at_least(1)},
    {"coreset_bytes_per_sample", "wire.coreset_bytes_per_sample", at_least(1)},
    {.key = "faults",
     .set =
         [](const KeyApply& a) {
           if (!a.object()) return false;
           for (const auto& [key, value] : a.v.members()) {
             const JobKey* k = find_key("faults." + key);
             if (k == nullptr) return a.fail("unknown faults key \"" + key + "\"");
             if (!apply(*k, {key, *value, a.error, a.spec, a.metro_vehicles})) return false;
           }
           return true;
         }},
    {"faults.burst_rate_per_min", "faults.burst_rate_per_min", at_least(0)},
    {"faults.burst_duration_s", "faults.burst_duration_s", at_least(0)},
    {"faults.burst_radius_m", "faults.burst_radius_m", at_least(0)},
    {"faults.burst_extra_loss", "faults.burst_extra_loss", within(0, 1)},
    {"faults.churn_rate_per_min", "faults.churn_rate_per_min", at_least(0)},
    {"faults.churn_offline_mean_s", "faults.churn_offline_mean_s", at_least(0)},
    {"faults.corrupt_prob_near", "faults.corrupt_prob_near", within(0, 1)},
    {"faults.corrupt_prob_far", "faults.corrupt_prob_far", within(0, 1)},
    {"faults.chat_backoff", "faults.chat_backoff"},
    {"faults.backoff_base", "faults.backoff_base", at_least(1)},
    {"faults.backoff_max_exp", "faults.backoff_max_exp", at_least(0)},
};

const JobKey* find_key(std::string_view key) {
  for (const JobKey& k : kKeys) {
    if (k.key == key) return &k;
  }
  return nullptr;
}

}  // namespace

std::span<const JobKey> job_keys() { return kKeys; }

bool JobSpecBuilder::set(std::string_view key, const JsonValue& value, std::string& error) {
  const JobKey* k = key.find('.') == std::string_view::npos ? find_key(key) : nullptr;
  if (k == nullptr) {
    error = "unknown key \"" + std::string{key} + "\"";
    return false;
  }
  return apply(*k, {std::string{key}, value, error, spec_, metro_vehicles_});
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
