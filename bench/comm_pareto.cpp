// Communication-efficiency Pareto sweep: bytes-on-air vs final eval loss for
// the strategy field — LbChat, the blind gossip baselines (DP, DFL-DDS), and
// the two communication-efficiency protocols from related work (DynThresh,
// SimGossip) — under three scenarios: clean, deterministic fault pressure
// (the fault_sweep mid level), and a 12.5% Byzantine fleet.
//
// Writes BENCH_comm_pareto.json: per scenario and strategy, the bytes
// delivered on air, the final (and honest-cohort, where an adversary is
// seeded) eval loss, and the transfer counters. Expected shape: DynThresh
// sits on the Pareto frontier in the clean scenario — its divergence gate
// spends strictly fewer bytes than the fixed-cadence DP/DFL-DDS at
// comparable final loss — while LbChat buys its loss advantage with coreset
// traffic and SimGossip tracks DP's byte bill with a similarity-hardened
// blend.
//
// This is the first bench on the string-keyed registry path: strategies are
// named, and per-strategy options (the DynThresh divergence bound) ride the
// run_or_load fingerprint through the registry's canonical option view.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

lbchat::engine::FaultConfig mid_faults() {
  lbchat::engine::FaultConfig f;
  f.burst_rate_per_min = 1.5;
  f.burst_duration_s = 20.0;
  f.burst_radius_m = 250.0;
  f.burst_extra_loss = 1.0;
  f.churn_rate_per_min = 0.25;
  f.churn_offline_mean_s = 30.0;
  f.corrupt_prob_near = 0.025;
  f.corrupt_prob_far = 0.15;
  f.chat_backoff = true;
  return f;
}

struct Scenario {
  std::string name;
  lbchat::engine::ScenarioConfig cfg;
};

struct Entry {
  std::string name;
  lbchat::baselines::StrategyOptions options;
};

}  // namespace

int main() {
  using namespace lbchat;

  const std::vector<Entry> strategies = [] {
    std::vector<Entry> s;
    s.push_back({"LbChat", {}});
    s.push_back({"DP", {}});
    s.push_back({"DFL-DDS", {}});
    s.push_back({"DynThresh", {}});
    s.push_back({"SimGossip", {}});
    return s;
  }();

  const std::vector<Scenario> scenarios = [] {
    std::vector<Scenario> s;
    {
      auto cfg = bench::default_scenario(/*wireless_loss=*/true);
      cfg.duration_s *= 0.5;  // 15 runs; keep each one shorter
      s.push_back({"clean", cfg});
    }
    {
      auto cfg = bench::default_scenario(/*wireless_loss=*/true);
      cfg.duration_s *= 0.5;
      cfg.faults = mid_faults();
      s.push_back({"faults", cfg});
    }
    {
      auto cfg = bench::default_scenario(/*wireless_loss=*/true);
      cfg.duration_s *= 0.5;
      cfg.adversary.byzantine_frac = 0.125;
      cfg.adversary.poison_scale = 1.5;  // the separating regime (robustness_sweep)
      s.push_back({"byz12", cfg});
    }
    return s;
  }();

  std::printf("\n=== Communication Pareto sweep (bytes on air vs final loss) ===\n");
  std::string json;
  bench::appendf(json, "{\n  \"scenarios\": [\n");

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& sc = scenarios[si];
    std::printf("\n-- scenario: %s --\n", sc.name.c_str());
    bench::appendf(json, "    {\"name\": \"%s\", \"strategies\": [\n", sc.name.c_str());
    for (std::size_t ei = 0; ei < strategies.size(); ++ei) {
      const Entry& e = strategies[ei];
      const auto run = bench::run_or_load(sc.cfg, e.name, e.options);
      const auto& t = run.transfers;
      const double final_loss = run.loss_curve.values.back();
      const double honest_loss = run.honest_loss_curve.values.empty()
                                     ? final_loss
                                     : run.honest_loss_curve.values.back();
      const double mb = static_cast<double>(t.bytes_delivered) / 1048576.0;
      std::printf("%-10s bytes=%8.1f MB  final-loss=%.4f  honest-loss=%.4f  "
                  "(sessions=%d recv-rate=%.0f%%)\n",
                  e.name.c_str(), mb, final_loss, honest_loss, t.sessions_started,
                  100.0 * t.model_receiving_rate());
      bench::appendf(json,
                     "      {\"name\": \"%s\", \"bytes_on_air\": %llu, "
                     "\"megabytes_on_air\": %.3f, \"final_loss\": %.6f, "
                     "\"honest_final_loss\": %.6f, \"model_sends_started\": %d, "
                     "\"model_sends_completed\": %d, \"sessions_started\": %d, "
                     "\"sessions_aborted\": %d, \"train_steps\": %ld}%s\n",
                     e.name.c_str(), static_cast<unsigned long long>(t.bytes_delivered), mb,
                     final_loss, honest_loss, t.model_sends_started, t.model_sends_completed,
                     t.sessions_started, t.sessions_aborted, run.train_steps,
                     ei + 1 < strategies.size() ? "," : "");
    }
    bench::appendf(json, "    ]}%s\n", si + 1 < scenarios.size() ? "," : "");
  }
  bench::appendf(json, "  ]\n}\n");
  bench::write_or_exit("BENCH_comm_pareto.json", json);
  std::printf("\nwrote BENCH_comm_pareto.json\n");
  return 0;
}
