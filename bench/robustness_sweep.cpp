// Byzantine-robustness sweep: LbChat vs the gossip baselines (DP, DFL-DDS)
// under an increasing fraction of seeded Byzantine vehicles
// (engine/adversary.h: sign-flipped models, inflated coreset weights, lying
// assist info — every mutated frame still CRC-valid and decodable).
//
// Writes BENCH_robustness.json: per approach and Byzantine fraction, the
// honest-cohort final eval loss (the number an honest participant cares
// about), the attacker weight share (fraction of merged peer-weight mass
// honest receivers granted to attackers; uniform baseline = the Byzantine
// fraction), and the adversary counters. Expected shape: LbChat's
// coreset-loss aggregation gate holds the honest-cohort degradation and the
// attacker share below both blind baselines as the fraction grows.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

int main() {
  using namespace lbchat;
  const std::vector<double> fractions{0.0, 0.125, 0.25, 0.5};
  const std::vector<std::string> approaches{"LbChat", "DP", "DFL-DDS"};

  std::printf(
      "\n=== Byzantine sweep (honest-cohort loss / attacker share vs fraction) ===\n");
  std::string json;
  bench::appendf(json, "{\n  \"byzantine_fractions\": [");
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    bench::appendf(json, "%s%g", i > 0 ? ", " : "", fractions[i]);
  }
  bench::appendf(json, "],\n  \"poison_scale\": 1.5,\n  \"approaches\": [\n");

  for (std::size_t ai = 0; ai < approaches.size(); ++ai) {
    const std::string& name = approaches[ai];
    bench::appendf(json, "    {\"name\": \"%s\", \"results\": [\n", name.c_str());
    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      auto cfg = bench::default_scenario(/*wireless_loss=*/true);
      cfg.duration_s *= 0.5;  // the sweep is 12 runs; keep each one shorter
      cfg.adversary.byzantine_frac = fractions[fi];
      // The separating regime — see tests/robustness_matrix.h: a heavier
      // flip makes poisoned models so obviously bad that even loss-blind
      // weighting rejects them and every defense looks equally good.
      cfg.adversary.poison_scale = 1.5;
      const auto run = bench::run_or_load(cfg, name);
      const auto& t = run.transfers;
      const double final_loss = run.loss_curve.values.back();
      const double honest_loss = run.honest_loss_curve.values.empty()
                                     ? final_loss
                                     : run.honest_loss_curve.values.back();
      const double share = t.attacker_weight_share();
      std::printf(
          "%-8s byz=%.3f  honest-loss=%.4f  fleet-loss=%.4f  attacker-share=%.4f  "
          "(poisoned=%d rej-invalid=%d)\n",
          name.c_str(), fractions[fi], honest_loss, final_loss, share,
          t.byzantine_payloads_sent, t.frames_rejected_invalid);
      bench::appendf(json,
                     "      {\"byzantine_frac\": %g, \"honest_final_loss\": %.6f, "
                     "\"final_loss\": %.6f, \"attacker_weight_share\": %.6f, "
                     "\"attacker_peer_weight\": %.6f, \"total_peer_weight\": %.6f, "
                     "\"byzantine_payloads_sent\": %d, \"frames_rejected\": %d, "
                     "\"frames_rejected_invalid\": %d, \"model_sends_completed\": %d, "
                     "\"sessions_started\": %d}%s\n",
                     fractions[fi], honest_loss, final_loss, share, t.attacker_peer_weight,
                     t.total_peer_weight, t.byzantine_payloads_sent, t.frames_rejected,
                     t.frames_rejected_invalid, t.model_sends_completed, t.sessions_started,
                     fi + 1 < fractions.size() ? "," : "");
    }
    bench::appendf(json, "    ]}%s\n", ai + 1 < approaches.size() ? "," : "");
  }
  bench::appendf(json, "  ]\n}\n");
  bench::write_or_exit("BENCH_robustness.json", json);
  std::printf("wrote BENCH_robustness.json\n");
  return 0;
}
