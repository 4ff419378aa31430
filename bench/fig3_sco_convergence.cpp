// Figure 3: training loss vs time, LbChat vs SCO. The paper observes SCO
// reaches a similar final loss but takes ~1.5-1.8x longer to converge —
// merging valuable peer models (not just absorbing their coresets)
// accelerates early training.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace lbchat;
  for (const bool wireless : {false, true}) {
    std::printf("\n=== Figure 3 (%s wireless loss): LbChat vs SCO ===\n",
                wireless ? "with" : "without");
    const auto cfg = bench::default_scenario(wireless);
    const auto lbchat = bench::run_or_load(cfg, "LbChat");
    const auto sco = bench::run_or_load(cfg, "SCO");
    bench::print_loss_series("LbChat", lbchat.loss_curve);
    bench::print_loss_series("SCO", sco.loss_curve);

    // Convergence-time ratio at a common loss threshold: midway between the
    // starting loss and the better final loss.
    const double start = lbchat.loss_curve.values.front();
    const double floor_loss =
        std::min(lbchat.loss_curve.values.back(), sco.loss_curve.values.back());
    for (const double frac : {0.5, 0.25, 0.15}) {
      const double threshold = floor_loss + frac * (start - floor_loss);
      const double t_lbchat = lbchat.loss_curve.first_time_below(threshold);
      const double t_sco = sco.loss_curve.first_time_below(threshold);
      if (t_lbchat > 0 && t_sco > 0) {
        std::printf("time to reach loss %.4f: LbChat %.0fs, SCO %.0fs (SCO/LbChat = %.2fx)\n",
                    threshold, t_lbchat, t_sco, t_sco / t_lbchat);
      }
    }
  }
  return 0;
}
