// Figure 2: training loss vs time for LbChat and all benchmarks,
// (a) without and (b) with wireless loss (paper §IV-C).
#include <cstdio>

#include "harness.h"

int main() {
  using namespace lbchat;
  for (const bool wireless : {false, true}) {
    std::printf("\n=== Figure 2(%c): training loss vs time (%s wireless loss) ===\n",
                wireless ? 'b' : 'a', wireless ? "with" : "without");
    for (const std::string_view approach : bench::kPaperApproaches) {
      const auto cfg = bench::default_scenario(wireless);
      const auto run = bench::run_or_load(cfg, approach);
      bench::print_loss_series(std::string{approach}, run.loss_curve);
    }
  }
  return 0;
}
