// §IV-C statistic: successful model receiving rate on average, with wireless
// loss. Paper reports LbChat 87% vs ProxSkip 60%, RSU-L 60%, DFL-DDS 52%,
// DP 51% — LbChat's neighbour prioritization (route sharing + Eq. (5)) is the
// mechanism.
#include <cstdio>

#include "harness.h"

int main() {
  using namespace lbchat;
  std::printf("\n=== Successful model receiving rate (with wireless loss) ===\n");
  for (const std::string_view approach : bench::kPaperApproaches) {
    const auto cfg = bench::default_scenario(/*wireless_loss=*/true);
    const auto run = bench::run_or_load(cfg, approach);
    std::printf("%-10s  %3.0f%%   (%d of %d model sends completed; %d sessions, %d aborted)\n",
                std::string{approach}.c_str(),
                100.0 * run.transfers.model_receiving_rate(),
                run.transfers.model_sends_completed, run.transfers.model_sends_started,
                run.transfers.sessions_started, run.transfers.sessions_aborted);
  }
  return 0;
}
