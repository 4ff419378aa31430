// Table VII: sharing coresets only (SCO, §IV-G) — vehicles exchange coresets
// but never models. Success rates should come close to full LbChat.
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "SCO");
    columns.push_back({std::string{wireless ? "SCO (W)" : "SCO (W/O)"},
                       bench::success_rates_or_load(cfg, "SCO", run, 3)});
  }
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat");
    columns.push_back(
        {std::string{wireless ? "LbChat (W)" : "LbChat (W/O)"},
         bench::success_rates_or_load(cfg, "LbChat", run, 3)});
  }
  bench::print_paper_table(
      "=== Table VII: driving success rate with sharing coreset only (%) ===", columns);
  return 0;
}
