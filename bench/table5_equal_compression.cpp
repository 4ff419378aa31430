// Table V ablation: mask the coreset-based compression-ratio optimization of
// Eq. (7); vehicles use equal fit-to-window compression ratios instead.
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat(equal-comp)");
    columns.push_back(
        {std::string{wireless ? "equal (W)" : "equal (W/O)"},
         bench::success_rates_or_load(cfg, "LbChat(equal-comp)", run, 3)});
  }
  // Full LbChat for reference.
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat");
    columns.push_back(
        {std::string{wireless ? "LbChat (W)" : "LbChat (W/O)"},
         bench::success_rates_or_load(cfg, "LbChat", run, 3)});
  }
  bench::print_paper_table(
      "=== Table V: driving success rate with equal comp. ratio (%) ===", columns);
  return 0;
}
