// Table II: driving success rate on average, WITHOUT wireless loss (%).
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const std::string_view approach : bench::kPaperApproaches) {
    const auto cfg = bench::default_scenario(/*wireless_loss=*/false);
    const auto run = bench::run_or_load(cfg, approach);
    columns.push_back({std::string{approach}, bench::success_rates_or_load(cfg, approach, run)});
  }
  bench::print_paper_table(
      "=== Table II: driving success rate on average (w/o wireless loss) (%) ===", columns);
  return 0;
}
