// Table VI ablation: replace the coreset-based model aggregation of Eq. (8)
// with plain averaging.
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat(avg-agg)");
    columns.push_back(
        {std::string{wireless ? "avg (W)" : "avg (W/O)"},
         bench::success_rates_or_load(cfg, "LbChat(avg-agg)", run, 3)});
  }
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat");
    columns.push_back(
        {std::string{wireless ? "LbChat (W)" : "LbChat (W/O)"},
         bench::success_rates_or_load(cfg, "LbChat", run, 3)});
  }
  bench::print_paper_table(
      "=== Table VI: driving success rate with avg. aggregation (%) ===", columns);
  return 0;
}
