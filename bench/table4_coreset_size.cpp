// Table IV: driving success rate with different coreset sizes (%).
// The paper compares |C| = 1500 (10x) and |C| = 15 (1/10) against the default
// 150, with and without wireless loss; both extremes hurt.
#include "harness.h"

int main() {
  using namespace lbchat;
  std::vector<bench::SuccessColumn> columns;
  for (const bool wireless : {false, true}) {
    for (const std::size_t size : {std::size_t{1500}, std::size_t{15}}) {
      auto cfg = bench::default_scenario(wireless);
      cfg.coreset_size = size;
      const auto run = bench::run_or_load(cfg, "LbChat");
      const auto rates = bench::success_rates_or_load(cfg, "LbChat", run, 3);
      char name[32];
      std::snprintf(name, sizeof name, "%zu (%s)", size, wireless ? "W" : "W/O");
      columns.push_back({name, rates});
    }
  }
  // Reference: the default coreset size, for context (not a paper column).
  for (const bool wireless : {false, true}) {
    const auto cfg = bench::default_scenario(wireless);
    const auto run = bench::run_or_load(cfg, "LbChat");
    char name[32];
    std::snprintf(name, sizeof name, "150 (%s)", wireless ? "W" : "W/O");
    columns.push_back({name, bench::success_rates_or_load(cfg, "LbChat", run, 3)});
  }
  bench::print_paper_table(
      "=== Table IV: driving success rate with different coreset size (%) ===", columns);
  return 0;
}
