// run_robustness_matrix: run the scenario × strategy robustness matrix and
// print one digest line per cell (the tests/goldens/robustness_matrix.golden
// format) to stdout, plus a human-readable summary table to stderr.
//
// Usage: run_robustness_matrix [OUT_FILE]
//
// With OUT_FILE the digest lines are also written there — pointing it at
// tests/goldens/robustness_matrix.golden regenerates the committed golden
// after an intentional behaviour change. CI diffs the stdout against the
// committed file.

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "robustness_matrix.h"

int main(int argc, char** argv) {
  using namespace lbchat::robustness;
  std::string digests;
  std::vector<CellResult> cells;
  for (const MatrixScenario& sc : kMatrixScenarios) {
    for (const char* approach : kApproaches) {
      CellResult cell = run_matrix_cell(sc, approach);
      std::printf("%s\n", cell.digest.c_str());
      std::fflush(stdout);
      digests += cell.digest + "\n";
      cells.push_back(std::move(cell));
    }
  }

  std::fprintf(stderr, "\n%-12s %-8s %12s %12s %10s %8s %8s\n", "scenario", "approach",
               "final_loss", "honest_loss", "atk_share", "byz_tx", "skips");
  for (const CellResult& c : cells) {
    std::fprintf(stderr, "%-12s %-8s %12.6f %12.6f %10.4f %8d %8ld\n", c.scenario.c_str(),
                 c.approach.c_str(), c.final_loss, c.honest_final_loss, c.attacker_share,
                 c.byzantine_payloads, c.straggler_skips);
  }

  if (argc > 1) {
    if (!lbchat::write_file(argv[1], digests)) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", argv[1]);
  }
  return 0;
}
