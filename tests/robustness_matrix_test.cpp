// Scenario × strategy robustness matrix regression test.
//
// Two layers of protection:
//  1. Every cell's behavioural digest must match the committed golden
//     (tests/goldens/robustness_matrix.golden) bit-for-bit — any change to
//     the adversary, heterogeneity, aggregation, or engine behaviour shows up
//     as a digest mismatch. Regenerate intentionally with
//     tools/run_robustness_matrix.
//  2. The headline robustness claims are asserted directly on the measured
//     values, so the matrix cannot silently golden-pin a regression: under
//     25% sign-flip attackers, LbChat's honest-cohort loss degrades strictly
//     less than DP's and DFL-DDS's, and LbChat grants attackers measurably
//     less aggregate merge weight than the uniform baseline (= the Byzantine
//     fraction).
#include "robustness_matrix.h"

#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"

namespace lbchat::robustness {
namespace {

using CellMap = std::map<std::string, CellResult>;

/// Runs the full matrix once for the whole suite (cells are independent —
/// tracing is off — but they are not cheap).
const CellMap& all_cells() {
  static const CellMap cells = [] {
    CellMap m;
    for (const MatrixScenario& sc : kMatrixScenarios) {
      for (const char* approach : kApproaches) {
        CellResult cell = run_matrix_cell(sc, approach);
        m[cell.scenario + "/" + cell.approach] = std::move(cell);
      }
    }
    return m;
  }();
  return cells;
}

TEST(RobustnessMatrix, DigestsMatchCommitted) {
  const std::string path = std::string{LBCHAT_GOLDEN_DIR} + "/robustness_matrix.golden";
  std::string committed;
  ASSERT_TRUE(read_file(path, committed)) << "missing golden file " << path
                                          << " — regenerate with tools/run_robustness_matrix";

  std::string actual;
  for (const MatrixScenario& sc : kMatrixScenarios) {
    for (const char* approach : kApproaches) {
      actual += all_cells().at(std::string{sc.name} + "/" + approach).digest + "\n";
    }
  }
  EXPECT_EQ(committed, actual)
      << "robustness-matrix digest mismatch — if the behaviour change is "
         "intentional, regenerate with tools/run_robustness_matrix "
      << path;
}

TEST(RobustnessMatrix, CleanCellsHaveNoAdversaryFootprint) {
  for (const char* approach : kApproaches) {
    const CellResult& c = all_cells().at(std::string{"clean/"} + approach);
    EXPECT_EQ(c.byzantine_payloads, 0) << approach;
    EXPECT_EQ(c.straggler_skips, 0) << approach;
    EXPECT_EQ(c.attacker_share, 0.0) << approach;
    EXPECT_EQ(c.final_loss, c.honest_final_loss) << approach;
  }
}

TEST(RobustnessMatrix, ByzantineCellsRecordAttackTraffic) {
  for (const char* scenario : {"byz12", "byz25", "byzfaults"}) {
    for (const char* approach : kApproaches) {
      const CellResult& c = all_cells().at(std::string{scenario} + "/" + approach);
      EXPECT_GT(c.byzantine_payloads, 0) << scenario << "/" << approach;
    }
  }
  // LbChat exchanges three frame kinds (assist, coreset, model), so its
  // attackers get strictly more mutation opportunities than the model-only
  // gossip baselines.
  EXPECT_GT(all_cells().at("byz25/LbChat").byzantine_payloads,
            all_cells().at("byz25/DP").byzantine_payloads);
}

TEST(RobustnessMatrix, StragglerCellSkipsTraining) {
  for (const char* approach : kApproaches) {
    const CellResult& c = all_cells().at(std::string{"stragglers/"} + approach);
    EXPECT_GT(c.straggler_skips, 0) << approach;
    EXPECT_EQ(c.byzantine_payloads, 0) << approach;
  }
}

// The acceptance headline: with 25% sign-flip attackers, LbChat's
// honest-cohort eval loss degrades strictly less than DP's and DFL-DDS's
// (degradation measured against each strategy's own clean-cell baseline).
TEST(RobustnessMatrix, LbChatHonestCohortDegradesLeastUnderByz25) {
  const auto degradation = [&](const char* approach) {
    const double clean = all_cells().at(std::string{"clean/"} + approach).final_loss;
    const double attacked =
        all_cells().at(std::string{"byz25/"} + approach).honest_final_loss;
    return attacked - clean;
  };
  const double lbchat = degradation("LbChat");
  const double dp = degradation("DP");
  const double dfl = degradation("DFL-DDS");
  std::printf("byz25 honest-cohort degradation: LbChat=%.6f DP=%.6f DFL-DDS=%.6f\n", lbchat,
              dp, dfl);
  EXPECT_LT(lbchat, dp);
  EXPECT_LT(lbchat, dfl);
}

// The defense mechanism behind the headline: LbChat's coreset-value scoring
// grants attackers measurably less aggregate merge weight than the uniform
// baseline (= the Byzantine fraction, what a value-blind averager converges
// to), and less than the loss-blind DFL-DDS weighting does.
TEST(RobustnessMatrix, LbChatAttackerWeightShareBelowUniform) {
  const double lbchat = all_cells().at("byz25/LbChat").attacker_share;
  const double dfl = all_cells().at("byz25/DFL-DDS").attacker_share;
  std::printf("byz25 attacker weight share: LbChat=%.4f DFL-DDS=%.4f uniform=0.25\n", lbchat,
              dfl);
  EXPECT_GT(lbchat, 0.0);       // some attacker mass does land...
  EXPECT_LT(lbchat, 0.8 * 0.25);  // ...but measurably below the uniform share
  EXPECT_LT(lbchat, dfl);
}

}  // namespace
}  // namespace lbchat::robustness
