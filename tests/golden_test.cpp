// Golden-scenario regression suite: runs the fixed-seed scenarios from
// golden_scenarios.h and compares their digests against the committed
// goldens in tests/goldens/ (path baked in via LBCHAT_GOLDEN_DIR).
// Each scenario's digest depends on that scenario alone, so the order of
// kGoldenScenarios does not matter.

#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "golden_scenarios.h"

namespace {

TEST(GoldenScenarios, DigestsMatchCommitted) {
  using namespace lbchat::golden;
  const std::string dir = LBCHAT_GOLDEN_DIR;
  for (const auto& sc : kGoldenScenarios) {
    const std::string path = dir + "/" + sc.name + ".golden";
    std::string expected;
    ASSERT_TRUE(lbchat::read_file(path, expected))
        << "missing golden file " << path
        << "\nGenerate it with: build/tools/golden_regen";
    const std::string actual = run_golden_scenario(sc);
    EXPECT_EQ(expected, actual)
        << "golden digest mismatch for scenario '" << sc.name << "'\n"
        << "--- expected (" << path << ")\n"
        << expected << "+++ actual\n"
        << actual
        << "If this behaviour change is intentional, regenerate the goldens\n"
        << "with build/tools/golden_regen and commit the updated files.";
  }
}

}  // namespace
