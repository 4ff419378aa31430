// Golden-scenario regression suite: runs the fixed-seed scenarios from
// golden_scenarios.h and compares their digests against the committed
// goldens in tests/goldens/ (path baked in via LBCHAT_GOLDEN_DIR).
// Each scenario's digest depends on that scenario alone, so the order of
// kGoldenScenarios does not matter.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "golden_scenarios.h"

namespace {

bool read_text(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  out.clear();
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

TEST(GoldenScenarios, DigestsMatchCommitted) {
  using namespace lbchat::golden;
  const std::string dir = LBCHAT_GOLDEN_DIR;
  for (const auto& sc : kGoldenScenarios) {
    const std::string path = dir + "/" + sc.name + ".golden";
    std::string expected;
    ASSERT_TRUE(read_text(path, expected))
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
