// golden_regen: regenerate the committed golden-scenario digests.
//
// Usage: golden_regen [OUT_DIR]   (default: tests/goldens relative to cwd,
//                                  or the baked-in source path if it exists)
//
// Runs every scenario in kGoldenScenarios and writes one <name>.golden file
// each. A digest depends on its scenario alone, not on which scenarios ran
// before it in the process.

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/file_io.h"
#include "golden_scenarios.h"

int main(int argc, char** argv) {
  using namespace lbchat::golden;
  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else if (std::filesystem::is_directory(LBCHAT_GOLDEN_DIR)) {
    dir = LBCHAT_GOLDEN_DIR;  // source tree available: update in place
  } else {
    dir = "tests/goldens";
  }
  for (const auto& sc : kGoldenScenarios) {
    const std::string digest = run_golden_scenario(sc);
    const std::string path = dir + "/" + sc.name + ".golden";
    if (!lbchat::write_file(path, digest)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
