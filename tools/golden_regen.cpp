// golden_regen: regenerate the committed golden-scenario digests.
//
// Usage: golden_regen [OUT_DIR]   (default: tests/goldens relative to cwd,
//                                  or the baked-in source path if it exists)
//
// Runs every scenario in kGoldenScenarios and writes one <name>.golden file
// each. A digest depends on its scenario alone, not on which scenarios ran
// before it in the process.

#include <cstdio>
#include <string>

#include "golden_scenarios.h"

namespace {

bool write_text(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

bool dir_exists(const std::string& path) {
  std::FILE* probe = std::fopen((path + "/.probe").c_str(), "wb");
  if (probe == nullptr) return false;
  std::fclose(probe);
  std::remove((path + "/.probe").c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbchat::golden;
  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else if (dir_exists(LBCHAT_GOLDEN_DIR)) {
    dir = LBCHAT_GOLDEN_DIR;  // source tree available: update in place
  } else {
    dir = "tests/goldens";
  }
  for (const auto& sc : kGoldenScenarios) {
    const std::string digest = run_golden_scenario(sc);
    const std::string path = dir + "/" + sc.name + ".golden";
    if (!write_text(path, digest)) return 1;
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
