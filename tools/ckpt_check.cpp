// ckpt_check: inspect and validate a fleet checkpoint file.
//
// Usage: ckpt_check [--json] FILE...
//
// For each file: verifies the CRC32 frame envelope, the checkpoint version,
// and the section framing (engine::inspect_checkpoint — no ScenarioConfig
// needed), then prints the header and the section tag+length table with
// human-readable section names. With --json, prints one JSON object per file
// (the same rendering the fleet service's status endpoint embeds for
// preempted jobs). Exits nonzero if any file fails validation, so it doubles
// as a CI gate.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "engine/checkpoint.h"
#include "svc/json.h"

namespace {

bool check(const char* path, bool json) {
  const std::string file = lbchat::svc::json_escape(path);
  std::vector<std::uint8_t> bytes;
  if (!lbchat::read_file(path, bytes)) {
    if (json) {
      std::printf("{\"file\":\"%s\",\"ok\":false,\"error\":\"cannot read\"}\n", file.c_str());
    } else {
      std::fprintf(stderr, "%s: cannot read\n", path);
    }
    return false;
  }
  lbchat::engine::CkptInfo info;
  const auto st = lbchat::engine::inspect_checkpoint(bytes, info);
  if (st != lbchat::engine::CkptStatus::kOk) {
    const std::string why{lbchat::engine::to_string(st)};
    if (json) {
      std::printf("{\"file\":\"%s\",\"ok\":false,\"error\":\"%s\"}\n", file.c_str(),
                  why.c_str());
    } else {
      std::fprintf(stderr, "%s: INVALID (%s)\n", path, why.c_str());
    }
    return false;
  }
  if (json) {
    std::printf("{\"file\":\"%s\",\"ok\":true,\"size_bytes\":%zu,\"checkpoint\":%s}\n",
                file.c_str(), bytes.size(), lbchat::engine::ckpt_info_json(info).c_str());
    return true;
  }
  std::printf("%s: ok (%zu bytes)\n", path, bytes.size());
  std::printf("  version       %u\n", info.version);
  std::printf("  fingerprint   %016llx\n",
              static_cast<unsigned long long>(info.config_fingerprint));
  std::printf("  seed          %llu\n", static_cast<unsigned long long>(info.seed));
  std::printf("  vehicles      %u\n", info.num_vehicles);
  std::printf("  strategy      %s\n", info.strategy.c_str());
  std::printf("  sim time      %.3f s\n", info.time_s);
  std::printf("  tag  section    %12s\n", "bytes");
  for (const auto& s : info.sections) {
    std::printf("  %3u  %-9s %12llu\n", s.tag,
                std::string{lbchat::engine::section_name(s.tag)}.c_str(),
                static_cast<unsigned long long>(s.bytes));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "--json") == 0) {
    json = true;
    first = 2;
  }
  if (first >= argc) {
    std::fprintf(stderr, "usage: ckpt_check [--json] FILE...\n");
    return 2;
  }
  int failures = 0;
  for (int i = first; i < argc; ++i) {
    if (!check(argv[i], json)) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
