// Whole-file reads and writes, shared by the service, the tools, the CLI, the
// bench harness and the tests, so every file in the repo is read and written
// the same way.
//
// read_file reads to end of file in chunks (no size probe, so pipes and
// special files read correctly and a directory is an error, not a huge
// allocation) and leaves `out` untouched on failure. write_file truncates or
// creates the file and reports a failed write or a failed close (a full disk
// often shows only when the buffered bytes are flushed).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lbchat {

[[nodiscard]] bool read_file(const std::filesystem::path& path, std::string& out);
[[nodiscard]] bool read_file(const std::filesystem::path& path, std::vector<std::uint8_t>& out);

[[nodiscard]] bool write_file(const std::filesystem::path& path,
                              std::span<const std::uint8_t> bytes);
[[nodiscard]] inline bool write_file(const std::filesystem::path& path, std::string_view text) {
  return write_file(path, {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

}  // namespace lbchat
