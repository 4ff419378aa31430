#include "common/file_io.h"

#include <cstdio>

namespace lbchat {
namespace {

template <class Buffer>
bool read_into(const std::filesystem::path& path, Buffer& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  Buffer buf;
  std::size_t size = 0;
  for (;;) {
    buf.resize(size + kChunk);
    const std::size_t n = std::fread(buf.data() + size, 1, kChunk, f);
    size += n;
    if (n < kChunk) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return false;
  buf.resize(size);
  out = std::move(buf);
  return true;
}

}  // namespace

bool read_file(const std::filesystem::path& path, std::string& out) {
  return read_into(path, out);
}

bool read_file(const std::filesystem::path& path, std::vector<std::uint8_t>& out) {
  return read_into(path, out);
}

bool write_file(const std::filesystem::path& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace lbchat
