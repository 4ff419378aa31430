#include "common/frame.h"

#include <array>
#include <cstring>

#include "obs/trace.h"

namespace lbchat::frame {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
/// the classic bytewise table, and kCrcTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table lookups fold eight input bytes
/// at once. Same polynomial, same result as the bytewise loop.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFFu));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFFu));
}

/// CRC over (version, type, length-le, payload): protects the header fields
/// the receiver acts on, not just the payload bytes.
std::uint32_t frame_crc(std::uint8_t version, std::uint8_t type, std::uint32_t length,
                        std::span<const std::uint8_t> payload) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::array<std::uint8_t, 6> head{
      version,
      type,
      static_cast<std::uint8_t>(length & 0xFFu),
      static_cast<std::uint8_t>((length >> 8) & 0xFFu),
      static_cast<std::uint8_t>((length >> 16) & 0xFFu),
      static_cast<std::uint8_t>((length >> 24) & 0xFFu),
  };
  crc = crc32_update(crc, head);
  crc = crc32_update(crc, payload);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

std::string_view to_string(FrameStatus s) {
  switch (s) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTooShort: return "too-short";
    case FrameStatus::kBadMagic: return "bad-magic";
    case FrameStatus::kBadVersion: return "bad-version";
    case FrameStatus::kBadLength: return "bad-length";
    case FrameStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode(FrameType type, std::span<const std::uint8_t> payload) {
  LBCHAT_OBS_SPAN("frame.encode");
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, length);
  put_u32(out, frame_crc(kFrameVersion, static_cast<std::uint8_t>(type), length, payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Decoded decode(std::span<const std::uint8_t> bytes) {
  LBCHAT_OBS_SPAN("frame.decode");
  Decoded d;
  if (bytes.size() < kHeaderBytes) {
    d.status = FrameStatus::kTooShort;
    return d;
  }
  if (load_le32(bytes.data()) != kFrameMagic) {
    d.status = FrameStatus::kBadMagic;
    return d;
  }
  const std::uint8_t version = bytes[4];
  const std::uint8_t type = bytes[5];
  const std::uint32_t length = load_le32(bytes.data() + 6);
  const std::uint32_t crc = load_le32(bytes.data() + 10);
  if (version != kFrameVersion) {
    d.status = FrameStatus::kBadVersion;
    return d;
  }
  if (static_cast<std::size_t>(length) > bytes.size() - kHeaderBytes) {
    d.status = FrameStatus::kBadLength;
    return d;
  }
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes, length);
  if (frame_crc(version, type, length, payload) != crc) {
    d.status = FrameStatus::kBadChecksum;
    return d;
  }
  d.status = FrameStatus::kOk;
  d.type = static_cast<FrameType>(type);
  d.payload = payload;
  return d;
}

}  // namespace lbchat::frame
