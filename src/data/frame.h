// Data types for the BEV-based driving decision-making task (paper §IV-A).
//
// Each frame a vehicle collects contains the current bird-eye-view (BEV) of
// its surroundings, the next high-level navigation command, and the next few
// waypoints the expert planned — exactly the tuple the paper's imitation
// learning model ([19]) trains on, at miniature scale.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace lbchat::data {

/// High-level navigation command from the route planner (as in CARLA's
/// conditional imitation learning benchmarks).
enum class Command : std::uint8_t {
  kFollow = 0,    ///< follow the lane
  kLeft = 1,      ///< turn left at the next intersection
  kRight = 2,     ///< turn right at the next intersection
  kStraight = 3,  ///< go straight through the next intersection
};

inline constexpr int kNumCommands = 4;

/// BEV channel layout. The BEV is a sparse binary tensor depicting the front
/// view of the vehicle top-down (paper §IV-A); our miniature version keeps the
/// same structure with four channels.
enum class BevChannel : int {
  kRoad = 0,         ///< drivable surface
  kVehicles = 1,     ///< other cars (background traffic + peers)
  kPedestrians = 2,  ///< pedestrians
  kRoute = 3,        ///< the vehicle's own planned route ahead
};

/// Geometry of the BEV raster. The ego vehicle sits at the bottom-centre
/// looking "up" (+x forward maps to -row).
struct BevSpec {
  int channels = 4;
  int height = 16;
  int width = 16;
  double cell_m = 2.0;  ///< metres per cell

  [[nodiscard]] constexpr int numel() const { return channels * height * width; }
  friend constexpr bool operator==(const BevSpec&, const BevSpec&) = default;
};

/// BevSpec's named member list (engine/scenario.h), the form the config
/// fingerprint hashes: three i32 and an f64. The wire form is data::fields.
template <FieldsOf<BevSpec> S, class F>
void config_members(S& b, F&& f) {
  f("channels", b.channels);
  f("height", b.height);
  f("width", b.width);
  f("cell_m", b.cell_m);
}

inline constexpr BevSpec kDefaultBevSpec{};

/// Bytes of one bit-packed BEV raster of `spec`.
[[nodiscard]] constexpr std::size_t bev_bytes(const BevSpec& spec) {
  return static_cast<std::size_t>((spec.numel() + 7) / 8);
}

/// Binary occupancy raster, row-major [channel][row][col], bit-packed: cell
/// i is bit i%8 (LSB-first) of byte i/8, and the bits past numel() in the
/// last byte are zero. These are the bytes the wire carries (sample_io.h).
struct BevGrid {
  std::vector<std::uint8_t> bits;  // size = bev_bytes(spec)

  BevGrid() = default;
  explicit BevGrid(const BevSpec& spec) : bits(bev_bytes(spec), 0) {}

  /// Cell i of the raster, 0 or 1.
  [[nodiscard]] std::uint8_t at(std::size_t i) const { return (bits[i / 8] >> (i % 8)) & 1u; }
  void set(std::size_t i, std::uint8_t v = 1) {
    const unsigned mask = 1u << (i % 8);
    bits[i / 8] = static_cast<std::uint8_t>(v != 0 ? bits[i / 8] | mask : bits[i / 8] & ~mask);
  }
  [[nodiscard]] std::uint8_t at(const BevSpec& spec, int c, int r, int col) const {
    return at(index(spec, c, r, col));
  }
  void set(const BevSpec& spec, int c, int r, int col, std::uint8_t v = 1) {
    set(index(spec, c, r, col), v);
  }

 private:
  static std::size_t index(const BevSpec& spec, int c, int r, int col) {
    return static_cast<std::size_t>((c * spec.height + r) * spec.width + col);
  }
};

/// The values Off and On of the eight cells of every packed byte, LSB first.
template <auto Off, auto On>
inline constexpr auto kByteCells = [] {
  std::array<std::array<decltype(Off), 8>, 256> t{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (std::size_t k = 0; k < 8; ++k) t[b][k] = (b >> k) & 1u ? On : Off;
  }
  return t;
}();

/// Cells [first, first + n) of a bit-packed raster (BevGrid::bits) into
/// `out`, a clear cell as Off and a set one as On. From a byte-aligned
/// `first`, each whole byte copies its eight values out of one table; the
/// rest go cell by cell through the same table. Table reads, not a branch
/// (occupancy is data a predictor cannot learn) and not an int-to-float
/// convert (a serial dependency per cell).
template <auto Off, auto On>
void expand_bits(const std::uint8_t* bits, std::size_t first, std::size_t n,
                 decltype(Off)* out) {
  const auto& table = kByteCells<Off, On>;
  std::size_t c = 0;
  if (first % 8 == 0) {
    for (; c + 8 <= n; c += 8) std::copy_n(table[bits[(first + c) / 8]].data(), 8, out + c);
  }
  for (; c < n; ++c) {
    const std::size_t i = first + c;
    out[c] = table[(bits[i / 8] >> (i % 8)) & 1u][0];
  }
}

/// Number of future waypoints the model predicts.
inline constexpr int kNumWaypoints = 4;
/// Scale (metres) that normalizes ego-frame waypoint coordinates to ~[-1, 1].
inline constexpr double kWaypointScale = 20.0;

/// One training frame: (BEV, command) -> waypoints, plus bookkeeping.
struct Sample {
  BevGrid bev;
  Command command = Command::kFollow;
  /// Normalized ego-frame waypoints, interleaved (x0, y0, x1, y1, ...).
  std::array<float, 2 * kNumWaypoints> waypoints{};
  /// Original weight w(d) of the sample (paper Eq. (2)).
  double weight = 1.0;
  /// Globally unique sample id (vehicle id in the high bits, counter in low).
  std::uint64_t id = 0;
  /// Vehicle that collected the frame (provenance; used by DFL-DDS diversity).
  std::uint32_t source_vehicle = 0;
};

/// Logical wire size of one frame with simple lossless packing: BEV packed to
/// bits + command byte + float waypoints + weight. The network layer rescales
/// this to paper-scale sizes via net::WireSizeModel.
[[nodiscard]] constexpr std::size_t packed_sample_bytes(const BevSpec& spec) {
  return bev_bytes(spec) + 1 + 2 * kNumWaypoints * 4 + 8;
}

}  // namespace lbchat::data
