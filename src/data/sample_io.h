// Wire serialization of training frames (data::Sample).
//
// Lossless round trip: command byte, the BEV's bits exactly as
// data::BevGrid holds them, float waypoints, double weight, plus provenance.
// The loader validates structure (command range, BEV size against the agreed
// BevSpec) and throws rather than return garbage — frames arrive over the
// radio inside a CRC envelope (common/frame.h), but a validating
// deserializer is the second line of defence.
#pragma once

#include <cmath>
#include <stdexcept>

#include "common/bytes.h"
#include "common/frame.h"
#include "data/frame.h"

namespace lbchat::data {

/// Largest importance weight a deserialized sample may carry. Collected
/// weights live in [0.25, 10] (data/collector.cpp); the cap leaves orders of
/// magnitude of headroom for merged/reweighted coresets while rejecting the
/// non-finite and astronomically scaled values a hostile sender could use to
/// dominate any weighted average.
inline constexpr double kMaxWireSampleWeight = 1e6;

/// Least wire size of one sample (command, BEV length, waypoints, weight,
/// id, source): the bound of a sample count's Load::resize.
inline constexpr std::size_t kSampleBytes = 1 + 4 + 2 * kNumWaypoints * 4 + 8 + 8 + 4;

/// A BevSpec on the wire (a coreset's header): channels, height and width
/// as u8, then cell_m.
template <class Io, FieldsOf<BevSpec> S>
void fields(Io& io, S& spec) {
  std::uint8_t dims[] = {static_cast<std::uint8_t>(spec.channels),
                         static_cast<std::uint8_t>(spec.height),
                         static_cast<std::uint8_t>(spec.width)};
  for (auto& d : dims) io(d);
  io(spec.cell_m);
  if constexpr (Io::kLoad) spec = BevSpec{dims[0], dims[1], dims[2], spec.cell_m};
}

/// One sample on the wire, loaded against the fleet-wide BevSpec `spec`. A
/// load throws std::out_of_range (truncated), std::runtime_error (command
/// out of range, BEV size mismatch), or WireValueError (non-finite /
/// out-of-range weight); one that returns has validated every field.
template <class Io, FieldsOf<Sample> S>
void fields(Io& io, S& s, const BevSpec& spec) {
  io.enum_u8(s.command, static_cast<Command>(kNumCommands - 1), "sample: command");
  if constexpr (Io::kLoad) {
    const auto bits = io.reader().read_view();
    if (bits.size() != bev_bytes(spec)) {
      throw std::runtime_error{"sample: BEV size does not match BevSpec"};
    }
    s.bev.bits.assign(bits.begin(), bits.end());
    // Bits past the last cell are not cells: clear them, so equal rasters
    // hold equal bytes and re-save canonically.
    if (const int tail = spec.numel() % 8; tail != 0) {
      s.bev.bits.back() &= static_cast<std::uint8_t>((1u << tail) - 1);
    }
  } else {
    io(s.bev.bits);
  }
  for (auto& v : s.waypoints) io(v);
  io(s.weight);
  if constexpr (Io::kLoad) {
    if (!std::isfinite(s.weight) || s.weight < 0.0 || s.weight > kMaxWireSampleWeight) {
      throw WireValueError{"sample: weight out of range"};
    }
  }
  io(s.id);
  io(s.source_vehicle);
}

}  // namespace lbchat::data
