// Wire serialization of coresets (samples + in-coreset weights w_C).
#pragma once

#include <cmath>
#include <stdexcept>

#include "common/bytes.h"
#include "common/frame.h"
#include "coreset/coreset.h"
#include "data/sample_io.h"

namespace lbchat::coreset {

/// Largest in-coreset weight w_C a deserialized coreset may carry. w_C
/// entries are data-mass estimates (sums of sample weights), so the cap sits
/// well above anything a real fleet produces while still bounding what a
/// weight-sensitive aggregator can be fed.
inline constexpr double kMaxWireCoresetWeight = 1e9;

/// A coreset on the wire: its BevSpec, the samples, then w_C. A load checks
/// the spec against the fleet-wide `expected` and every w_C against
/// `max_weight`: peer input keeps the wire cap; a vehicle's own checkpointed
/// coresets pass +inf, since merges let honest mass grow past it. It throws
/// std::out_of_range (truncated), std::runtime_error (spec mismatch, weight
/// vector not parallel to samples, malformed sample), or WireValueError
/// (non-finite, negative, or above `max_weight` w_C entries).
template <class Io, FieldsOf<Coreset> C>
void fields(Io& io, C& c, const data::BevSpec& expected,
            double max_weight = kMaxWireCoresetWeight) {
  io(c.spec);
  if constexpr (Io::kLoad) {
    if (!(c.spec == expected)) throw std::runtime_error{"read_coreset: BevSpec mismatch"};
  }
  io.resize(c.samples, data::kSampleBytes);
  for (auto& s : c.samples) data::fields(io, s, c.spec);
  io(c.wc);
  if constexpr (Io::kLoad) {
    if (c.wc.size() != c.samples.size()) {
      throw std::runtime_error{"read_coreset: weight vector length mismatch"};
    }
    for (const double wc : c.wc) {
      if (!std::isfinite(wc) || wc < 0.0 || wc > max_weight) {
        throw WireValueError{"read_coreset: w_C out of range"};
      }
    }
  }
}

inline void write_coreset(ByteWriter& w, const Coreset& c) {
  Save io{w};
  fields(io, c, c.spec);
}

inline Coreset read_coreset(ByteReader& r, const data::BevSpec& expected,
                            double max_weight = kMaxWireCoresetWeight) {
  Coreset c;
  Load io{r};
  fields(io, c, expected, max_weight);
  return c;
}

}  // namespace lbchat::coreset
