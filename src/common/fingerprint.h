// FNV-1a fingerprinting shared by every result cache in the repo.
//
// The bench harness caches training runs on disk keyed by a scenario
// fingerprint; the fleet-evaluation service (src/svc) keys its ResultCache the
// same way so a job submitted twice runs once. The scenario fingerprint itself
// lives with the one serializer of ScenarioConfig fields
// (engine::scenario_fingerprint, engine/checkpoint.h); this header holds the
// hash primitives it and the other caches are built from.
// tests/fingerprint_test.cpp pins known digests so the key derivation cannot
// silently drift and stale cache entries cannot be served for changed
// configurations.
//
// Scheme: typed fields are serialized through a ByteWriter (the same
// little-endian layout as the wire formats) and the byte stream is hashed
// with 64-bit FNV-1a. Opt-in layers follow one marker-tail rule: a group of
// knobs is written only while one of them is live, behind its marker byte
// (0xAD adversary/heterogeneity, 0x18 int8 eval), so an inert
// layer hashes exactly like a scenario that never mentions it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace lbchat {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/// Plain 64-bit FNV-1a over a byte span, chainable via `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                            std::uint64_t h = kFnvOffsetBasis) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Typed FNV-1a accumulator: fields are serialized little-endian through a
/// ByteWriter, then digested. The add() overload set (and its byte layout)
/// is frozen by the pinned digests in tests/fingerprint_test.cpp — widening
/// it is fine, changing existing overloads is a cache-key break.
class FnvHasher {
 public:
  void add(double v) { w_.write_f64(v); }
  void add(std::uint64_t v) { w_.write_u64(v); }
  void add(int v) { w_.write_i32(v); }
  void add(bool v) { w_.write_u8(v ? 1 : 0); }
  void add(std::string_view s) { w_.write_string(s); }

  [[nodiscard]] std::uint64_t digest() const { return fnv1a(w_.bytes()); }

 private:
  ByteWriter w_;
};

/// One canonical (non-default, schema-validated) strategy option as it enters
/// the fingerprint. Produced by baselines::StrategyRegistry::
/// fingerprint_options — sorted by key, defaults dropped — so two spellings
/// of the same configuration hash identically.
struct StrategyOptionKv {
  std::string key;
  double value = 0.0;
};

}  // namespace lbchat
