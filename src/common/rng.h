// Deterministic random-number generation.
//
// Every stochastic component of the simulator draws from its own named stream
// derived from (root seed, stream name), so experiments are reproducible
// bit-for-bit and adding a consumer never perturbs unrelated components.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace lbchat {

class ByteWriter;
class ByteReader;

/// xoshiro256** seeded via SplitMix64. Small, fast, and good enough statistical
/// quality for simulation workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derive an independent child stream from this generator's seed material
  /// and a textual name (order-independent: deriving "a" then "b" equals
  /// deriving "b" then "a").
  [[nodiscard]] Rng fork(std::string_view name) const;
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n) ; n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller.
  double normal();
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool chance(double p);

  /// Sample `k` distinct indices from [0, weights.size()) with probability
  /// proportional to `weights` (without replacement). Zero/negative weights are
  /// never selected. If fewer than `k` positive weights exist, returns all of
  /// them. O(n log n) via the exponential-sort (Efraimidis–Spirakis) method.
  [[nodiscard]] std::vector<std::size_t> weighted_sample_without_replacement(
      std::span<const double> weights, std::size_t k);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  [[nodiscard]] std::uint64_t seed_material() const { return seed_; }

  /// Serialize/restore the complete generator state (seed material, the
  /// xoshiro words, and the cached Box-Muller spare), so a restored stream
  /// continues bit-identically.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

 private:
  template <class Io, class S>
  static void fields(Io& io, S& rng);

  std::uint64_t seed_;  // original seed material, used by fork()
  std::uint64_t s_[4];  // xoshiro256** state
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// FNV-1a hash of a string, for naming RNG streams.
std::uint64_t hash_name(std::string_view name);

}  // namespace lbchat
