#include "common/rng.h"

#include "common/bytes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lbchat {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

}  // namespace

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::fork(std::string_view name) const { return fork(hash_name(name)); }

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the salt into the seed material with one SplitMix64 round so that
  // fork(a).fork(b) == fork(b).fork(a) does NOT hold but fork order at one
  // level never matters (each fork only reads seed_, not generator state).
  std::uint64_t mixed = seed_ ^ (salt + 0x9E3779B97F4A7C15ULL + (seed_ << 6) + (seed_ >> 2));
  return Rng{splitmix64(mixed)};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument{"uniform_index: n must be > 0"};
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument{"uniform_int: hi < lo"};
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = r * std::sin(2.0 * M_PI * u2);
  have_spare_normal_ = true;
  return r * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::chance(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::weighted_sample_without_replacement(
    std::span<const double> weights, std::size_t k) {
  // Efraimidis–Spirakis: key_i = u_i^(1/w_i); take the k largest keys.
  // Equivalent (and numerically safer) in log space: key = log(u)/w.
  std::vector<std::pair<double, std::size_t>> keys;
  keys.reserve(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      double u = 0.0;
      do {
        u = uniform();
      } while (u <= 1e-300);
      keys.emplace_back(std::log(u) / weights[i], i);
    }
  }
  const std::size_t take = std::min(k, keys.size());
  std::partial_sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(take), keys.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(keys[i].second);
  return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

template <class Io, class S>
void Rng::fields(Io& io, S& rng) {
  io(rng.seed_);
  for (auto& s : rng.s_) io(s);
  io(rng.have_spare_normal_);
  io(rng.spare_normal_);
}

void Rng::save(ByteWriter& w) const {
  Save io{w};
  fields(io, *this);
}

void Rng::load(ByteReader& r) {
  Load io{r};
  fields(io, *this);
}

}  // namespace lbchat
