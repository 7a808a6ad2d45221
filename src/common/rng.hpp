// Deterministic pseudo-random number generation.
//
// Simulations must be reproducible bit-for-bit across runs and machines, so
// we avoid std::mt19937 (whose distributions are implementation-defined) and
// implement SplitMix64 (seeding / hashing) and xoshiro256** (bulk stream)
// with our own integer/real distribution helpers.
#pragma once

#include <array>
#include <cstdint>

#include "common/serialize.hpp"

namespace redcache {

/// SplitMix64 step; also a good 64-bit mix/hash function.
constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix of a 64-bit value (for hashing addresses etc.).
constexpr std::uint64_t Mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return SplitMix64(s);
}

/// xoshiro256** by Blackman & Vigna — fast, high quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { Reseed(seed); }

  void Reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound == 0 is undefined.
  std::uint64_t Below(std::uint64_t bound) {
    // Lemire's nearly-divisionless method, biased by < 2^-64: fine for sims.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool Chance(double p) { return NextDouble() < p; }

  /// Geometric-ish positive integer with mean approximately `mean` (>= 1).
  std::uint64_t Geometric(double mean);

  /// Zipf-like rank in [0, n) with exponent `s` (approximate, via inverse
  /// power transform; adequate for workload hot-set skew).
  std::uint64_t Zipf(std::uint64_t n, double s);

  /// Checkpointing: the four xoshiro256** state words are the whole state.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    for (auto& word : s.s_) a.U64(word);
  }

  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace redcache
