// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (graph generators, TIC cascade
// simulation, RR-set sampling) consumes an explicit 64-bit seed through the
// generators here, so identical seeds reproduce identical results
// byte-for-byte across runs. We intentionally avoid std::mt19937 /
// std::uniform_*_distribution: their outputs are not guaranteed identical
// across standard-library implementations, and they are slower than needed
// for coin-flip heavy cascade sampling.

#ifndef ISA_COMMON_RNG_H_
#define ISA_COMMON_RNG_H_

#include <cstdint>

namespace isa {

/// SplitMix64: tiny, fast generator used to seed Xoshiro and for cheap
/// one-shot hashing of (seed, index) pairs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Stateless hash of a (seed, stream) pair to one 64-bit value; handy for
/// deriving independent per-worker or per-ad substreams from one master seed.
inline uint64_t HashSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.Next();
}

/// Xoshiro256++ — the library's workhorse generator. Passes BigCrush,
/// 4x64-bit state, ~1ns per draw.
class Rng {
 public:
  /// Seeds the 256-bit state from `seed` via SplitMix64 (the construction
  /// recommended by the Xoshiro authors).
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace isa

#endif  // ISA_COMMON_RNG_H_
