// Deterministic, splittable random number generation for ROBOTune.
//
// Every stochastic component in the library takes an explicit 64-bit seed
// so that experiments are reproducible regardless of thread scheduling.
// We use xoshiro256** (public domain, Blackman & Vigna) seeded through
// SplitMix64, which is the recommended way to expand a single 64-bit seed
// into the 256-bit xoshiro state.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace robotune {

/// SplitMix64: used to derive independent seeds and to initialize
/// xoshiro256** state.  Passes BigCrush when used as a generator itself.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
    // Guard against the (astronomically unlikely) all-zero state.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
      state_[0] = 0x9e3779b97f4a7c15ULL;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  53 high bits of entropy.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  Unbiased via Lemire-style rejection.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_index(span));
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (cached second deviate).
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * mul;
    has_cached_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Derive a new, statistically independent generator.  Used to hand a
  /// private RNG to each parallel task (Core Guidelines CP.3: don't share
  /// writable state).
  Rng split() noexcept { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace robotune
