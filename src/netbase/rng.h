// Deterministic random number generation.
//
// Every stochastic component in the simulator (link failure processes, CSU
// drift, event jitter, topology generation) draws from its own Xoshiro256**
// stream seeded through SplitMix64. Identical seeds reproduce identical BGP
// logs bit-for-bit, which the integration tests rely on. std::mt19937 is
// deliberately avoided: its seeding and distribution implementations are not
// specified tightly enough to be reproducible across standard libraries.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace iri {

// SplitMix64: used only to expand a single seed into the four Xoshiro words.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: fast, high-quality, tiny state. One instance per component.
class Rng {
 public:
  constexpr explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.Next();
  }

  // Derives an independent stream; used to hand child components their own
  // generators so adding a new consumer never perturbs existing draws.
  constexpr Rng Fork(std::uint64_t salt) {
    return Rng(Next() ^ (salt * 0x9E3779B97F4A7C15ULL));
  }

  constexpr std::uint64_t Next() {
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

  // Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction;
  // the slight modulo bias (< 2^-64 * bound) is irrelevant at our scales.
  constexpr std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t Range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    Below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  constexpr double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return Uniform() < p; }

  // Exponential with the given mean (mean = 1/rate). Used for Poisson
  // event processes (failures, exogenous instability events).
  double Exponential(double mean) {
    double u = Uniform();
    // Guard log(0); Uniform() < 1 always but may be 0.
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  // Standard normal via Box-Muller (no state caching: simplicity over the
  // one extra transcendental; this is not on any hot path).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = Uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

}  // namespace iri
