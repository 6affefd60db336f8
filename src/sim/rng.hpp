#pragma once

#include <cstdint>

namespace slowcc::sim {

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every stochastic element of a scenario draws from one seeded `Rng`
/// so experiments are reproducible bit-for-bit across runs and
/// platforms. We implement the generator ourselves rather than using
/// `std::mt19937` + distributions because libstdc++'s distribution
/// implementations are not specified and would make cross-toolchain
/// reproducibility accidental.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Derive an independent child generator (for per-flow streams).
  [[nodiscard]] Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// next_u64, uniform() and chance() are inline: RED admission and the
// wire impairment models draw on every packet.

inline std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

inline double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline bool Rng::chance(double probability) noexcept {
  return uniform() < probability;
}

/// Deterministic sub-stream seed derivation: one splitmix64
/// finalization of `base + golden * (index + 1)`. The finalizer is a
/// bijection and the pre-mix is injective in `index` for a fixed base,
/// so two distinct indices never collide under the same base; the
/// function is pure, so results are independent of evaluation order
/// (and of which thread asks). This is the primitive behind
/// `exp::derive_seed` and the scenarios' internal seed fan-out.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index) noexcept;

}  // namespace slowcc::sim
