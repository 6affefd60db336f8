#include "sim/rng.hpp"

#include <cmath>

namespace slowcc::sim {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// splitmix64 finalizer (a bijection on 64-bit values).
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kGolden;
  return mix64(x);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire-style rejection-free mapping is overkill here; modulo bias is
  // negligible for the small ranges simulations use, but debiasing is
  // cheap enough to do anyway.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng Rng::split() noexcept { return Rng(next_u64()); }

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // kGolden is odd, so `kGolden * (index + 1)` is injective in `index`
  // modulo 2^64; mixing keeps adjacent indices statistically far apart.
  return mix64(base + kGolden * (index + 1));
}

}  // namespace slowcc::sim
