#pragma once

#include <cstdint>
#include <optional>

#include "fault/gilbert_elliott.hpp"
#include "net/link.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace slowcc::fault {

/// What a `WireImpairment` may do to each packet that finishes
/// serialization. All probabilities are per packet; all draws come
/// from one seeded Rng so impaired runs stay bit-reproducible.
struct ImpairmentConfig {
  /// Bursty loss channel; nullopt disables loss.
  std::optional<GilbertElliottConfig> loss;

  /// With this probability a packet is held back on the wire for a
  /// uniform extra delay in [reorder_extra_min, reorder_extra_max],
  /// letting later packets overtake it.
  double reorder_probability = 0.0;
  sim::Time reorder_extra_min = sim::Time::millis(1);
  sim::Time reorder_extra_max = sim::Time::millis(5);

  /// With this probability the wire delivers a second copy,
  /// `duplicate_extra_delay` behind the original.
  double duplicate_probability = 0.0;
  sim::Time duplicate_extra_delay = sim::Time::micros(1);
};

/// The standard `net::WireModel`: Gilbert-Elliott loss, reordering,
/// and duplication composed in a fixed draw order (loss, then
/// reorder, then duplication) for reproducibility.
class WireImpairment final : public net::WireModel {
 public:
  /// Throws sim::SimError (kBadConfig) on invalid probabilities or a
  /// reorder window with max < min.
  WireImpairment(const ImpairmentConfig& config, sim::Rng rng);

  [[nodiscard]] net::WireVerdict on_wire(const net::Packet& p) override;

  [[nodiscard]] std::uint64_t packets_seen() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t reordered() const noexcept { return reordered_; }
  [[nodiscard]] std::uint64_t duplicated() const noexcept {
    return duplicated_;
  }

 private:
  ImpairmentConfig config_;
  sim::Rng rng_;
  std::optional<GilbertElliott> loss_;
  std::uint64_t packets_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t duplicated_ = 0;
};

}  // namespace slowcc::fault
