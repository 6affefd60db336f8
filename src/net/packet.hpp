#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace slowcc::net {

using NodeId = std::int32_t;
using PortId = std::int32_t;
using FlowId = std::int32_t;

constexpr NodeId kInvalidNode = -1;

/// What a packet carries. The simulator is packet-level: payloads are
/// never materialized, only sizes and header fields matter.
enum class PacketType : std::uint8_t {
  kData,          // transport data segment
  kAck,           // cumulative TCP-style acknowledgment
  kRapAck,        // RAP per-packet acknowledgment
  kTfrcData,      // TFRC data segment (carries rtt estimate & seq)
  kTfrcFeedback,  // TFRC receiver report
  kTearData,      // TEAR data segment
  kTearFeedback,  // TEAR receiver rate report
  kCbr,           // constant-bit-rate filler with no transport semantics
};

[[nodiscard]] const char* to_string(PacketType type) noexcept;

/// TFRC receiver report fields (also reused by TEAR with different
/// semantics for `rate`).
struct FeedbackInfo {
  double loss_event_rate = 0.0;  // p, fraction in [0,1]
  double receive_rate = 0.0;     // bytes/sec measured at receiver
  sim::Time echo_timestamp;      // timestamp of the data packet echoed
  sim::Time delay;               // receiver-side processing delay to subtract
  bool loss_seen = false;        // a new loss event occurred this interval
};

/// A simulated packet.
///
/// Plain struct by design (no invariants beyond "filled in by the
/// sender"): agents populate the fields relevant to their type, the
/// network layer reads only `size_bytes`, addressing, and ECN bits.
struct Packet {
  // Addressing.
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  PortId src_port = 0;
  PortId dst_port = 0;
  FlowId flow = 0;

  PacketType type = PacketType::kData;
  std::int64_t size_bytes = 1000;

  // Transport sequencing. For kData this is the segment sequence
  // number; for kAck it is the cumulative "next expected" sequence.
  std::int64_t seq = 0;

  // Timestamps for RTT sampling: senders stamp data packets, receivers
  // echo the stamp in acknowledgments/feedback.
  sim::Time sent_at;
  sim::Time echo;

  // ECN (RFC 3168-style, used when a RED queue marks instead of drops).
  bool ecn_capable = false;
  bool ecn_marked = false;

  // Sender's current RTT estimate (TFRC data packets carry this so the
  // receiver can coalesce losses within one RTT into one loss event).
  sim::Time rtt_estimate;

  // Receiver report payload (valid for kTfrcFeedback / kTearFeedback).
  FeedbackInfo feedback;

  [[nodiscard]] std::string describe() const;
};

}  // namespace slowcc::net
