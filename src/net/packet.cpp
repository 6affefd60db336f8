#include "net/packet.hpp"

#include <cstdio>

namespace slowcc::net {

const char* to_string(PacketType type) noexcept {
  switch (type) {
    case PacketType::kData:
      return "DATA";
    case PacketType::kAck:
      return "ACK";
    case PacketType::kRapAck:
      return "RAP-ACK";
    case PacketType::kTfrcData:
      return "TFRC-DATA";
    case PacketType::kTfrcFeedback:
      return "TFRC-FB";
    case PacketType::kTearData:
      return "TEAR-DATA";
    case PacketType::kTearFeedback:
      return "TEAR-FB";
    case PacketType::kCbr:
      return "CBR";
  }
  return "?";
}

std::string Packet::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s flow=%d %d:%d->%d:%d seq=%lld size=%lldB",
                to_string(type), flow, src_node, src_port, dst_node, dst_port,
                static_cast<long long>(seq),
                static_cast<long long>(size_bytes));
  return buf;
}

}  // namespace slowcc::net
