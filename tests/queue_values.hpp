#pragma once

// By-value round trip over a queue's handle API, for tests and the
// test-only reference link, which hold packets by value. net::Queue
// itself only takes and yields PacketHandles into its attached pool.

#include <optional>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/error.hpp"

namespace slowcc::test {

/// Copy `p` into the queue's pool and offer its handle. On success the
/// queue owns the pooled copy and nullopt is returned; on rejection the
/// copy is released and the reason returned. Throws SimError(kBadConfig)
/// when no pool is attached.
[[nodiscard]] inline std::optional<net::DropReason> enqueue_value(
    net::Queue& queue, const net::Packet& p) {
  net::PacketPool* pool = queue.pool();
  if (pool == nullptr) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "enqueue_value",
                        "queue has no packet pool attached");
  }
  const net::PacketHandle h = pool->acquire(p).handle;
  auto reason = queue.enqueue(h);
  if (reason.has_value()) pool->release(h);
  return reason;
}

/// Remove the head packet, copy it out of the pool and release its
/// slot; nullopt when the queue is empty.
[[nodiscard]] inline std::optional<net::Packet> dequeue_value(
    net::Queue& queue) {
  const net::PacketHandle h = queue.dequeue_handle();
  if (!h.valid()) return std::nullopt;
  const net::Packet p = queue.pool()->get(h);
  queue.pool()->release(h);
  return p;
}

}  // namespace slowcc::test
