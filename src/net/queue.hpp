#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/error.hpp"

namespace slowcc::net {

/// Why a packet was lost (reported to drop monitors). The first three
/// come from queue admission; the last two from the link itself.
enum class DropReason : std::uint8_t {
  kOverflow,    // hard buffer limit
  kEarly,       // active queue management (RED) early drop
  kForced,      // scripted/deterministic drop injected by an experiment
  kLinkDown,    // link was (or went) down: queued and in-flight packets
  kImpairment,  // stochastic wire impairment (e.g. Gilbert-Elliott loss)
};

/// Abstract router queue discipline.
///
/// A queue buffers packets awaiting transmission on a link, in FIFO
/// order (the paper's scenarios all use FIFO scheduling; RED only
/// decides *admission*). Storage lives here in the base: a ring of
/// PacketHandles sized once to the hard packet limit at construction,
/// so steady-state enqueue/dequeue never allocates — implementations
/// contribute only the `admit` policy.
///
/// Packets enter and leave as PacketHandles into the pool attached with
/// `attach_pool` (a queue used before one is attached throws
/// SimError(kBadConfig)). On rejection the queue does not consume the
/// handle: the caller still owns it for drop observers.
class Queue {
 public:
  /// Returns any handles still buffered to the pool, so its counters
  /// balance to zero even when a queue is torn down holding packets
  /// (e.g. a Simulator aborted mid-trial).
  virtual ~Queue() {
    while (count_ != 0) pool_ref().release(take_front());
  }

  /// Try to admit the pooled packet behind `h` (admission may mutate
  /// it: RED marks ECN-capable packets instead of dropping). On success
  /// the queue owns the handle; on failure the caller still does — use
  /// it for the drop observers, then release it.
  [[nodiscard]] std::optional<DropReason> enqueue(PacketHandle h) {
    return enqueue(h, pool_ref().get(h));
  }

  /// Remove and return the head handle; invalid handle when empty.
  /// `size_bytes` (optional) receives the packet's size, read through
  /// the pool's checked access the dequeue makes anyway, so a caller
  /// needs no second lookup.
  [[nodiscard]] PacketHandle dequeue_handle(
      std::int64_t* size_bytes = nullptr) {
    if (count_ == 0) return PacketHandle{};
    const PacketHandle h = take_front();
    const std::int64_t size = pool_ref().get(h).size_bytes;
    if (size_bytes != nullptr) *size_bytes = size;
    bytes_ -= size;
    post_dequeue();
    return h;
  }

  [[nodiscard]] std::size_t length_packets() const noexcept { return count_; }
  [[nodiscard]] std::int64_t length_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Hard buffer limit (admission policies reject beyond this).
  [[nodiscard]] std::size_t limit_packets() const noexcept { return limit_; }

  /// The pool the buffered handles belong to. The link layer attaches
  /// its simulation's shared pool at construction so handles pass
  /// through untouched; the pool must outlive the queue (it does
  /// whenever components die before their Simulator, the ordering every
  /// scenario driver uses). Only callable while empty — handles cannot
  /// migrate between pools.
  void attach_pool(PacketPool* pool) {
    if (pool != pool_ && count_ != 0) {
      throw sim::SimError(sim::SimErrc::kBadConfig, "Queue",
                          "attach_pool: queue must be empty (buffered "
                          "handles cannot migrate between pools)");
    }
    pool_ = pool;
  }

  [[nodiscard]] PacketPool* pool() const noexcept { return pool_; }

 protected:
  /// `limit_packets` is the buffer size including the packet currently
  /// being serialized; must be >= 1 (validated by implementations).
  /// The handle ring starts small and doubles as the buffer fills, so
  /// queues configured with pathological limits (a memory-bomb self-test
  /// uses 2^30) cost memory proportional to their actual occupancy,
  /// never their configured ceiling.
  explicit Queue(std::size_t limit_packets)
      : limit_(limit_packets),
        ring_(std::bit_ceil(
            std::clamp<std::size_t>(limit_packets, 1, kInitialRing))),
        mask_(ring_.size() - 1),
        grow_at_(std::min(limit_, ring_.size())) {}

  /// The admission policy: nullopt admits `p` (which may be mutated —
  /// ECN marking), a reason rejects it untouched. Called exactly once
  /// per enqueue.
  [[nodiscard]] virtual std::optional<DropReason> admit(Packet& p) = 0;

  /// Invoked after each successful dequeue (RED tracks when the buffer
  /// goes idle).
  virtual void post_dequeue() {}

 private:
  friend class Link;

  // enqueue(h) with `p` already looked up: `p` must be the pooled
  // packet behind `h`. Link's hop entry checks the handle once and
  // passes the reference on.
  [[nodiscard]] std::optional<DropReason> enqueue(PacketHandle h,
                                                  Packet& p) {
    auto reason = admit(p);
    if (reason.has_value()) return reason;
    store(h, p.size_bytes);
    return std::nullopt;
  }
  void store(PacketHandle h, std::int64_t size_bytes) {
    if (count_ >= grow_at_) grow();
    ring_[(head_ + count_) & mask_] = h;
    ++count_;
    bytes_ += size_bytes;
  }
  void grow() {
    // The admission policy rejects at limit_, whatever the ring's
    // power-of-two capacity; storing past it is a policy bug.
    if (count_ >= limit_) {
      throw sim::SimError(sim::SimErrc::kInvariantViolation, "Queue",
                          "store: buffer full past the admission limit");
    }
    // Doubling: O(log limit) growths over the queue's lifetime, after
    // which steady-state enqueue/dequeue is alloc-free. The ring stays
    // a power of two, so it never exceeds twice the limit.
    // slowcc-lint: allow(no-hot-path-alloc) amortized, bounded by limit
    std::vector<PacketHandle> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) & mask_];
    }
    ring_ = std::move(bigger);
    mask_ = ring_.size() - 1;
    grow_at_ = std::min(limit_, ring_.size());
    head_ = 0;
  }
  [[nodiscard]] PacketHandle take_front() noexcept {
    const PacketHandle h = ring_[head_];
    head_ = (head_ + 1) & mask_;
    --count_;
    return h;
  }
  [[nodiscard]] PacketPool& pool_ref() const {
    if (pool_ == nullptr) {
      throw sim::SimError(sim::SimErrc::kBadConfig, "Queue",
                          "no packet pool attached (call attach_pool)");
    }
    return *pool_;
  }

  // Circular FIFO of handles with a power-of-two capacity, indexed by
  // mask_; doubles as the buffer fills (grow_at_ is the occupancy that
  // triggers the next growth, capped at limit_), then steady-state
  // admission never grows anything.
  static constexpr std::size_t kInitialRing = 64;
  std::size_t limit_;
  std::vector<PacketHandle> ring_;
  std::size_t mask_;
  std::size_t grow_at_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
  PacketPool* pool_ = nullptr;
};

}  // namespace slowcc::net
