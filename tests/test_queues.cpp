#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "net/drop_tail_queue.hpp"
#include "net/packet_pool.hpp"
#include "net/red_queue.hpp"
#include "queue_values.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

using test::dequeue_value;
using test::enqueue_value;

Packet make_packet(std::int64_t seq = 0, std::int64_t size = 1000) {
  Packet p;
  p.seq = seq;
  p.size_bytes = size;
  return p;
}

TEST(DropTail, FifoOrder) {
  PacketPool pool;
  DropTailQueue q(10);
  q.attach_pool(&pool);
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(enqueue_value(q, make_packet(i)));
  for (int i = 0; i < 5; ++i) {
    auto p = dequeue_value(q);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(dequeue_value(q).has_value());
}

TEST(DropTail, OverflowDropsExactlyAtLimit) {
  PacketPool pool;
  DropTailQueue q(3);
  q.attach_pool(&pool);
  EXPECT_FALSE(enqueue_value(q, make_packet(0)));
  EXPECT_FALSE(enqueue_value(q, make_packet(1)));
  EXPECT_FALSE(enqueue_value(q, make_packet(2)));
  auto reason = enqueue_value(q, make_packet(3));
  ASSERT_TRUE(reason.has_value());
  EXPECT_EQ(*reason, DropReason::kOverflow);
  EXPECT_EQ(q.length_packets(), 3u);
}

TEST(DropTail, ByteAccounting) {
  PacketPool pool;
  DropTailQueue q(10);
  q.attach_pool(&pool);
  ASSERT_FALSE(enqueue_value(q, make_packet(0, 100)));
  ASSERT_FALSE(enqueue_value(q, make_packet(1, 250)));
  EXPECT_EQ(q.length_bytes(), 350);
  (void)dequeue_value(q);
  EXPECT_EQ(q.length_bytes(), 250);
}

TEST(DropTail, RejectedPacketComesBackIntact) {
  PacketPool pool;
  DropTailQueue q(1);
  q.attach_pool(&pool);
  ASSERT_FALSE(enqueue_value(q, make_packet(0)));
  const Packet p = make_packet(7, 640);
  EXPECT_EQ(enqueue_value(q, p), DropReason::kOverflow);
  EXPECT_EQ(p.seq, 7);
  EXPECT_EQ(p.size_bytes, 640);
  EXPECT_EQ(pool.live(), 1u) << "the rejected packet left the pool";
}

TEST(Queue, UseBeforeAttachPoolIsABadConfig) {
  DropTailQueue q(4);
  PacketPool pool;
  const PacketHandle h = pool.acquire(make_packet(0)).handle;
  try {
    (void)q.enqueue(h);
    FAIL() << "enqueue without a pool must throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadConfig);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)enqueue_value(q, make_packet(1)), sim::SimError);
  pool.release(h);
}

TEST(DropTail, ZeroLimitRejected) {
  EXPECT_THROW(DropTailQueue q(0), std::invalid_argument);
}

RedConfig small_red() {
  RedConfig cfg;
  cfg.limit_packets = 100;
  cfg.min_thresh = 5;
  cfg.max_thresh = 15;
  cfg.weight = 0.5;  // fast-moving average for deterministic tests
  return cfg;
}

TEST(Red, NoDropsWhileAverageBelowMinThresh) {
  sim::Simulator sim;
  RedQueue q(sim, small_red());
  q.attach_pool(&PacketPool::of(sim));
  // Enqueue/dequeue alternating keeps the queue length at 0-1.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(enqueue_value(q, make_packet(i)).has_value());
    (void)dequeue_value(q);
  }
}

TEST(Red, HardLimitAlwaysDrops) {
  sim::Simulator sim;
  RedConfig cfg = small_red();
  cfg.limit_packets = 10;
  RedQueue q(sim, cfg);
  q.attach_pool(&PacketPool::of(sim));
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    if (!enqueue_value(q, make_packet(i))) ++accepted;
  }
  EXPECT_LE(accepted, 10);
  EXPECT_EQ(q.length_packets(), static_cast<std::size_t>(accepted));
}

TEST(Red, SustainedOverloadTriggersEarlyDrops) {
  sim::Simulator sim;
  RedQueue q(sim, small_red());
  q.attach_pool(&PacketPool::of(sim));
  int early = 0;
  for (int i = 0; i < 80; ++i) {
    auto r = enqueue_value(q, make_packet(i));
    if (r == DropReason::kEarly) ++early;
  }
  EXPECT_GT(early, 0) << "average queue well above max_thresh must drop";
}

TEST(Red, AverageTracksQueue) {
  sim::Simulator sim;
  RedQueue q(sim, small_red());
  q.attach_pool(&PacketPool::of(sim));
  for (int i = 0; i < 20; ++i) (void)enqueue_value(q, make_packet(i));
  EXPECT_GT(q.average_queue(), 5.0);
}

TEST(Red, IdlePeriodDecaysAverage) {
  sim::Simulator sim;
  RedQueue q(sim, small_red());
  q.attach_pool(&PacketPool::of(sim));
  for (int i = 0; i < 20; ++i) (void)enqueue_value(q, make_packet(i));
  while (dequeue_value(q).has_value()) {
  }
  const double avg_before = q.average_queue();
  // Let simulated time pass while the queue sits empty.
  sim.schedule_at(sim::Time::seconds(10.0), [] {});
  sim.run();
  (void)enqueue_value(q, make_packet(99));
  EXPECT_LT(q.average_queue(), avg_before * 0.5);
}

TEST(Red, EcnMarksInsteadOfDroppingWhenEnabled) {
  sim::Simulator sim;
  RedConfig cfg = small_red();
  cfg.ecn_marking = true;
  RedQueue q(sim, cfg);
  q.attach_pool(&PacketPool::of(sim));
  int marked = 0;
  int dropped = 0;
  for (int i = 0; i < 80; ++i) {
    Packet p = make_packet(i);
    p.ecn_capable = true;
    if (enqueue_value(q, std::move(p)).has_value()) ++dropped;
  }
  while (auto p = dequeue_value(q)) {
    if (p->ecn_marked) ++marked;
  }
  EXPECT_GT(marked, 0);
  EXPECT_EQ(dropped, 0) << "ECN-capable packets are marked, not early-dropped";
}

TEST(Red, NonEcnPacketsStillDropWithMarkingEnabled) {
  sim::Simulator sim;
  RedConfig cfg = small_red();
  cfg.ecn_marking = true;
  RedQueue q(sim, cfg);
  q.attach_pool(&PacketPool::of(sim));
  int dropped = 0;
  for (int i = 0; i < 80; ++i) {
    if (enqueue_value(q, make_packet(i)).has_value()) ++dropped;
  }
  EXPECT_GT(dropped, 0);
}

TEST(Red, ForBdpUsesPaperMultipliers) {
  const RedConfig cfg = RedConfig::for_bdp(62.5);
  EXPECT_DOUBLE_EQ(cfg.min_thresh, 0.25 * 62.5);
  EXPECT_DOUBLE_EQ(cfg.max_thresh, 1.25 * 62.5);
  EXPECT_EQ(cfg.limit_packets, static_cast<std::size_t>(2.5 * 62.5));
}

TEST(Red, RejectsBadConfig) {
  sim::Simulator sim;
  RedConfig cfg = small_red();
  cfg.min_thresh = 20;  // >= max_thresh
  EXPECT_THROW(RedQueue(sim, cfg), std::invalid_argument);
  cfg = small_red();
  cfg.max_p = 0.0;
  EXPECT_THROW(RedQueue(sim, cfg), std::invalid_argument);
  cfg = small_red();
  cfg.limit_packets = 0;
  EXPECT_THROW(RedQueue(sim, cfg), std::invalid_argument);
}

TEST(Red, DeterministicForSameSeed) {
  sim::Simulator sim;
  auto run = [&](std::uint64_t seed) {
    RedConfig cfg = small_red();
    cfg.seed = seed;
    RedQueue q(sim, cfg);
    q.attach_pool(&PacketPool::of(sim));
    std::vector<bool> outcome;
    for (int i = 0; i < 60; ++i) {
      outcome.push_back(enqueue_value(q, make_packet(i)).has_value());
    }
    return outcome;
  };
  EXPECT_EQ(run(5), run(5));
}

// The handle ring has a power-of-two capacity indexed by a mask; these
// limits are not powers of two, so admission must still stop exactly
// at the configured limit while the ring grows and wraps underneath.
class RingAtLimit
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {
 protected:
  std::unique_ptr<Queue> make(sim::Simulator& sim) const {
    const auto [red, limit] = GetParam();
    std::unique_ptr<Queue> q;
    if (!red) {
      q = std::make_unique<DropTailQueue>(limit);
    } else {
      RedConfig cfg;
      cfg.limit_packets = limit;
      // Thresholds past the limit: the average never reaches them, so
      // only the hard limit rejects.
      cfg.min_thresh = 2.0 * static_cast<double>(limit);
      cfg.max_thresh = 3.0 * static_cast<double>(limit);
      q = std::make_unique<RedQueue>(sim, cfg);
    }
    q->attach_pool(&PacketPool::of(sim));
    return q;
  }
};

TEST_P(RingAtLimit, RejectsAtLimitAndKeepsFifoAcrossGrowthAndWrap) {
  const std::size_t limit = std::get<1>(GetParam());
  sim::Simulator sim;
  const sim::ResourceGovernor& gov = sim.governor();
  auto q = make(sim);
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  std::int64_t bytes = 0;
  auto size_of = [](std::int64_t seq) { return 40 + (seq * 37) % 1461; };
  auto push = [&] {
    const std::int64_t size = size_of(next_in);
    ASSERT_FALSE(enqueue_value(*q, make_packet(next_in, size)).has_value())
        << "seq " << next_in << " at length " << q->length_packets();
    ++next_in;
    bytes += size;
  };
  auto pop = [&] {
    auto p = dequeue_value(*q);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, next_out);
    EXPECT_EQ(p->size_bytes, size_of(next_out));
    ++next_out;
    bytes -= p->size_bytes;
  };
  auto expect_full = [&] {
    EXPECT_EQ(q->length_packets(), limit);
    EXPECT_EQ(enqueue_value(*q, make_packet(-1)), DropReason::kOverflow);
    EXPECT_EQ(q->length_packets(), limit);
  };
  // Advance the head a little, then grow with the head off slot 0, so
  // growth re-lays a wrapped ring.
  for (int i = 0; i < 7; ++i) push();
  for (int i = 0; i < 5; ++i) pop();
  while (q->length_packets() < limit) push();
  expect_full();
  // Steady state at the limit: each pop frees exactly one slot, and
  // the head laps the ring several times.
  for (std::size_t round = 0; round < 3 * limit + 5; ++round) {
    pop();
    push();
    ASSERT_EQ(q->length_packets(), limit);
    EXPECT_EQ(q->length_bytes(), bytes);
  }
  expect_full();
  EXPECT_EQ(gov.live_packets(), limit);
  EXPECT_EQ(gov.queued_bytes(), static_cast<std::uint64_t>(bytes));
  while (!q->empty()) pop();
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q->length_bytes(), 0);
  EXPECT_EQ(bytes, 0);
  EXPECT_EQ(gov.live_packets(), 0u);
  EXPECT_EQ(gov.queued_bytes(), 0u);
  EXPECT_FALSE(dequeue_value(*q).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    NonPowerOfTwoLimits, RingAtLimit,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(std::size_t{50}, std::size_t{100},
                                         std::size_t{1000})),
    [](const ::testing::TestParamInfo<RingAtLimit::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "Red" : "DropTail") +
             std::to_string(std::get<1>(info.param));
    });

TEST(Queue, DequeueHandleReportsTheSizeItRead) {
  PacketPool pool;
  DropTailQueue q(4);
  q.attach_pool(&pool);
  ASSERT_FALSE(enqueue_value(q, make_packet(0, 321)).has_value());
  std::int64_t size = 0;
  const PacketHandle h = q.dequeue_handle(&size);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(size, 321);
  EXPECT_EQ(q.pool()->get(h).size_bytes, 321);
  q.pool()->release(h);
  size = -1;
  EXPECT_FALSE(q.dequeue_handle(&size).valid());
  EXPECT_EQ(size, -1) << "an empty dequeue leaves the out-parameter alone";
}

}  // namespace
}  // namespace slowcc::net
