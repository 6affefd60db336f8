// Engine micro-benchmarks (google-benchmark): raw event throughput,
// queue disciplines, link forwarding, and a full dumbbell in flight.
#include <benchmark/benchmark.h>

#include "net/drop_tail_queue.hpp"
#include "net/packet_pool.hpp"
#include "net/red_queue.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr_source.hpp"

using namespace slowcc;

static void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(sim::Time::micros(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(q.schedule(sim::Time::micros(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) (void)q.pop(nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// The queue benches cycle one pooled handle through the queue, the way
// net::Link drives it: no packet is copied or moved per iteration.
static void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  net::PacketPool pool;
  net::DropTailQueue q(64);
  q.attach_pool(&pool);
  const net::PacketHandle h = pool.acquire(net::Packet{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue(h));
    benchmark::DoNotOptimize(q.dequeue_handle());
  }
  pool.release(h);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

static void BM_RedEnqueueDequeue(benchmark::State& state) {
  sim::Simulator sim;
  net::RedConfig cfg;
  cfg.limit_packets = 64;
  cfg.min_thresh = 5;
  cfg.max_thresh = 15;
  net::RedQueue q(sim, cfg);
  net::PacketPool& pool = net::PacketPool::of(sim);
  q.attach_pool(&pool);
  const net::PacketHandle h = pool.acquire(net::Packet{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue(h));
    benchmark::DoNotOptimize(q.dequeue_handle());
  }
  pool.release(h);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

static void BM_DumbbellTcpSecond(benchmark::State& state) {
  // Cost of simulating one second of a loaded dumbbell (10 TCP flows at
  // 10 Mb/s): the workhorse configuration of every experiment.
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    scenario::DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    scenario::Dumbbell net(sim, cfg);
    for (int i = 0; i < 10; ++i) net.add_flow(scenario::FlowSpec::tcp());
    net.start_flows();
    net.finalize();
    sim.run_until(sim::Time::seconds(1.0));
    events += static_cast<std::int64_t>(sim.events_executed());
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_DumbbellTcpSecond)->Unit(benchmark::kMillisecond);

static void BM_DumbbellTfrcSecond(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    scenario::DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    scenario::Dumbbell net(sim, cfg);
    for (int i = 0; i < 10; ++i) net.add_flow(scenario::FlowSpec::tfrc(6));
    net.start_flows();
    net.finalize();
    sim.run_until(sim::Time::seconds(1.0));
    events += static_cast<std::int64_t>(sim.events_executed());
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_DumbbellTfrcSecond)->Unit(benchmark::kMillisecond);

// Packet hot-path macro-bench: the paper's dumbbell with flash-crowd
// bursts keeping the bottleneck queue full, so back-to-back departures
// dominate the event stream — the regime the shared lanes and pool
// handles are built for. Every executed event is a link transmit or
// delivery (bursts are injected between run_until slices, not via
// per-packet source timers, so source-model overhead does not dilute
// the packet path being measured). Items are executed events, so
// items_per_second is its events/s.
static void BM_SaturatedDumbbell(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    scenario::DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    cfg.red = false;  // DropTail: bursts fit the buffer, no early drops
    scenario::Dumbbell bed(sim, cfg);
    // Unstarted CBR pair: just a routed source/sink host on each side.
    const scenario::Dumbbell::CbrPair endpoints = bed.add_cbr_pair(1e6);
    bed.finalize();
    const net::NodeId dst = endpoints.sink->local_node().id();
    const net::PortId port = endpoints.sink->local_port();
    // 64 packets x 1000 B at 10 Mb/s = 51.2 ms per burst drain.
    std::int64_t seq = 0;
    for (int burst = 0; burst < 48; ++burst) {
      for (int i = 0; i < 64; ++i) {
        net::Packet p;
        p.src_node = bed.left_router().id();
        p.dst_node = dst;
        p.dst_port = port;
        p.seq = seq++;
        p.size_bytes = 1000;
        bed.bottleneck().send(std::move(p));
      }
      sim.run_until(sim::Time::millis(52) * (burst + 1));
    }
    sim.run();
    events += static_cast<std::int64_t>(sim.events_executed());
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SaturatedDumbbell)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
