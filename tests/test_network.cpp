#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace optsync::net {
namespace {

TEST(LinkModel, PaperConstants) {
  const auto link = LinkModel::paper();
  EXPECT_EQ(link.hop_latency_ns, 200u);
  EXPECT_EQ(link.ns_per_byte, 8u);  // 1 Gbit/s
  // 3 hops, 16 bytes: 3*200 + 16*8 = 728 ns.
  EXPECT_EQ(link.delay(3, 16), 728u);
}

TEST(LinkModel, ZeroModelIsFree) {
  const auto link = LinkModel::zero();
  EXPECT_EQ(link.delay(10, 1000), 0u);
}

TEST(LinkModel, SelfDeliveryPaysSerializationOnly) {
  const auto link = LinkModel::paper();
  EXPECT_EQ(link.delay(0, 16), 128u);
}

TEST(CpuModel, PaperConstants) {
  const auto cpu = CpuModel::paper();
  // 33 flops at 33 MFLOPS = 1 us.
  EXPECT_EQ(cpu.flops_time(33), 1'000u);
  // 400 bytes at 400 MB/s = 1 us.
  EXPECT_EQ(cpu.mem_time(400), 1'000u);
}

TEST(Network, DeliversAfterModelDelay) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  sim::Time delivered_at = 0;
  net.send(0, 3, 16, "test", [&] { delivered_at = sched.now(); });
  sched.run();
  // 0 -> 3 on a 2x2 torus is 2 hops: 2*200 + 16*8 = 528.
  EXPECT_EQ(delivered_at, 528u);
  EXPECT_EQ(net.latency(0, 3, 16), 528u);
}

TEST(Network, ExplicitHopsOverrideShortestPath) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  sim::Time delivered_at = 0;
  net.send_hops(0, 3, 5, 16, "test", [&] { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, 5u * 200 + 128);
}

TEST(Network, StatsAccumulate) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  net.send(0, 1, 16, "a", [] {});
  net.send(0, 3, 32, "b", [] {});
  sched.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 48u);
  EXPECT_EQ(net.stats().hop_bytes, 16u * 1 + 32u * 2);
}

TEST(Network, FifoBetweenSamePair) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net.send(0, 1, 16, "m", [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Network, TraceHookSeesEveryDelivery) {
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::paper());
  std::vector<MessageTrace> traces;
  net.add_trace_observer(
      [&](const MessageTrace& t) { traces.push_back(t); });
  net.send(1, 2, 24, "hello", [] {});
  sched.run();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].src, 1u);
  EXPECT_EQ(traces[0].dst, 2u);
  EXPECT_EQ(traces[0].bytes, 24u);
  EXPECT_EQ(traces[0].tag, "hello");
  EXPECT_EQ(traces[0].sent_at, 0u);
  EXPECT_GT(traces[0].delivered_at, 0u);
}

TEST(Network, ZeroDelayStillAsynchronous) {
  // Even with zero latency, delivery happens via a scheduler event — the
  // callback must not run inline during send().
  sim::Scheduler sched;
  const MeshTorus2D topo(2, 2);
  Network net(sched, topo, LinkModel::zero());
  bool delivered = false;
  net.send(0, 1, 16, "m", [&] { delivered = true; });
  EXPECT_FALSE(delivered);
  sched.run();
  EXPECT_TRUE(delivered);
}

}  // namespace
}  // namespace optsync::net
