// Fault-injection layer: FaultPlan decisions, FaultInjector wiring, and the
// network-side counters/trace kinds the injector produces.
#include "faults/fault_injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_plan.hpp"
#include "net/network.hpp"

namespace optsync::faults {
namespace {

net::MessageMeta meta(net::NodeId src, net::NodeId dst, std::string_view tag,
                      sim::Time sent_at = 0, sim::Duration base_delay = 328) {
  return net::MessageMeta{src,     dst,        1,  16, tag,
                          sent_at, base_delay, net::DeliveryKind::kNormal};
}

TEST(FaultPlan, EmptyPlanLeavesEverythingAlone) {
  FaultPlan plan(1);
  EXPECT_TRUE(plan.empty());
  const auto act = plan.decide(meta(0, 1, "data-up"));
  EXPECT_FALSE(act.drop);
  EXPECT_EQ(act.duplicates, 0u);
  EXPECT_EQ(act.extra_delay, 0u);
}

TEST(FaultPlan, CertainDropAlwaysDrops) {
  FaultPlan plan(7);
  plan.drop(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(plan.decide(meta(0, 1, "anything")).drop);
  }
}

TEST(FaultPlan, TagPrefixSelectsMessages) {
  FaultPlan plan(7);
  plan.drop(1.0, "lock");
  EXPECT_TRUE(plan.decide(meta(0, 1, "lock-up")).drop);
  EXPECT_TRUE(plan.decide(meta(0, 1, "lock-down")).drop);
  EXPECT_FALSE(plan.decide(meta(0, 1, "data-up")).drop);
  EXPECT_FALSE(plan.decide(meta(0, 1, "rel-ack")).drop);
}

TEST(FaultPlan, SrcDstPredicatesSelectMessages) {
  FaultPlan plan(7);
  plan.drop(1.0, "", 2, kAnyNode);
  plan.drop(1.0, "", kAnyNode, 5);
  EXPECT_TRUE(plan.decide(meta(2, 9, "m")).drop);
  EXPECT_TRUE(plan.decide(meta(8, 5, "m")).drop);
  EXPECT_FALSE(plan.decide(meta(3, 4, "m")).drop);
}

TEST(FaultPlan, LoopbackIsNeverFaulted) {
  FaultPlan plan(7);
  plan.drop(1.0);
  plan.pause_node(3, 0, 1'000'000);
  const auto act = plan.decide(meta(3, 3, "self"));
  EXPECT_FALSE(act.drop);
  EXPECT_EQ(act.extra_delay, 0u);
}

TEST(FaultPlan, SameSeedReplaysIdenticalDecisions) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.drop(0.3).duplicate(0.2).delay(0.4, 1'000);
    std::vector<net::FaultAction> acts;
    for (int i = 0; i < 200; ++i) {
      acts.push_back(plan.decide(meta(0, 1, "m", static_cast<sim::Time>(i))));
    }
    return acts;
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  bool any_fault = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].drop, b[i].drop);
    EXPECT_EQ(a[i].duplicates, b[i].duplicates);
    EXPECT_EQ(a[i].extra_delay, b[i].extra_delay);
    any_fault = any_fault || a[i].drop || a[i].duplicates > 0;
  }
  EXPECT_TRUE(any_fault);
  // A different seed diverges somewhere in 200 draws.
  const auto c = run(43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].drop != c[i].drop ||
              a[i].extra_delay != c[i].extra_delay;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ReseedRestartsTheSchedule) {
  FaultPlan plan(9);
  plan.delay(1.0, 10'000);
  std::vector<sim::Duration> first;
  for (int i = 0; i < 10; ++i) {
    first.push_back(plan.decide(meta(0, 1, "m")).extra_delay);
  }
  plan.reseed(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plan.decide(meta(0, 1, "m")).extra_delay,
              first[static_cast<std::size_t>(i)]);
  }
}

TEST(FaultPlan, PartitionDropsOnlyInsideWindowBothDirections) {
  FaultPlan plan(1);
  plan.partition_link(2, 6, 1'000, 5'000);
  EXPECT_FALSE(plan.decide(meta(2, 6, "m", 999)).drop);
  EXPECT_TRUE(plan.decide(meta(2, 6, "m", 1'000)).drop);
  EXPECT_TRUE(plan.decide(meta(6, 2, "m", 4'999)).drop);
  EXPECT_FALSE(plan.decide(meta(2, 6, "m", 5'000)).drop);
  EXPECT_FALSE(plan.decide(meta(2, 7, "m", 2'000)).drop);  // other link
}

TEST(FaultPlan, PausedSourceHoldsTrafficUntilWindowEnd) {
  FaultPlan plan(1);
  plan.pause_node(1, 100, 500);
  // Sent at t=200 while paused: held until 500 (extra 300).
  EXPECT_EQ(plan.decide(meta(1, 0, "m", 200)).extra_delay, 300u);
  // Outside the window: untouched.
  EXPECT_EQ(plan.decide(meta(1, 0, "m", 600)).extra_delay, 0u);
}

TEST(FaultPlan, PausedDestinationDefersArrivalPastWindow) {
  FaultPlan plan(1);
  plan.pause_node(0, 100, 2'000);
  // Sent at t=0, base arrival 328 falls in the window: arrival moves to
  // 2'000, i.e. extra delay 1'672.
  EXPECT_EQ(plan.decide(meta(1, 0, "m", 0, 328)).extra_delay, 1'672u);
  // Arrival after the window: untouched.
  EXPECT_EQ(plan.decide(meta(1, 0, "m", 2'000, 328)).extra_delay, 0u);
}

TEST(FaultInjector, InstallsAndUninstallsTheHook) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo(2, 2);
  net::Network net(sched, topo, net::LinkModel::paper());
  EXPECT_FALSE(net.fault_hook_installed());
  {
    FaultPlan plan(1);
    plan.drop(1.0);
    FaultInjector inj(net, plan);
    EXPECT_TRUE(net.fault_hook_installed());
  }
  EXPECT_FALSE(net.fault_hook_installed());
}

TEST(FaultInjector, DropsAreCountedAndNeverDelivered) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo(2, 2);
  net::Network net(sched, topo, net::LinkModel::paper());
  FaultPlan plan(1);
  plan.drop(1.0, "doomed");
  FaultInjector inj(net, plan);

  std::vector<net::MessageTrace> traces;
  net.add_trace_observer(
      [&](const net::MessageTrace& t) { traces.push_back(t); });

  int doomed = 0;
  int safe = 0;
  net.send(0, 1, 16, "doomed", [&] { ++doomed; });
  net.send(0, 1, 16, "safe", [&] { ++safe; });
  sched.run();

  EXPECT_EQ(doomed, 0);
  EXPECT_EQ(safe, 1);
  EXPECT_EQ(net.stats().drops_injected, 1u);
  ASSERT_EQ(traces.size(), 2u);
  // The drop is traced at send time with the would-have-arrived timestamp.
  EXPECT_EQ(traces[0].kind, net::DeliveryKind::kInjectedDrop);
  EXPECT_EQ(traces[0].tag, "doomed");
  EXPECT_GT(traces[0].delivered_at, traces[0].sent_at);
  EXPECT_EQ(traces[1].kind, net::DeliveryKind::kNormal);
}

TEST(FaultInjector, DuplicatesDeliverTwiceAndAreCounted) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo(2, 2);
  net::Network net(sched, topo, net::LinkModel::paper());
  FaultPlan plan(1);
  plan.duplicate(1.0);
  FaultInjector inj(net, plan);

  std::vector<net::DeliveryKind> kinds;
  net.add_trace_observer(
      [&](const net::MessageTrace& t) { kinds.push_back(t.kind); });

  int delivered = 0;
  net.send(0, 1, 16, "m", [&] { ++delivered; });
  sched.run();

  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().dups_injected, 1u);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], net::DeliveryKind::kNormal);
  EXPECT_EQ(kinds[1], net::DeliveryKind::kDuplicate);
}

TEST(FaultInjector, InjectedDelayBreaksFifoAndIsCounted) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo(2, 2);
  net::Network net(sched, topo, net::LinkModel::paper());
  FaultPlan plan(1);
  // Delay only the "slow" message by a fixed-ish jitter far larger than the
  // base latency, so the later "fast" send overtakes it.
  plan.add_rule(MessageFaultRule{"slow", kAnyNode, kAnyNode, 0.0, 0.0, 1.0,
                                 100'000});
  FaultInjector inj(net, plan);

  std::vector<std::string> order;
  net.send(0, 1, 16, "slow", [&] { order.push_back("slow"); });
  net.send(0, 1, 16, "fast", [&] { order.push_back("fast"); });
  sched.run();

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(net.stats().delays_injected, 1u);
  EXPECT_GT(net.stats().max_extra_delay_ns, 0u);
  // Overtaking is probabilistic in the jitter draw but overwhelmingly likely
  // with a 100 us bound vs a 328 ns base delay; assert on the counters and
  // accept either order only if the draw landed tiny.
  if (net.stats().max_extra_delay_ns > 1'000) {
    EXPECT_EQ(order[0], "fast");
    EXPECT_EQ(order[1], "slow");
  }
}

}  // namespace
}  // namespace optsync::faults
