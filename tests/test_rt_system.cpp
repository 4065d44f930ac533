#include "rt/rt_group.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "simkern/assert.hpp"

namespace optsync::rt {
namespace {

RtSystem::Config small(std::size_t n) {
  RtSystem::Config cfg;
  cfg.nodes = n;
  return cfg;
}

TEST(RtSystem, WritePropagatesToAllNodes) {
  RtSystem sys(small(4));
  const auto d = sys.define_data("d");
  sys.write(1, d, 42);
  sys.quiesce();
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(sys.read(n, d), 42);
}

TEST(RtSystem, LocksInitializeFree) {
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(sys.read(n, l), kLockFree);
}

TEST(RtSystem, LockRequestGrantRelease) {
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  sys.write(1, l, dsm::lock_request_value(1));
  sys.wait_until(1, l, [](Word v) { return dsm::lock_granted_to(v, 1); });
  sys.write(1, l, kLockFree);
  sys.wait_until(2, l, [](Word v) { return v == kLockFree; });
  sys.quiesce();
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(sys.read(n, l), kLockFree);
}

TEST(RtSystem, QueuedRequesterGetsGrantAfterRelease) {
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  sys.write(0, l, dsm::lock_request_value(0));
  sys.wait_until(0, l, [](Word v) { return dsm::lock_granted_to(v, 0); });
  sys.write(2, l, dsm::lock_request_value(2));  // queued at the sequencer
  sys.write(0, l, kLockFree);
  sys.wait_until(2, l, [](Word v) { return dsm::lock_granted_to(v, 2); });
  sys.write(2, l, kLockFree);
  sys.quiesce();
}

TEST(RtSystem, SpeculativeWriteRefusedOnAHandoffGrant) {
  // The sequencer drives the same RootCore filter as the simulated root: a
  // write tagged speculative is refused from a holder granted by hand-off,
  // while the same holder's untagged writes are admitted.
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  const auto m = sys.define_mutex_data("m", l);
  sys.write(1, l, dsm::lock_request_value(1));
  sys.wait_until(1, l, [](Word v) { return dsm::lock_granted_to(v, 1); });
  sys.write(2, l, dsm::lock_request_value(2));  // queued
  sys.quiesce();
  sys.write(1, l, kLockFree);  // hand-off to node 2
  sys.wait_until(2, l, [](Word v) { return dsm::lock_granted_to(v, 2); });
  sys.begin_speculation(2, l);
  sys.write(2, m, 529);
  sys.quiesce();
  EXPECT_EQ(sys.stats().speculative_drops.load(), 1u);
  EXPECT_EQ(sys.read(0, m), 0);
  sys.end_speculation(2, l);
  sys.write(2, m, 530);
  sys.quiesce();
  EXPECT_EQ(sys.read(0, m), 530);
  sys.write(2, l, kLockFree);
  sys.quiesce();
}

TEST(RtSystem, RejectedLockWordsReachTheCallerNotTheSequencer) {
  // The sequencer decides with the same core as the simulated root, so a
  // holder's nested request and a release by a non-holder are contract
  // violations here too. They come back from quiesce() (the simulator's
  // run() throws them); the sequencer thread survives and keeps serving.
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  sys.write(1, l, dsm::lock_request_value(1));
  sys.wait_until(1, l, [](Word v) { return dsm::lock_granted_to(v, 1); });
  sys.write(1, l, dsm::lock_request_value(1));  // nested
  EXPECT_THROW(sys.quiesce(), ContractViolation);
  sys.write(2, l, kLockFree);  // not the holder
  EXPECT_THROW(sys.quiesce(), ContractViolation);
  sys.quiesce();  // the error was reported once
  sys.write(1, l, kLockFree);
  sys.quiesce();
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(sys.read(n, l), kLockFree);
}

TEST(RtSystem, GrantsAndFreeOriginateAtTheSequencer) {
  // As in the simulator, the root sequences grants and FREE as its own
  // writes: the origin is the sequencer, not the requester or releaser.
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  std::mutex mu;
  std::vector<NodeId> origins;
  sys.arm_interrupt(2, l, [&](VarId, Word, NodeId origin) {
    {
      std::lock_guard lk(mu);
      origins.push_back(origin);
    }
    sys.resume_insharing(2);
  });
  sys.write(0, l, dsm::lock_request_value(0));
  sys.quiesce();
  sys.write(0, l, kLockFree);
  sys.quiesce();
  sys.disarm_interrupt(2, l);
  const std::vector<NodeId> expected(2, RtSystem::kSequencer);
  EXPECT_EQ(origins, expected);
}

TEST(RtSystem, SpeculativeMutexWriteFiltered) {
  RtSystem sys(small(4));
  const auto l = sys.define_lock("l");
  const auto m = sys.define_mutex_data("m", l);
  sys.write(1, m, 77);  // nobody holds the lock
  sys.quiesce();
  EXPECT_EQ(sys.read(1, m), 77);  // local speculation visible locally
  EXPECT_EQ(sys.read(0, m), 0);   // invisible everywhere else
  EXPECT_EQ(sys.read(2, m), 0);
  EXPECT_GE(sys.stats().speculative_drops.load(), 1u);
}

TEST(RtSystem, HolderMutexWritePropagates) {
  RtSystem sys(small(4));
  const auto l = sys.define_lock("l");
  const auto m = sys.define_mutex_data("m", l);
  sys.write(2, l, dsm::lock_request_value(2));
  sys.wait_until(2, l, [](Word v) { return dsm::lock_granted_to(v, 2); });
  sys.write(2, m, 55);
  sys.quiesce();
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(sys.read(n, m), 55);
  EXPECT_GE(sys.stats().echoes_dropped.load(), 1u);  // writer's echo blocked
  sys.write(2, l, kLockFree);
  sys.quiesce();
}

TEST(RtSystem, SuspensionHoldsBackUpdates) {
  RtSystem sys(small(3));
  const auto d = sys.define_data("d");
  sys.suspend_insharing(2);
  sys.write(0, d, 9);
  // Everyone else applies it; node 2's applier is parked.
  sys.wait_until(1, d, [](Word v) { return v == 9; });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(sys.read(2, d), 0);
  sys.resume_insharing(2);
  sys.quiesce();
  EXPECT_EQ(sys.read(2, d), 9);
}

TEST(RtSystem, InterruptFiresOnAppliedLockChange) {
  RtSystem sys(small(3));
  const auto l = sys.define_lock("l");
  std::atomic<int> fires{0};
  std::atomic<Word> seen{0};
  sys.arm_interrupt(2, l, [&](VarId, Word value, NodeId) {
    fires.fetch_add(1);
    seen.store(value);
    sys.resume_insharing(2);
  });
  sys.write(0, l, dsm::lock_request_value(0));
  sys.wait_until(2, l, [](Word v) { return dsm::lock_granted_to(v, 0); });
  EXPECT_GE(fires.load(), 1);
  EXPECT_EQ(seen.load(), dsm::lock_grant_value(0));
  sys.disarm_interrupt(2, l);
  sys.write(0, l, kLockFree);
  sys.quiesce();
}

TEST(RtSystem, ConcurrentWritersConverge) {
  RtSystem sys(small(4));
  const auto d = sys.define_data("d");
  std::vector<std::thread> threads;
  for (NodeId n = 0; n < 4; ++n) {
    threads.emplace_back([&sys, n, d] {
      for (int k = 0; k < 200; ++k) {
        sys.write(n, d, static_cast<Word>(n) * 1000 + k);
      }
    });
  }
  for (auto& t : threads) t.join();
  sys.quiesce();
  // All nodes converged on the same (sequencer-chosen) final value.
  const Word v0 = sys.read(0, d);
  for (NodeId n = 1; n < 4; ++n) EXPECT_EQ(sys.read(n, d), v0);
  EXPECT_EQ(sys.stats().sequenced.load(), 800u);
}

TEST(RtSystem, AtomicExchangeReturnsPrevious) {
  RtSystem sys(small(2));
  const auto d = sys.define_data("d");
  sys.poke(0, d, 5);
  EXPECT_EQ(sys.atomic_exchange(0, d, 6), 5);
  sys.quiesce();
  EXPECT_EQ(sys.read(1, d), 6);
}

TEST(RtSystem, CleanShutdownWithPendingTraffic) {
  // Destructor must join all threads even with traffic still in queues.
  auto sys = std::make_unique<RtSystem>(small(8));
  const auto d = sys->define_data("d");
  for (NodeId n = 0; n < 8; ++n) sys->write(n, d, n);
  sys.reset();  // no deadlock, no crash
  SUCCEED();
}

}  // namespace
}  // namespace optsync::rt
