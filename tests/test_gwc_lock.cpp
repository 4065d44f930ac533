#include "sync/gwc_lock.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"
#include "simkern/random.hpp"

namespace optsync::sync {
namespace {

using dsm::DsmConfig;
using dsm::DsmSystem;
using dsm::GroupId;
using dsm::VarId;
using dsm::Word;
using net::NodeId;

struct Fixture {
  explicit Fixture(std::size_t n, NodeId root = 0)
      : topo(net::MeshTorus2D::near_square(n)), sys(sched, topo, DsmConfig{}) {
    std::vector<NodeId> members;
    for (NodeId i = 0; i < n; ++i) members.push_back(i);
    group = sys.create_group(members, root);
    lock_var = sys.define_lock("L", group);
  }
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  DsmSystem sys;
  GroupId group = 0;
  VarId lock_var = 0;
};

sim::Process acquire_release(Fixture& f, GwcQueueLock& lk, NodeId n,
                             sim::Duration hold, int* active,
                             int* max_active) {
  co_await lk.acquire(n).join();
  *active += 1;
  *max_active = std::max(*max_active, *active);
  co_await sim::delay(f.sched, hold);
  *active -= 1;
  lk.release(n);
}

TEST(GwcQueueLock, SingleAcquireRelease) {
  Fixture f(4);
  GwcQueueLock lk(f.sys, f.lock_var);
  int active = 0, max_active = 0;
  auto p = acquire_release(f, lk, 2, 1000, &active, &max_active);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(p.done());
  EXPECT_EQ(lk.stats().acquisitions, 1u);
  EXPECT_EQ(lk.stats().releases, 1u);
  EXPECT_EQ(max_active, 1);
}

TEST(GwcQueueLock, MutualExclusionUnderContention) {
  Fixture f(9);
  GwcQueueLock lk(f.sys, f.lock_var);
  int active = 0, max_active = 0;
  std::vector<sim::Process> procs;
  for (NodeId n = 0; n < 9; ++n) {
    procs.push_back(acquire_release(f, lk, n, 500, &active, &max_active));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  EXPECT_EQ(max_active, 1);  // never two holders
  EXPECT_EQ(lk.stats().acquisitions, 9u);
}

TEST(GwcQueueLock, GrantWithinOneRoundTripOfFree) {
  // "A processor always receives exclusive access within one or one half
  // round-trip time of the lock being freed."
  Fixture f(16, /*root=*/0);
  GwcQueueLock lk(f.sys, f.lock_var);
  const NodeId holder = 1, waiter = 15;

  sim::Time released_at = 0;
  sim::Time granted_at = 0;
  auto p1 = [](Fixture& fx, GwcQueueLock& lock, NodeId n, sim::Time* rel)
      -> sim::Process {
    co_await lock.acquire(n).join();
    co_await sim::delay(fx.sched, 10'000);
    *rel = fx.sched.now();
    lock.release(n);
  }(f, lk, holder, &released_at);
  auto p2 = [](Fixture& fx, GwcQueueLock& lock, NodeId n, sim::Time* got)
      -> sim::Process {
    co_await sim::delay(fx.sched, 2'000);  // request while p1 holds
    co_await lock.acquire(n).join();
    *got = fx.sched.now();
    lock.release(n);
  }(f, lk, waiter, &granted_at);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();

  // Upper bound: release travels waiter->root is irrelevant; the grant takes
  // holder->root (release) + root->waiter (grant) plus bookkeeping.
  const auto& grp = f.sys.group(f.group);
  const auto& link = f.sys.config().link;
  const sim::Duration bound =
      link.delay(grp.up_hops(holder), f.sys.config().lock_bytes) +
      link.delay(grp.down_hops(waiter), f.sys.config().lock_bytes) +
      2 * f.sys.config().root_process_ns + 100;
  EXPECT_LE(granted_at - released_at, bound);
}

TEST(GwcQueueLock, FifoGrantOrder) {
  Fixture f(8);
  GwcQueueLock lk(f.sys, f.lock_var);
  std::vector<NodeId> grant_order;
  std::vector<sim::Process> procs;
  auto worker = [&f, &lk, &grant_order](NodeId n,
                                        sim::Duration start) -> sim::Process {
    co_await sim::delay(f.sched, start);
    co_await lk.acquire(n).join();
    grant_order.push_back(n);
    co_await sim::delay(f.sched, 300);
    lk.release(n);
  };
  // Stagger requests far enough apart that arrival order at the root is the
  // request order (all at least one max-RTT apart).
  for (NodeId n = 0; n < 8; ++n) {
    procs.push_back(worker(n, static_cast<sim::Duration>(n) * 10'000));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  ASSERT_EQ(grant_order.size(), 8u);
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(grant_order[n], n);
}

TEST(GwcQueueLock, ThreeMessagesPerUncontendedCycle) {
  // "There is no network traffic except three one-way messages to request,
  // grant, and release the lock" — plus the grant/free multicasts to the
  // other members, which is the eagersharing of the lock value itself.
  Fixture f(2, /*root=*/0);
  GwcQueueLock lk(f.sys, f.lock_var);
  int active = 0, max_active = 0;
  auto p = acquire_release(f, lk, 1, 100, &active, &max_active);
  f.sched.run();
  p.rethrow_if_failed();
  // request(1->0), grant multicast (2 members), release(1->0),
  // free multicast (2 members) = 6 messages on a 2-node group.
  EXPECT_EQ(f.sys.network().stats().messages, 6u);
}

TEST(GwcQueueLock, ReleaseWithoutHoldRejected) {
  Fixture f(4);
  GwcQueueLock lk(f.sys, f.lock_var);
  EXPECT_THROW(lk.release(2), ContractViolation);
}

TEST(GwcQueueLock, HeldByReflectsLocalCopy) {
  Fixture f(4);
  GwcQueueLock lk(f.sys, f.lock_var);
  EXPECT_FALSE(lk.held_by(1));
  auto p = [](GwcQueueLock& lock) -> sim::Process {
    co_await lock.acquire(1).join();
    EXPECT_TRUE(lock.held_by(1));
    EXPECT_FALSE(lock.held_by(2));
    lock.release(1);
  }(lk);
  f.sched.run();
  p.rethrow_if_failed();
}

TEST(GwcQueueLock, NestedAcquireThrowsSynchronously) {
  // Validation runs before the coroutine starts: a nested request throws to
  // the caller instead of coming back as a failed Process.
  Fixture f(4);
  GwcQueueLock lk(f.sys, f.lock_var);
  auto p = lk.acquire(1);
  f.sched.run();
  p.rethrow_if_failed();
  ASSERT_TRUE(lk.held_by(1));
  EXPECT_THROW((void)lk.acquire(1), ContractViolation);
  EXPECT_TRUE(lk.held_by(1));  // the held lock was not re-requested
  EXPECT_EQ(lk.stats().acquisitions, 1u);
  lk.release(1);
  f.sched.run();
}

TEST(GwcQueueLock, WaitStatsTracked) {
  Fixture f(4);
  GwcQueueLock lk(f.sys, f.lock_var);
  int active = 0, max_active = 0;
  std::vector<sim::Process> procs;
  for (NodeId n = 0; n < 4; ++n) {
    procs.push_back(acquire_release(f, lk, n, 2'000, &active, &max_active));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  EXPECT_GT(lk.stats().total_wait_ns, 0u);
  EXPECT_GE(lk.stats().max_wait_ns, 6'000u);  // last waiter sat through 3 holds
}

class GwcLockStress : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GwcLockStress, RepeatedCyclesStayExclusive) {
  const std::size_t n = GetParam();
  Fixture f(n);
  GwcQueueLock lk(f.sys, f.lock_var);
  int active = 0, max_active = 0;
  std::uint64_t completed = 0;
  sim::Rng rng(n * 131);

  auto worker = [&](NodeId me, std::uint64_t seed) -> sim::Process {
    sim::Rng local(seed);
    for (int k = 0; k < 12; ++k) {
      co_await sim::delay(f.sched, local.below(5'000));
      co_await lk.acquire(me).join();
      active += 1;
      max_active = std::max(max_active, active);
      co_await sim::delay(f.sched, 200 + local.below(600));
      active -= 1;
      lk.release(me);
      ++completed;
    }
  };
  std::vector<sim::Process> procs;
  for (NodeId i = 0; i < n; ++i) procs.push_back(worker(i, rng.next()));
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  EXPECT_EQ(max_active, 1);
  EXPECT_EQ(completed, n * 12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GwcLockStress,
                         ::testing::Values(std::size_t{2}, std::size_t{5},
                                           std::size_t{9}, std::size_t{16}));

}  // namespace
}  // namespace optsync::sync
