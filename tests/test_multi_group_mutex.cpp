// Mutual exclusion across multiple sharing groups (paper §2): the ordered
// multi-lock acquisition, sync::acquire_ordered / release_ordered, and the
// OCC commit that takes its locks through it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simkern/assert.hpp"
#include "simkern/random.hpp"
#include "sync/gwc_lock.hpp"
#include "telemetry/journal.hpp"
#include "txn/txn.hpp"

namespace optsync::sync {
namespace {

// Two overlapping groups on one mesh; nodes in the overlap update data from
// both groups under cross-group mutual exclusion.
struct Fixture {
  explicit Fixture(telemetry::Journal* journal = nullptr)
      : topo(net::MeshTorus2D::near_square(12)),
        sys(sched, topo, config(journal)) {
    ga = sys.create_group({0, 1, 2, 3, 4, 5, 6, 7}, 0);
    gb = sys.create_group({4, 5, 6, 7, 8, 9, 10, 11}, 11);
    la = sys.define_lock("la", ga);
    lb = sys.define_lock("lb", gb);
    da = sys.define_mutex_data("da", ga, la, 0);
    db = sys.define_mutex_data("db", gb, lb, 0);
  }
  static dsm::DsmConfig config(telemetry::Journal* journal) {
    dsm::DsmConfig cfg;
    cfg.journal = journal;
    return cfg;
  }
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  dsm::GroupId ga = 0, gb = 0;
  dsm::VarId la = 0, lb = 0, da = 0, db = 0;
};

sim::Process cross_update(Fixture& f, dsm::NodeId n, int count,
                          std::uint64_t seed, int* active, int* max_active) {
  sim::Rng rng(seed);
  auto& node = f.sys.node(n);
  std::vector<dsm::VarId> locks{f.la, f.lb};
  for (int k = 0; k < count; ++k) {
    co_await sim::delay(f.sched, rng.below(4'000));
    co_await acquire_ordered(f.sys, &locks, n).join();
    *active += 1;
    *max_active = std::max(*max_active, *active);
    const dsm::Word a = node.read(f.da);
    const dsm::Word b = node.read(f.db);
    co_await sim::delay(f.sched, 500);
    node.write(f.da, a + 1);
    node.write(f.db, b + 1);
    *active -= 1;
    release_ordered(f.sys, locks, n);
  }
}

TEST(OrderedAcquire, SingleHolderAcrossGroups) {
  Fixture f;
  int active = 0, max_active = 0;
  std::vector<sim::Process> procs;
  // Only overlap nodes (members of both groups) may take both locks.
  for (const dsm::NodeId n : {4u, 5u, 6u, 7u}) {
    procs.push_back(cross_update(f, n, 8, n * 11 + 1, &active, &max_active));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  EXPECT_EQ(max_active, 1);
  // 4 nodes x 8 updates on both variables, atomically.
  EXPECT_EQ(f.sys.node(4).read(f.da), 32);
  EXPECT_EQ(f.sys.node(4).read(f.db), 32);
  // Consistency on non-overlap members too.
  EXPECT_EQ(f.sys.node(0).read(f.da), 32);
  EXPECT_EQ(f.sys.node(11).read(f.db), 32);
}

TEST(OrderedAcquire, CrossGroupInvariantPreserved) {
  // da and db are always updated together; any reader holding both locks
  // must observe da == db.
  Fixture f;
  bool consistent = true;
  auto checker = [&f, &consistent](dsm::NodeId n, int rounds)
      -> sim::Process {
    auto& node = f.sys.node(n);
    std::vector<dsm::VarId> locks{f.lb, f.la};
    for (int k = 0; k < rounds; ++k) {
      co_await sim::delay(f.sched, 2'500);
      co_await acquire_ordered(f.sys, &locks, n).join();
      if (node.read(f.da) != node.read(f.db)) consistent = false;
      release_ordered(f.sys, locks, n);
    }
  };
  int active = 0, max_active = 0;
  auto w1 = cross_update(f, 5, 10, 7, &active, &max_active);
  auto w2 = cross_update(f, 6, 10, 8, &active, &max_active);
  auto c = checker(4, 12);
  f.sched.run();
  w1.rethrow_if_failed();
  w2.rethrow_if_failed();
  c.rethrow_if_failed();
  EXPECT_TRUE(consistent);
}

TEST(OrderedAcquire, NoDeadlockWhenSectionsOverlapPartially) {
  // Node 5 takes {la}, node 6 takes {lb}, node 7 takes {lb, la} — the
  // global acquisition order (ascending VarId) excludes cycles.
  Fixture f;
  std::uint64_t completions = 0;
  auto worker = [&f, &completions](std::vector<dsm::VarId> locks,
                                   dsm::NodeId n,
                                   std::uint64_t seed) -> sim::Process {
    sim::Rng rng(seed);
    for (int k = 0; k < 15; ++k) {
      co_await sim::delay(f.sched, rng.below(2'000));
      co_await acquire_ordered(f.sys, &locks, n).join();
      co_await sim::delay(f.sched, 300);
      release_ordered(f.sys, locks, n);
      ++completions;
    }
  };
  auto p1 = worker({f.la}, 5, 1);
  auto p2 = worker({f.lb}, 6, 2);
  auto p3 = worker({f.lb, f.la}, 7, 3);  // order normalized internally
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();
  p3.rethrow_if_failed();
  EXPECT_EQ(completions, 45u);  // everything ran to completion: no deadlock
}

TEST(OrderedAcquire, LocksSortedIntoGlobalOrder) {
  Fixture f;
  std::vector<dsm::VarId> locks{f.lb, f.la};
  auto p = acquire_ordered(f.sys, &locks, 5);
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_LT(locks[0], locks[1]);
  f.sched.run();
  p.rethrow_if_failed();
  release_ordered(f.sys, locks, 5);
  f.sched.run();
}

TEST(OrderedAcquire, ShuffledInputAcquiresInCanonicalOrder) {
  // Whatever order the caller lists the locks in, the set is normalized to
  // strictly ascending VarId and requested that way: when the call returns
  // (processes start eagerly) only the lowest lock has been requested.
  Fixture f;
  const dsm::VarId lc = f.sys.define_lock("lc", f.ga);
  auto& node = f.sys.node(4);
  for (const auto& input :
       {std::vector<dsm::VarId>{lc, f.lb, f.la},
        std::vector<dsm::VarId>{f.lb, lc, f.la},
        std::vector<dsm::VarId>{f.la, lc, f.lb}}) {
    std::vector<dsm::VarId> locks = input;
    auto p = acquire_ordered(f.sys, &locks, 4);
    ASSERT_EQ(locks.size(), 3u);
    EXPECT_LT(locks[0], locks[1]);
    EXPECT_LT(locks[1], locks[2]);
    EXPECT_EQ(node.read(locks[0]), dsm::lock_request_value(4));
    EXPECT_EQ(node.read(locks[1]), dsm::kLockFree);
    EXPECT_EQ(node.read(locks[2]), dsm::kLockFree);
    f.sched.run();
    p.rethrow_if_failed();
    release_ordered(f.sys, locks, 4);
    f.sched.run();
  }
  // And shuffled-input sections still run to completion.
  std::uint64_t completions = 0;
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    std::vector<dsm::VarId> locks{lc, f.lb, f.la};
    for (int k = 0; k < 5; ++k) {
      co_await acquire_ordered(f.sys, &locks, n).join();
      co_await sim::delay(f.sched, 200);
      release_ordered(f.sys, locks, n);
      ++completions;
    }
  };
  auto p1 = worker(4);
  auto p2 = worker(5);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();
  EXPECT_EQ(completions, 10u);
}

TEST(OrderedAcquire, HeldByTracksAllLocks) {
  Fixture f;
  std::vector<dsm::VarId> locks{f.la, f.lb};
  auto held = [&f](dsm::VarId l) {
    return f.sys.node(5).read(l) == dsm::lock_grant_value(5);
  };
  EXPECT_FALSE(held(f.la));
  EXPECT_FALSE(held(f.lb));
  bool held_inside = false;
  auto p = [](Fixture& fx, std::vector<dsm::VarId>& ls,
              bool* inside) -> sim::Process {
    co_await acquire_ordered(fx.sys, &ls, 5).join();
    auto& node = fx.sys.node(5);
    *inside = node.read(fx.la) == dsm::lock_grant_value(5) &&
              node.read(fx.lb) == dsm::lock_grant_value(5);
    release_ordered(fx.sys, ls, 5);
  }(f, locks, &held_inside);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(held_inside);
  EXPECT_FALSE(held(f.la));
  EXPECT_FALSE(held(f.lb));
}

TEST(OrderedAcquire, DuplicateLocksRejected) {
  Fixture f;
  std::vector<dsm::VarId> locks{f.la, f.la};
  EXPECT_THROW((void)acquire_ordered(f.sys, &locks, 5), ContractViolation);
  // Rejected before any request went out.
  EXPECT_EQ(f.sys.node(5).read(f.la), dsm::kLockFree);
}

TEST(OrderedAcquire, NonMemberRejected) {
  Fixture f;
  std::vector<dsm::VarId> locks{f.la, f.lb};
  // Node 0 is only in group A. The check is synchronous and covers the
  // whole set, so not even the lock it could take is requested.
  EXPECT_THROW((void)acquire_ordered(f.sys, &locks, 0), ContractViolation);
  EXPECT_EQ(f.sys.node(0).read(f.la), dsm::kLockFree);
}

TEST(OrderedAcquire, SingleLockDegeneratesToQueueLock) {
  Fixture f;
  int active = 0, max_active = 0;
  std::uint64_t acquisitions = 0;
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    auto& node = f.sys.node(n);
    std::vector<dsm::VarId> locks{f.la};
    co_await acquire_ordered(f.sys, &locks, n).join();
    ++acquisitions;
    active += 1;
    max_active = std::max(max_active, active);
    node.write(f.da, node.read(f.da) + 1);
    co_await sim::delay(f.sched, 400);
    active -= 1;
    release_ordered(f.sys, locks, n);
  };
  std::vector<sim::Process> procs;
  for (const dsm::NodeId n : {0u, 1u, 2u, 3u}) procs.push_back(worker(n));
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  EXPECT_EQ(max_active, 1);
  EXPECT_EQ(f.sys.node(0).read(f.da), 4);
  EXPECT_EQ(acquisitions, 4u);
}

/// The lock grants node `n` applied, in order, restricted to `locks`.
std::vector<dsm::VarId> grants_seen(const telemetry::Journal& j,
                                    dsm::NodeId n,
                                    const std::vector<dsm::VarId>& locks) {
  std::vector<dsm::VarId> out;
  for (const auto& e : j.events()) {
    if (e.kind != telemetry::Journal::Kind::kNodeApply || e.node != n) {
      continue;
    }
    if (std::find(locks.begin(), locks.end(), e.var) == locks.end()) continue;
    if (e.value == static_cast<std::int64_t>(dsm::lock_grant_value(n))) {
      out.push_back(e.var);
    }
  }
  return out;
}

TEST(OrderedAcquire, TxnCommitSharesTheCanonicalOrder) {
  // The OCC commit takes its write-site locks through the same ordered
  // acquisition. Sites registered in DESCENDING lock order (site 0 guards
  // lb, site 1 guards la) and written in that order still lock la first,
  // so the commit and a contending ordered acquirer never deadlock.
  telemetry::Journal journal(1 << 16, /*keep_protocol=*/true);
  Fixture f(&journal);
  txn::TxnManager mgr(f.sys, txn::TxnConfig{});
  const txn::SiteId site_b = mgr.add_site("b", f.gb, f.lb);
  const txn::SiteId site_a = mgr.add_site("a", f.ga, f.la);
  ASSERT_LT(f.la, f.lb);
  constexpr int kRounds = 6;

  int commits = 0;
  auto committer = [&](dsm::NodeId n) -> sim::Process {
    while (commits < kRounds) {
      txn::Txn t;
      mgr.begin(t, n);
      const dsm::Word b = mgr.read_word(t, site_b, 0, f.db);
      const dsm::Word a = mgr.read_word(t, site_a, 0, f.da);
      mgr.write_word(t, site_b, 0, f.db, b + 1);
      mgr.write_word(t, site_a, 0, f.da, a + 1);
      co_await sim::delay(f.sched, 300);
      txn::TxnManager::CommitResult res;
      co_await mgr.commit(t, &res).join();
      if (res.committed) ++commits;
    }
  };
  int sections = 0;
  auto locker = [&](dsm::NodeId n) -> sim::Process {
    auto& node = f.sys.node(n);
    std::vector<dsm::VarId> locks{f.lb, f.la};
    for (int k = 0; k < kRounds; ++k) {
      co_await sim::delay(f.sched, 150);
      co_await acquire_ordered(f.sys, &locks, n).join();
      node.write(f.da, node.read(f.da) + 1);
      node.write(f.db, node.read(f.db) + 1);
      mgr.orecs().bump(n, site_a, 0);
      mgr.orecs().bump(n, site_b, 0);
      co_await sim::delay(f.sched, 400);
      release_ordered(f.sys, locks, n);
      ++sections;
    }
  };
  auto p1 = committer(5);
  auto p2 = locker(6);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();
  EXPECT_EQ(commits, kRounds);  // no deadlock: both sides finished
  EXPECT_EQ(sections, kRounds);
  EXPECT_EQ(f.sys.node(5).read(f.da), 2 * kRounds);
  EXPECT_EQ(f.sys.node(5).read(f.db), 2 * kRounds);
  ASSERT_EQ(journal.dropped(), 0u);

  // Every locked commit and every section was granted la, then lb.
  for (const dsm::NodeId n : {5u, 6u}) {
    const auto seen = grants_seen(journal, n, {f.la, f.lb});
    ASSERT_GE(seen.size(), 2u * kRounds) << "node " << n;
    ASSERT_EQ(seen.size() % 2, 0u) << "node " << n;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], i % 2 == 0 ? f.la : f.lb)
          << "node " << n << " grant " << i;
    }
  }
}

}  // namespace
}  // namespace optsync::sync
