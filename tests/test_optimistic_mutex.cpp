#include "core/optimistic_mutex.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simkern/assert.hpp"

namespace optsync::core {
namespace {

using dsm::DsmConfig;
using dsm::DsmSystem;
using dsm::VarId;
using dsm::Word;
using net::NodeId;

struct Fixture {
  explicit Fixture(std::size_t n, OptimisticMutex::Config cfg = {})
      : topo(net::MeshTorus2D::near_square(n)), sys(sched, topo, DsmConfig{}) {
    std::vector<NodeId> members;
    for (NodeId i = 0; i < n; ++i) members.push_back(i);
    group = sys.create_group(members, 0);
    lock = sys.define_lock("L", group);
    a = sys.define_mutex_data("a", group, lock, 100);
    mux = std::make_unique<OptimisticMutex>(sys, lock, cfg);
  }

  Section increment_section(sim::Duration compute = 1'000) {
    Section sec;
    sec.shared_writes = {a};
    sec.body = [this, compute](dsm::DsmNode& nd) -> sim::Process {
      const Word before = nd.read(a);
      co_await sim::delay(sched, compute);
      nd.write(a, before + 1);
    };
    return sec;
  }

  sim::Scheduler sched;
  net::MeshTorus2D topo;
  DsmSystem sys;
  dsm::GroupId group = 0;
  VarId lock = 0, a = 0;
  std::unique_ptr<OptimisticMutex> mux;
};

sim::Process run_at(Fixture& f, NodeId n, sim::Duration at, Section sec,
                    ExecuteStats* out = nullptr) {
  co_await sim::delay(f.sched, at);
  co_await f.mux->execute(n, std::move(sec), out).join();
}

TEST(OptimisticMutex, UncontendedSpeculationSucceeds) {
  Fixture f(9);
  ExecuteStats stats;
  auto p = run_at(f, 5, 0, f.increment_section(), &stats);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(stats.used_optimistic);
  EXPECT_FALSE(stats.rolled_back);
  EXPECT_EQ(f.mux->stats().optimistic_successes, 1u);
  EXPECT_EQ(f.mux->stats().rollbacks, 0u);
  // The update reached every member.
  for (NodeId n = 0; n < 9; ++n) EXPECT_EQ(f.sys.node(n).read(f.a), 101);
  // And the lock ended free everywhere.
  for (NodeId n = 0; n < 9; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.lock), dsm::kLockFree);
  }
}

TEST(OptimisticMutex, SpeculationOverlapsLockRoundTrip) {
  // With an uncontended lock, the optimistic execution should finish in
  // roughly max(section, round trip) rather than round trip + section.
  auto run_one = [](bool optimistic) {
    OptimisticMutex::Config c;
    c.enable_optimistic = optimistic;
    Fixture fx(16, c);
    auto p = run_at(fx, 15, 0, fx.increment_section(2'000));
    fx.sched.run();
    p.rethrow_if_failed();
    return fx.sched.now();
  };
  const auto opt_time = run_one(true);
  const auto reg_time = run_one(false);
  EXPECT_LT(opt_time, reg_time);
}

TEST(OptimisticMutex, ContendedSpeculationRollsBackAndRetries) {
  Fixture f(9);
  ExecuteStats s1, s2;
  // Node 1 (near root) wins and holds long enough that node 8's speculative
  // write reaches the root while the lock is still node 1's — forcing the
  // root to filter it.
  auto p1 = run_at(f, 1, 0, f.increment_section(12'000), &s1);
  auto p2 = run_at(f, 8, 100, f.increment_section(2'000), &s2);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();

  EXPECT_EQ(f.mux->stats().rollbacks, 1u);
  EXPECT_TRUE(s2.rolled_back || s1.rolled_back);
  // Both increments applied exactly once, in some serial order.
  for (NodeId n = 0; n < 9; ++n) EXPECT_EQ(f.sys.node(n).read(f.a), 102);
  // The loser's speculative write was filtered at the root.
  EXPECT_GE(f.sys.root_of(f.group).stats().speculative_drops, 1u);
}

TEST(OptimisticMutex, RollbackRestoresLocalValuesBeforeReexecution) {
  Fixture f(9);
  std::vector<Word> observed_before;  // value each body run started from
  Section sec;
  sec.shared_writes = {f.a};
  sec.body = [&f, &observed_before](dsm::DsmNode& nd) -> sim::Process {
    observed_before.push_back(nd.read(f.a));
    co_await sim::delay(f.sched, 2'000);
    nd.write(f.a, nd.read(f.a) * 2);
  };
  Section winner = f.increment_section(2'000);

  auto p1 = run_at(f, 1, 0, winner);
  auto p2 = run_at(f, 8, 50, sec);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();

  ASSERT_EQ(observed_before.size(), 2u);  // speculative run + retry
  EXPECT_EQ(observed_before[0], 100);     // stale (pre-increment) value
  EXPECT_EQ(observed_before[1], 101);     // valid value after the grant
  for (NodeId n = 0; n < 9; ++n) EXPECT_EQ(f.sys.node(n).read(f.a), 202);
}

TEST(OptimisticMutex, LocalVariablesRestoredOnRollback) {
  Fixture f(9);
  Word lcl_c = 5;  // the paper's lcl_c
  Word saved_lcl_c = 0;
  Section sec;
  sec.shared_writes = {f.a};
  sec.save_locals = [&] { saved_lcl_c = lcl_c; };
  sec.restore_locals = [&] { lcl_c = saved_lcl_c; };
  sec.body = [&](dsm::DsmNode& nd) -> sim::Process {
    lcl_c = nd.read(f.a) + lcl_c;  // Fig. 3: lcl_c = shared_a + ... + lcl_c
    co_await sim::delay(f.sched, 2'000);
    nd.write(f.a, lcl_c);
  };

  auto p1 = run_at(f, 1, 0, f.increment_section(2'000));
  auto p2 = run_at(f, 8, 50, sec);
  f.sched.run();
  p1.rethrow_if_failed();
  p2.rethrow_if_failed();

  // Retry computed from the valid a=101 and the RESTORED lcl_c=5.
  EXPECT_EQ(f.sys.node(0).read(f.a), 106);
  EXPECT_EQ(f.mux->stats().rollbacks, 1u);
}

TEST(OptimisticMutex, HighHistoryForcesRegularPath) {
  OptimisticMutex::Config cfg;
  cfg.history_threshold = 0.30;
  Fixture f(4, cfg);
  // Drive the history through real contention: many back-to-back sections
  // from two nodes leave both histories hot, so later requests take the
  // regular path without speculating.
  std::vector<sim::Process> procs;
  auto hammer = [&f](NodeId n, int count) -> sim::Process {
    for (int k = 0; k < count; ++k) {
      co_await f.mux->execute(n, f.increment_section(4'000)).join();
    }
  };
  procs.push_back(hammer(1, 15));
  procs.push_back(hammer(2, 15));
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();

  EXPECT_GT(f.mux->stats().regular_paths, 0u);
  EXPECT_GT(f.mux->history_value(1) + f.mux->history_value(2), 0.0);
  EXPECT_EQ(f.sys.node(0).read(f.a), 130);
}

TEST(OptimisticMutex, DisabledOptimismNeverSpeculates) {
  OptimisticMutex::Config cfg;
  cfg.enable_optimistic = false;
  Fixture f(4, cfg);
  auto p = run_at(f, 2, 0, f.increment_section());
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_EQ(f.mux->stats().optimistic_attempts, 0u);
  EXPECT_EQ(f.mux->stats().regular_paths, 1u);
  EXPECT_EQ(f.sys.node(0).read(f.a), 101);
}

TEST(OptimisticMutex, NestedExecutionRejected) {
  Fixture f(4);
  Section outer;
  outer.shared_writes = {f.a};
  bool threw = false;
  outer.body = [&f, &threw](dsm::DsmNode&) -> sim::Process {
    try {
      co_await f.mux->execute(1, f.increment_section()).join();
    } catch (const ContractViolation&) {
      threw = true;
    }
  };
  auto p = run_at(f, 1, 0, std::move(outer));
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(threw);
}

TEST(OptimisticMutex, CrossMutexOverlapOnOneNodeRejected) {
  // A node is one instruction stream: overlapping sections under two
  // DIFFERENT locks is the same Fig. 4 nesting error.
  Fixture f(4);
  const auto lock2 = f.sys.define_lock("L2", f.group);
  const auto b = f.sys.define_mutex_data("b", f.group, lock2, 0);
  OptimisticMutex mux2(f.sys, lock2, OptimisticMutex::Config{});

  bool threw = false;
  Section outer;
  outer.shared_writes = {f.a};
  outer.body = [&](dsm::DsmNode&) -> sim::Process {
    Section inner;
    inner.shared_writes = {b};
    inner.body = [](dsm::DsmNode&) -> sim::Process { co_return; };
    try {
      co_await mux2.execute(1, std::move(inner)).join();
    } catch (const ContractViolation&) {
      threw = true;
    }
  };
  auto p = run_at(f, 1, 0, std::move(outer));
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_TRUE(threw);
  // Occupancy was cleaned up: a later section on the node succeeds.
  // (The outer body never wrote f.a, so only this increment applies.)
  auto p2 = run_at(f, 1, 0, f.increment_section(100));
  f.sched.run();
  p2.rethrow_if_failed();
  EXPECT_EQ(f.sys.node(0).read(f.a), 101);
}

TEST(OptimisticMutex, WorksUnderRootJitter) {
  // Speculation + rollback must stay correct when the root's sequencing
  // latency is noisy.
  dsm::DsmConfig cfg;
  cfg.root_jitter_ns = 3'000;
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(9);
  DsmSystem sys(sched, topo, cfg);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 9; ++i) members.push_back(i);
  const auto g = sys.create_group(members, 0);
  const auto lock = sys.define_lock("L", g);
  const auto a = sys.define_mutex_data("a", g, lock, 0);
  OptimisticMutex mux(sys, lock, OptimisticMutex::Config{});

  std::vector<sim::Process> procs;
  auto worker = [&](NodeId n) -> sim::Process {
    for (int k = 0; k < 6; ++k) {
      co_await sim::delay(sched, 1'000 + n * 333);
      Section sec;
      sec.shared_writes = {a};
      sec.body = [&sys, &sched, a](dsm::DsmNode& nd) -> sim::Process {
        const Word v = nd.read(a);
        co_await sim::delay(sched, 700);
        nd.write(a, v + 1);
      };
      co_await mux.execute(n, std::move(sec)).join();
    }
  };
  for (NodeId n = 0; n < 9; ++n) procs.push_back(worker(n));
  sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  for (NodeId n = 0; n < 9; ++n) EXPECT_EQ(sys.node(n).read(a), 54);
}

TEST(OptimisticMutex, MismatchedLocalHooksRejected) {
  Fixture f(4);
  Section sec;
  sec.shared_writes = {f.a};
  sec.save_locals = [] {};
  sec.body = [](dsm::DsmNode&) -> sim::Process { co_return; };
  EXPECT_THROW(f.mux->execute(1, std::move(sec)), ContractViolation);
}

TEST(OptimisticMutex, RequiresLockVariable) {
  Fixture f(4);
  EXPECT_THROW(OptimisticMutex(f.sys, f.a, OptimisticMutex::Config{}),
               ContractViolation);
}

TEST(OptimisticMutex, InSectionTracking) {
  Fixture f(4);
  EXPECT_FALSE(f.mux->in_section(1));
  Section sec;
  sec.shared_writes = {f.a};
  sec.body = [&f](dsm::DsmNode&) -> sim::Process {
    EXPECT_TRUE(f.mux->in_section(1));
    co_return;
  };
  auto p = run_at(f, 1, 0, std::move(sec));
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_FALSE(f.mux->in_section(1));
}

TEST(OptimisticMutex, ImmediateReentryAfterReleaseIsSafe) {
  // The Fig. 6 discussion: a processor releases and re-enters before the
  // official free returns; hardware blocking keeps rollback state sound.
  Fixture f(9);
  auto back_to_back = [&f](NodeId n) -> sim::Process {
    for (int k = 0; k < 5; ++k) {
      co_await f.mux->execute(n, f.increment_section(500)).join();
    }
  };
  auto p = back_to_back(8);
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_EQ(f.sys.node(0).read(f.a), 105);
  for (NodeId n = 0; n < 9; ++n) EXPECT_EQ(f.sys.node(n).read(f.a), 105);
}

TEST(OptimisticMutex, ContextSwitchChargedOnlyWhenBlockedLong) {
  // Spin-then-swap: a regular-path wait longer than the swap budget pays
  // 2x the swap cost; an uncontended optimistic execution pays nothing.
  OptimisticMutex::Config cfg;
  cfg.context_switch_ns = 100;  // tiny budget: any real wait swaps
  cfg.enable_optimistic = false;
  Fixture reg(16, cfg);
  auto p1 = run_at(reg, 15, 0, reg.increment_section(1'000));
  reg.sched.run();
  p1.rethrow_if_failed();
  EXPECT_EQ(reg.mux->stats().context_switches, 1u);

  cfg.enable_optimistic = true;
  Fixture opt(16, cfg);
  auto p2 = run_at(opt, 15, 0, opt.increment_section(10'000));
  opt.sched.run();
  p2.rethrow_if_failed();
  // Grant arrived during the 10us body: no blocking, no swap.
  EXPECT_EQ(opt.mux->stats().context_switches, 0u);
}

TEST(OptimisticMutex, NoSwapWhenWaitWithinSpinBudget) {
  OptimisticMutex::Config cfg;
  cfg.context_switch_ns = 1'000'000;  // 1ms budget: everything spins
  cfg.enable_optimistic = false;
  Fixture f(16, cfg);
  auto p = run_at(f, 15, 0, f.increment_section(1'000));
  f.sched.run();
  p.rethrow_if_failed();
  EXPECT_EQ(f.mux->stats().context_switches, 0u);
}

TEST(OptimisticMutex, ManyNodesSerializeCorrectly) {
  Fixture f(16);
  std::vector<sim::Process> procs;
  for (NodeId n = 0; n < 16; ++n) {
    procs.push_back(run_at(f, n, n * 37, f.increment_section(800)));
  }
  f.sched.run();
  for (auto& p : procs) p.rethrow_if_failed();
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.a), 116);
  }
  const auto& ms = f.mux->stats();
  EXPECT_EQ(ms.executions, 16u);
  EXPECT_EQ(ms.optimistic_successes + ms.rollbacks + ms.regular_paths,
            ms.executions);
}

TEST(OptimisticMutex, LateSpeculativeWriteNeverLandsOnAHandoffGrant) {
  // Scripted interleaving. Node 1 (next to the root) wins the lock; node 8
  // requests before node 1's grant reaches it, so it speculates and its
  // request queues. The grant to node 1 then interrupts node 8 (rollback
  // chosen), but node 8's body keeps running and writes `y` only after
  // node 1 has released and the root has handed the lock to node 8. That
  // write is speculative: admitting it on the hand-off grant would make a
  // rolled-back value visible everywhere except at node 8 (its echo is
  // hardware-blocked). The re-execution sees node 1's update and writes
  // `z` instead, so `y` must stay 0 on every member.
  Fixture f(9);
  const VarId y = f.sys.define_mutex_data("y", f.group, f.lock, 0);
  const VarId z = f.sys.define_mutex_data("z", f.group, f.lock, 0);
  Section late;
  late.shared_writes = {y, z};
  late.body = [&f, y, z](dsm::DsmNode& nd) -> sim::Process {
    co_await sim::delay(f.sched, 40'000);  // outlasts node 1's whole hold
    if (nd.read(f.a) == 100) {
      nd.write(y, 529);  // the speculation's choice
    } else {
      nd.write(z, 1);  // the re-execution's choice
    }
  };
  ExecuteStats s1, s8;
  auto p1 = run_at(f, 1, 0, f.increment_section(500), &s1);
  auto p8 = run_at(f, 8, 100, std::move(late), &s8);
  f.sched.run();
  p1.rethrow_if_failed();
  p8.rethrow_if_failed();

  ASSERT_TRUE(s8.used_optimistic);
  ASSERT_TRUE(s8.rolled_back);
  const auto& rs = f.sys.root_of(f.group).stats();
  EXPECT_EQ(rs.handoff_spec_drops, 1u);
  for (NodeId n = 0; n < 9; ++n) {
    EXPECT_EQ(f.sys.node(n).read(f.a), 101) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(y), 0) << "node " << n;
    EXPECT_EQ(f.sys.node(n).read(z), 1) << "node " << n;
  }
  EXPECT_FALSE(f.sys.node(8).speculating_on(f.lock));
}

}  // namespace
}  // namespace optsync::core
