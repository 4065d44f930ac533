#include "dsm/root.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"

namespace optsync::dsm {
namespace {

class GroupRootTest : public ::testing::Test {
 protected:
  GroupRootTest() : topo_(5), sys_(sched_, topo_, DsmConfig{}) {
    group_ = sys_.create_group({0, 1, 2, 3, 4}, 2);
    lock_ = sys_.define_lock("l", group_);
    mdata_ = sys_.define_mutex_data("m", group_, lock_);
    data_ = sys_.define_data("d", group_);
  }

  GroupRoot& root() { return sys_.root_of(group_); }

  sim::Scheduler sched_;
  net::FullyConnected topo_;
  DsmSystem sys_;
  GroupId group_ = 0;
  VarId lock_ = 0, mdata_ = 0, data_ = 0;
};

// --- RootCore: the lock decisions, table-driven -------------------------

using Verdict = RootCore::Verdict;
constexpr VarId kLock = 7;
constexpr Word req(NodeId n) { return lock_request_value(n); }

TEST(RootCore, LockStateOfUntouchedLockIsIdle) {
  // A lock nobody has ever requested has no entry in the table; lock_state
  // must hand back the idle state, not fault (stats readers and the
  // speculative-write filter both query locks that may never have been
  // written). Same for a VarId that is not a lock at all.
  RootCore core;
  for (const VarId v : {kLock, VarId{3}}) {
    const auto& ls = core.lock_state(v);
    EXPECT_EQ(ls.holder, kNoNode);
    EXPECT_EQ(ls.requests, 0u);
    EXPECT_TRUE(ls.queue.empty());
  }
  EXPECT_EQ(core.waiter_queue_depth(), 0u);
}

struct Step {
  NodeId origin;
  Word value;  ///< the lock word reaching the root
  Verdict verdict;
  NodeId holder;       ///< holder after the step
  std::size_t queued;  ///< waiters after the step
};
struct DecisionCase {
  const char* name;
  std::vector<Step> steps;
};

class RootCoreDecisions : public ::testing::TestWithParam<DecisionCase> {};

TEST_P(RootCoreDecisions, VerdictsHoldersAndQueues) {
  RootCore core;
  for (std::size_t i = 0; i < GetParam().steps.size(); ++i) {
    const Step& s = GetParam().steps[i];
    const RootCore::Decision d = core.on_lock_word(kLock, s.origin, s.value);
    EXPECT_EQ(d.verdict, s.verdict) << "step " << i;
    EXPECT_EQ(d.holder, s.holder) << "step " << i;
    EXPECT_EQ(d.slot, 0u);
    if (s.verdict == Verdict::kFree) {
      EXPECT_EQ(d.word(), kLockFree) << "step " << i;
    } else if (s.verdict != Verdict::kQueued) {
      EXPECT_EQ(d.word(), lock_grant_value(s.holder)) << "step " << i;
    }
    const auto& ls = core.lock_state(kLock);
    EXPECT_EQ(ls.holder, s.holder) << "step " << i;
    EXPECT_EQ(ls.queue.size(), s.queued) << "step " << i;
    EXPECT_EQ(core.waiter_queue_depth(), s.queued) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, RootCoreDecisions,
    ::testing::Values(
        DecisionCase{"FreeLockGrantedImmediately",
                     {{3, req(3), Verdict::kGrant, 3, 0}}},
        // A queued request is consumed by the root: the verdict carries no
        // word to sequence, so nobody's lock copy is disturbed.
        DecisionCase{"BusyLockQueuesRequester",
                     {{3, req(3), Verdict::kGrant, 3, 0},
                      {1, req(1), Verdict::kQueued, 3, 1}}},
        DecisionCase{"ReleaseHandsToNextQueuedInFifoOrder",
                     {{3, req(3), Verdict::kGrant, 3, 0},
                      {1, req(1), Verdict::kQueued, 3, 1},
                      {4, req(4), Verdict::kQueued, 3, 2},
                      {3, kLockFree, Verdict::kHandoff, 1, 1},
                      {1, kLockFree, Verdict::kHandoff, 4, 0},
                      {4, kLockFree, Verdict::kFree, kNoNode, 0}}},
        DecisionCase{"ReleaseWithEmptyQueueFrees",
                     {{3, req(3), Verdict::kGrant, 3, 0},
                      {3, kLockFree, Verdict::kFree, kNoNode, 0},
                      {2, req(2), Verdict::kGrant, 2, 0}}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(RootCore, CountersTrackTheDecisions) {
  RootCore core;
  core.on_lock_word(kLock, 3, req(3));
  core.on_lock_word(kLock, 1, req(1));
  core.on_lock_word(kLock, 4, req(4));
  core.on_lock_word(kLock, 3, kLockFree);
  const auto& ls = core.lock_state(kLock);
  EXPECT_EQ(ls.requests, 3u);
  EXPECT_EQ(ls.immediate_grants, 1u);
  EXPECT_EQ(ls.queued_grants, 1u);
  EXPECT_EQ(ls.releases, 1u);
  EXPECT_EQ(ls.max_queue_depth, 2u);
  // A second lock gets its own slot and its own queue.
  EXPECT_EQ(core.on_lock_word(kLock + 1, 2, req(2)).slot, 1u);
  EXPECT_EQ(core.lock_state(kLock + 1).holder, 2u);
  EXPECT_EQ(core.waiter_queue_depth(), 1u);
}

struct RejectCase {
  const char* name;
  std::vector<std::pair<NodeId, Word>> setup;
  NodeId origin;
  Word value;
};

class RootCoreRejects : public ::testing::TestWithParam<RejectCase> {};

TEST_P(RootCoreRejects, ThrowsAndLeavesTheLockUnchanged) {
  RootCore core;
  for (const auto& [origin, value] : GetParam().setup) {
    core.on_lock_word(kLock, origin, value);
  }
  const NodeId holder = core.lock_state(kLock).holder;
  const std::uint64_t requests = core.lock_state(kLock).requests;
  EXPECT_THROW(core.on_lock_word(kLock, GetParam().origin, GetParam().value),
               ContractViolation);
  EXPECT_EQ(core.lock_state(kLock).holder, holder);
  EXPECT_EQ(core.lock_state(kLock).requests, requests);
  EXPECT_EQ(core.waiter_queue_depth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table, RootCoreRejects,
    ::testing::Values(
        RejectCase{"ReleaseByNonHolder", {{3, req(3)}}, 1, kLockFree},
        RejectCase{"ReleaseOfFreeLock", {}, 1, kLockFree},
        RejectCase{"NestedRequest", {{3, req(3)}}, 3, req(3)},
        RejectCase{"RequestOnAnotherNodesBehalf", {}, 1, req(2)},
        RejectCase{"GrantWordFromANode", {}, 1, lock_grant_value(1)}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(RootCore, MutexDataAdmittedOnlyFromTheHolder) {
  // §4: the filter verdicts. Nobody holds the lock, then node 1 does with
  // node 2 queued, then it is free again.
  RootCore core;
  EXPECT_FALSE(core.admits(kLock, 1));
  core.on_lock_word(kLock, 1, req(1));
  core.on_lock_word(kLock, 2, req(2));
  EXPECT_TRUE(core.admits(kLock, 1));
  EXPECT_FALSE(core.admits(kLock, 2));  // a queued waiter is not a holder
  EXPECT_FALSE(core.admits(kLock, 0));
  core.on_lock_word(kLock, 1, kLockFree);
  EXPECT_FALSE(core.admits(kLock, 1));  // the releaser lost its right
  EXPECT_TRUE(core.admits(kLock, 2));
  core.on_lock_word(kLock, 2, kLockFree);
  EXPECT_FALSE(core.admits(kLock, 2));
}

TEST(RootCore, SpeculativeWriteRefusedFromAHandoffHolder) {
  // A speculative write (tagged by its writer) is admitted from a holder
  // granted on a free lock — that speculation commits — but refused from
  // a holder granted by hand-off: its request queued behind another
  // holder, so the speculation it belongs to always rolls back.
  RootCore core;
  core.on_lock_word(kLock, 1, req(1));  // immediate grant
  EXPECT_TRUE(core.admits(kLock, 1, /*speculative=*/true));
  core.on_lock_word(kLock, 2, req(2));       // queued behind node 1
  core.on_lock_word(kLock, 1, kLockFree);    // hand-off to node 2
  EXPECT_TRUE(core.lock_state(kLock).handed_off);
  EXPECT_TRUE(core.admits(kLock, 2, /*speculative=*/false));
  EXPECT_FALSE(core.admits(kLock, 2, /*speculative=*/true));
  EXPECT_FALSE(core.admits(kLock, 1, /*speculative=*/true));
  core.on_lock_word(kLock, 2, kLockFree);  // free, no waiters
  EXPECT_FALSE(core.lock_state(kLock).handed_off);
  core.on_lock_word(kLock, 2, req(2));  // immediate grant again
  EXPECT_TRUE(core.admits(kLock, 2, /*speculative=*/true));
}

// --- GroupRoot: sequencing around the core ---------------------------------

TEST_F(GroupRootTest, SpeculativeWriteFromHandoffHolderDropped) {
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(3).write(lock_, lock_request_value(3));  // queued
  sched_.run();
  sys_.node(1).write(lock_, kLockFree);  // hand-off to node 3
  sched_.run();
  ASSERT_EQ(root().lock_state(lock_).holder, 3u);
  sys_.node(3).begin_speculation(lock_);
  sys_.node(3).write(mdata_, 529);  // tagged: refused
  sys_.node(3).write(data_, 7);     // plain data is never tagged
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 1u);
  EXPECT_EQ(root().stats().handoff_spec_drops, 1u);
  EXPECT_EQ(sys_.node(0).read(mdata_), 0);
  EXPECT_EQ(sys_.node(0).read(data_), 7);
  sys_.node(3).end_speculation(lock_);
  sys_.node(3).write(mdata_, 530);  // the holder's own, untagged write
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 1u);
  EXPECT_EQ(sys_.node(0).read(mdata_), 530);
}

TEST_F(GroupRootTest, SpeculativeWriteFromNonHolderDropped) {
  sys_.node(1).write(mdata_, 77);  // nobody holds the lock
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 1u);
  EXPECT_EQ(sys_.node(0).read(mdata_), 0);
  // The speculator's own local memory still shows its write (to be rolled
  // back by the mutex machinery).
  EXPECT_EQ(sys_.node(1).read(mdata_), 77);
}

TEST_F(GroupRootTest, HolderWritesPropagate) {
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(mdata_, 88);
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 0u);
  for (NodeId n = 0; n < 5; ++n) {
    if (n == 1) continue;  // writer's echo is HW-blocked
    EXPECT_EQ(sys_.node(n).read(mdata_), 88);
  }
}

TEST_F(GroupRootTest, GrantAndHandoffReachEveryMember) {
  sys_.node(3).write(lock_, lock_request_value(3));
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  EXPECT_EQ(root().lock_state(lock_).holder, 3u);
  EXPECT_EQ(root().waiter_queue_depth(), 1u);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(sys_.node(n).read(lock_), lock_grant_value(3));
  }
  sys_.node(3).write(lock_, kLockFree);
  sched_.run();
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(sys_.node(n).read(lock_), lock_grant_value(1));
  }
  sys_.node(3).write(lock_, kLockFree);  // no longer the holder
  EXPECT_THROW(sched_.run(), ContractViolation);
}

TEST_F(GroupRootTest, FilteringCanBeDisabled) {
  DsmConfig cfg;
  cfg.root_filters_speculative = false;
  sim::Scheduler sched;
  DsmSystem sys(sched, topo_, cfg);
  const auto g = sys.create_group({0, 1, 2}, 0);
  const auto l = sys.define_lock("l", g);
  const auto m = sys.define_mutex_data("m", g, l);
  sys.node(1).write(m, 5);
  sched.run();
  EXPECT_EQ(sys.node(2).read(m), 5);
  EXPECT_EQ(sys.root_of(g).stats().speculative_drops, 0u);
}

TEST_F(GroupRootTest, PlainDataNeverFiltered) {
  sys_.node(1).write(data_, 13);
  sched_.run();
  EXPECT_EQ(root().stats().speculative_drops, 0u);
  EXPECT_EQ(sys_.node(4).read(data_), 13);
}

TEST_F(GroupRootTest, SequenceNumbersIncrease) {
  sys_.node(1).write(data_, 1);
  sys_.node(2).write(data_, 2);
  sched_.run();
  EXPECT_EQ(root().stats().sequenced, 2u);
  EXPECT_EQ(root().next_seq(), 3u);
}

TEST_F(GroupRootTest, GrantFollowsReleasersDataInGroupOrder) {
  // The paper's key handoff property: the holder's last data write reaches
  // every member BEFORE the next grant does.
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(3).write(lock_, lock_request_value(3));  // queued
  sched_.run();

  sys_.node(4).enable_applied_log(true);
  sys_.node(1).write(mdata_, 1234);  // last data write
  sys_.node(1).write(lock_, kLockFree);  // then release
  sched_.run();

  const auto& log = sys_.node(4).applied_log(group_);
  ASSERT_GE(log.size(), 2u);
  // Find positions of the data write and the grant-to-3.
  int data_pos = -1, grant_pos = -1;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].var == mdata_ && log[i].value == 1234) {
      data_pos = static_cast<int>(i);
    }
    if (log[i].var == lock_ && log[i].value == lock_grant_value(3)) {
      grant_pos = static_cast<int>(i);
    }
  }
  ASSERT_NE(data_pos, -1);
  ASSERT_NE(grant_pos, -1);
  EXPECT_LT(data_pos, grant_pos);
}

}  // namespace
}  // namespace optsync::dsm
