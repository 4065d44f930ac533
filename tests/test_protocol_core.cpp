// The shared protocol cores: the requester machine on its own, and one
// scripted lock/data sequence through both runtimes (the simulated
// substrate and the threaded runtime) with identical outcomes.
#include <gtest/gtest.h>

#include <vector>

#include "core/requester.hpp"
#include "dsm/system.hpp"
#include "rt/rt_group.hpp"

namespace optsync {
namespace {

using core::Requester;
using dsm::kLockFree;
using dsm::lock_grant_value;
using dsm::lock_request_value;
using dsm::NodeId;
using dsm::VarId;
using dsm::Word;
using Verdict = Requester::Verdict;

constexpr NodeId kSelf = 2;

TEST(Requester, FreeLockAndQuietHistorySpeculate) {
  Requester r(kSelf, 0.95);
  r.begin();
  r.request(kLockFree);
  const auto path = r.choose(/*enable_optimistic=*/true, 0.30);
  EXPECT_TRUE(path.optimistic);
  EXPECT_FALSE(path.history_veto);
  EXPECT_FALSE(r.choose(/*enable_optimistic=*/false, 0.30).optimistic);
  EXPECT_TRUE(r.start_speculation());
  EXPECT_EQ(r.on_lock_change(lock_grant_value(kSelf)), Verdict::kGranted);
  EXPECT_TRUE(r.granted());
  r.commit();
  EXPECT_FALSE(r.rolled_back());
}

TEST(Requester, LocalEvidenceForcesTheWait) {
  // A held lock word, or our own in-flight request, is local evidence of
  // use: the wait is forced, and the history is not what vetoed it.
  for (const Word old : {lock_grant_value(5), lock_request_value(kSelf)}) {
    Requester r(kSelf, 0.95);
    r.begin();
    r.request(old);
    const auto path = r.choose(true, 0.30);
    EXPECT_FALSE(path.optimistic) << old;
    EXPECT_FALSE(path.history_veto) << old;
  }
}

TEST(Requester, BusyHistoryAloneVetoes) {
  Requester r(kSelf, 0.5);
  r.request(lock_grant_value(5));  // one busy observation: history 0.5
  r.begin();
  r.request(kLockFree);  // free now, history 0.25
  EXPECT_TRUE(r.choose(true, 0.20).history_veto);
  EXPECT_FALSE(r.choose(true, 0.20).optimistic);
  EXPECT_TRUE(r.choose(true, 0.30).optimistic);
  EXPECT_FALSE(r.choose(false, 0.20).history_veto);
}

TEST(Requester, InterruptVerdicts) {
  Requester r(kSelf, 0.95);
  r.begin();
  r.request(kLockFree);
  ASSERT_TRUE(r.start_speculation());
  EXPECT_EQ(r.on_lock_change(kLockFree), Verdict::kMomentaryFree);
  const double before = r.history().value();
  EXPECT_EQ(r.on_lock_change(lock_grant_value(4)), Verdict::kRollback);
  EXPECT_GT(r.history().value(), before);  // a loss is a busy observation
  EXPECT_TRUE(r.rollback_pending());
  r.finish_rollback();
  EXPECT_FALSE(r.rollback_pending());
  EXPECT_TRUE(r.rolled_back());
  // Nothing is saved any more: a further foreign grant is a plain loss.
  EXPECT_EQ(r.on_lock_change(lock_grant_value(0)), Verdict::kLost);
  EXPECT_EQ(r.on_lock_change(lock_grant_value(kSelf)), Verdict::kGranted);
  EXPECT_THROW(r.on_lock_change(lock_request_value(1)), ContractViolation);
}

TEST(Requester, RegularPathLossNeedsNoRollback) {
  Requester r(kSelf, 0.95);
  r.begin();
  r.request(lock_grant_value(4));
  EXPECT_EQ(r.on_lock_change(lock_grant_value(1)), Verdict::kLost);
  EXPECT_FALSE(r.rollback_pending());
}

TEST(Requester, ForeignGrantBeforeSpeculationStartsRefuses) {
  // The threaded runtime's window: the lock was FREE at the request and
  // the path choice said speculate, but another node's grant is applied
  // before the variables are saved. Speculating would have every write
  // dropped by the root with no rollback to repair it, so start refuses
  // and the execution takes the regular path.
  Requester r(kSelf, 0.95);
  r.begin();
  r.request(kLockFree);
  ASSERT_TRUE(r.choose(true, 0.30).optimistic);
  EXPECT_EQ(r.on_lock_change(lock_grant_value(4)), Verdict::kLost);
  EXPECT_FALSE(r.start_speculation());
  EXPECT_FALSE(r.choose(true, 0.30).optimistic);
  EXPECT_EQ(r.on_lock_change(lock_grant_value(kSelf)), Verdict::kGranted);
  EXPECT_FALSE(r.rollback_pending());
  EXPECT_FALSE(r.rolled_back());
  // The next execution starts afresh.
  r.begin();
  r.request(kLockFree);
  EXPECT_TRUE(r.start_speculation());
}

// --- one script, two runtimes ---------------------------------------------

struct Write {
  NodeId node;
  int var;  ///< 0 = lock, 1 = mutex data, 2 = plain data
  Word value;
};

constexpr std::size_t kNodes = 4;

/// Speculative writes from non-holders, a grant, a queued request, a
/// hand-off, a release to FREE and a speculative write left standing.
const std::vector<Write> kScript = {
    {1, 1, 5},                      // dropped: nobody holds the lock
    {1, 0, lock_request_value(1)},  // grant
    {1, 1, 7},                      // admitted; node 1 blocks the echo
    {2, 0, lock_request_value(2)},  // queued
    {2, 1, 9},                      // dropped: node 2 only waits
    {0, 2, 3},                      // plain data, echoed to the writer
    {1, 0, kLockFree},              // hand-off to node 2
    {2, 1, 11},                     // admitted
    {2, 0, kLockFree},              // FREE
    {3, 1, 99},                     // dropped; stays in node 3's memory
};

struct Outcome {
  std::vector<std::vector<Word>> memory;  ///< [node][var]
  std::uint64_t speculative_drops = 0;
  std::uint64_t echoes_dropped = 0;
};

Outcome run_simulated() {
  sim::Scheduler sched;
  const net::FullyConnected topo(kNodes);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  const auto g = sys.create_group({0, 1, 2, 3}, 0);
  const VarId l = sys.define_lock("l", g);
  const VarId vars[] = {l, sys.define_mutex_data("m", g, l),
                        sys.define_data("d", g)};
  for (const Write& w : kScript) {
    sys.node(w.node).write(vars[w.var], w.value);
    sched.run();
  }
  Outcome out;
  for (NodeId n = 0; n < kNodes; ++n) {
    out.memory.emplace_back();
    for (const VarId v : vars) out.memory.back().push_back(sys.node(n).read(v));
    out.echoes_dropped += sys.node(n).stats().echoes_dropped;
  }
  out.speculative_drops = sys.root_of(g).stats().speculative_drops;
  return out;
}

Outcome run_threaded() {
  rt::RtSystem sys(rt::RtSystem::Config{kNodes, 0});
  const VarId l = sys.define_lock("l");
  const VarId vars[] = {l, sys.define_mutex_data("m", l),
                        sys.define_data("d")};
  for (const Write& w : kScript) {
    sys.write(w.node, vars[w.var], w.value);
    sys.quiesce();
  }
  Outcome out;
  for (NodeId n = 0; n < kNodes; ++n) {
    out.memory.emplace_back();
    for (const VarId v : vars) out.memory.back().push_back(sys.read(n, v));
  }
  out.speculative_drops = sys.stats().speculative_drops.load();
  out.echoes_dropped = sys.stats().echoes_dropped.load();
  return out;
}

TEST(CrossRuntime, ScriptedSequenceEndsIdentically) {
  const Outcome sim = run_simulated();
  const Outcome thr = run_threaded();
  EXPECT_EQ(sim.memory, thr.memory);
  EXPECT_EQ(sim.speculative_drops, thr.speculative_drops);
  EXPECT_EQ(sim.echoes_dropped, thr.echoes_dropped);
  // The script's own expectations, so both cannot agree on a wrong answer.
  EXPECT_EQ(sim.speculative_drops, 3u);
  EXPECT_EQ(sim.echoes_dropped, 2u);
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(sim.memory[n][0], kLockFree) << "node " << n;
    EXPECT_EQ(sim.memory[n][1], n == 3 ? 99 : 11) << "node " << n;
    EXPECT_EQ(sim.memory[n][2], 3) << "node " << n;
  }
}

}  // namespace
}  // namespace optsync
