#include "dsm/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"

namespace optsync::dsm {
namespace {

class DsmNodeTest : public ::testing::Test {
 protected:
  DsmNodeTest() : topo_(2, 2), sys_(sched_, topo_, DsmConfig{}) {
    group_ = sys_.create_group({0, 1, 2, 3}, 0);
    data_ = sys_.define_data("d", group_);
    lock_ = sys_.define_lock("l", group_);
    mdata_ = sys_.define_mutex_data("m", group_, lock_);
  }

  sim::Scheduler sched_;
  net::MeshTorus2D topo_;
  DsmSystem sys_;
  GroupId group_ = 0;
  VarId data_ = 0, lock_ = 0, mdata_ = 0;
};

TEST_F(DsmNodeTest, LocalWriteVisibleImmediately) {
  sys_.node(1).write(data_, 42);
  EXPECT_EQ(sys_.node(1).read(data_), 42);
  // Not yet on other nodes — eagersharing takes network time.
  EXPECT_EQ(sys_.node(2).read(data_), 0);
  sched_.run();
  EXPECT_EQ(sys_.node(2).read(data_), 42);
}

TEST_F(DsmNodeTest, AtomicExchangeReturnsOldValue) {
  sys_.node(0).poke(data_, 7);
  EXPECT_EQ(sys_.node(0).atomic_exchange(data_, 9), 7);
  EXPECT_EQ(sys_.node(0).read(data_), 9);
}

TEST_F(DsmNodeTest, PokeDoesNotShare) {
  sys_.node(1).poke(data_, 5);
  sched_.run();
  EXPECT_EQ(sys_.node(2).read(data_), 0);
  EXPECT_EQ(sys_.network().stats().messages, 0u);
}

TEST_F(DsmNodeTest, SuspensionQueuesIncomingUpdates) {
  sys_.node(2).suspend_insharing();
  sys_.node(1).write(data_, 11);
  sched_.run();
  EXPECT_EQ(sys_.node(2).read(data_), 0);
  EXPECT_EQ(sys_.node(2).stats().queued_while_suspended, 1u);
  sys_.node(2).resume_insharing();
  EXPECT_EQ(sys_.node(2).read(data_), 11);
}

TEST_F(DsmNodeTest, ResumeAppliesQueuedInOrder) {
  sys_.node(2).enable_applied_log(true);
  sys_.node(2).suspend_insharing();
  sys_.node(1).write(data_, 1);
  sys_.node(1).write(data_, 2);
  sys_.node(1).write(data_, 3);
  sched_.run();
  sys_.node(2).resume_insharing();
  const auto& log = sys_.node(2).applied_log(group_);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].value, 1);
  EXPECT_EQ(log[1].value, 2);
  EXPECT_EQ(log[2].value, 3);
  EXPECT_EQ(sys_.node(2).read(data_), 3);
}

TEST_F(DsmNodeTest, HardwareBlockingDropsOwnMutexEchoes) {
  // Make node 1 the lock holder so its mutex-data writes pass the root.
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  ASSERT_EQ(sys_.node(1).read(lock_), lock_grant_value(1));

  sys_.node(1).write(mdata_, 99);
  sched_.run();
  // Other members applied it; the writer dropped its own echo.
  EXPECT_EQ(sys_.node(2).read(mdata_), 99);
  EXPECT_EQ(sys_.node(1).read(mdata_), 99);  // local write already applied
  EXPECT_EQ(sys_.node(1).stats().echoes_dropped, 1u);
  EXPECT_EQ(sys_.node(2).stats().echoes_dropped, 0u);
}

TEST_F(DsmNodeTest, PlainDataEchoesAreApplied) {
  sys_.node(1).write(data_, 5);
  sched_.run();
  EXPECT_EQ(sys_.node(1).stats().echoes_dropped, 0u);
}

TEST_F(DsmNodeTest, HardwareBlockingCanBeDisabled) {
  sys_.node(1).set_hardware_blocking(false);
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(mdata_, 99);
  sched_.run();
  EXPECT_EQ(sys_.node(1).stats().echoes_dropped, 0u);
}

TEST_F(DsmNodeTest, InterruptFiresAndSuspendsInsharing) {
  int fires = 0;
  Word seen = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId, Word value, NodeId) {
    ++fires;
    seen = value;
    // Leave insharing suspended: the test resumes manually.
  });
  sys_.node(1).write(lock_, lock_request_value(1));  // root grants
  sched_.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(seen, lock_grant_value(1));
  EXPECT_TRUE(sys_.node(2).insharing_suspended());
  EXPECT_EQ(sys_.node(2).stats().interrupts, 1u);
  sys_.node(2).resume_insharing();
}

TEST_F(DsmNodeTest, InterruptValueAppliedBeforeHandlerRuns) {
  Word local_at_fire = -1;
  sys_.node(2).arm_interrupt(lock_, [&](VarId v, Word, NodeId) {
    local_at_fire = sys_.node(2).read(v);
    sys_.node(2).resume_insharing();
  });
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  EXPECT_EQ(local_at_fire, lock_grant_value(1));
}

TEST_F(DsmNodeTest, DisarmStopsInterrupts) {
  int fires = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId, Word, NodeId) {
    ++fires;
    sys_.node(2).resume_insharing();
  });
  sys_.node(2).disarm_interrupt(lock_);
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  EXPECT_EQ(fires, 0);
  EXPECT_FALSE(sys_.node(2).insharing_suspended());
}

TEST_F(DsmNodeTest, HandlerMayDisarmItself) {
  int fires = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId v, Word, NodeId) {
    ++fires;
    sys_.node(2).disarm_interrupt(v);
    sys_.node(2).resume_insharing();
  });
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(lock_, kLockFree);
  sched_.run();
  EXPECT_EQ(fires, 1);
}

TEST_F(DsmNodeTest, SignalNotifiedOnLocalAndRemoteChange) {
  int wakes = 0;
  auto waiter = [&](DsmNode& node) -> sim::Process {
    co_await node.on_change(data_).wait();
    ++wakes;
    co_await node.on_change(data_).wait();
    ++wakes;
  };
  auto p = waiter(sys_.node(2));
  sys_.node(2).poke(data_, 0);
  sys_.node(2).write(data_, 1);  // local change -> first wake
  sched_.run();
  EXPECT_GE(wakes, 1);
  sys_.node(1).write(data_, 2);  // remote change -> second wake
  sched_.run();
  EXPECT_EQ(wakes, 2);
  EXPECT_TRUE(p.done());
}

TEST_F(DsmNodeTest, AppliedSeqMonotonic) {
  sys_.node(3).enable_applied_log(true);
  for (int i = 0; i < 10; ++i) {
    sys_.node(static_cast<NodeId>(i % 3)).write(data_, i);
  }
  sched_.run();
  const auto& log = sys_.node(3).applied_log(group_);
  ASSERT_EQ(log.size(), 10u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GT(log[i].seq, log[i - 1].seq);
  }
}

TEST_F(DsmNodeTest, InterruptDuringDrainStopsTheDrain) {
  // The subtlest path: resume_insharing() drains the queue, and an armed
  // interrupt fires on an update mid-drain — the drain must stop with the
  // remaining updates still queued (insharing re-suspended atomically).
  sys_.node(2).enable_applied_log(true);
  sys_.node(2).suspend_insharing();

  // Queue: data=1, lock grant (interrupt!), data=2, data=3.
  sys_.node(1).write(data_, 1);
  sys_.node(1).write(lock_, lock_request_value(1));  // root -> grant
  sched_.run();
  sys_.node(1).write(data_, 2);
  sys_.node(1).write(data_, 3);
  sched_.run();
  ASSERT_EQ(sys_.node(2).stats().queued_while_suspended, 4u);

  int fires = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId, Word, NodeId) {
    ++fires;
    // Handler leaves insharing suspended (the rollback case of Fig. 5).
  });
  sys_.node(2).resume_insharing();

  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sys_.node(2).insharing_suspended());
  EXPECT_EQ(sys_.node(2).read(data_), 1);  // drain stopped after the grant
  EXPECT_EQ(sys_.node(2).read(lock_), lock_grant_value(1));

  // Resuming finishes the drain in order.
  sys_.node(2).disarm_interrupt(lock_);
  sys_.node(2).resume_insharing();
  EXPECT_EQ(sys_.node(2).read(data_), 3);
  const auto& log = sys_.node(2).applied_log(group_);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].value, 1);
  EXPECT_EQ(log[3].value, 3);
}

TEST_F(DsmNodeTest, HandlerResumingSynchronouslyContinuesDrain) {
  sys_.node(2).suspend_insharing();
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(data_, 9);
  sched_.run();

  int fires = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId v, Word, NodeId) {
    ++fires;
    sys_.node(2).disarm_interrupt(v);
    sys_.node(2).resume_insharing();  // re-enter while draining: must not
                                      // recurse or drop queued updates
  });
  sys_.node(2).resume_insharing();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(sys_.node(2).insharing_suspended());
  EXPECT_EQ(sys_.node(2).read(data_), 9);  // the drain completed
}

/// Counts its live copies, so a handler can tell whether the closure it is
/// running from is still alive after it disarmed or replaced itself.
struct LiveProbe {
  int* live;
  explicit LiveProbe(int* l) : live(l) { ++*live; }
  LiveProbe(const LiveProbe& o) : live(o.live) { ++*live; }
  LiveProbe(LiveProbe&& o) noexcept : live(o.live) { ++*live; }
  LiveProbe& operator=(const LiveProbe&) = delete;
  ~LiveProbe() { --*live; }
};

TEST_F(DsmNodeTest, HandlerDisarmingItselfRunsToCompletion) {
  int live = 0;
  int fires = 0;
  int live_after_disarm = -1;
  {
    LiveProbe probe(&live);
    sys_.node(2).arm_interrupt(lock_, [&, probe](VarId v, Word, NodeId) {
      ++fires;
      sys_.node(2).disarm_interrupt(v);  // destroys the stored handler
      live_after_disarm = *probe.live;   // the running copy still lives
      sys_.node(2).resume_insharing();
    });
  }
  EXPECT_EQ(live, 1);  // only the stored handler
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(live_after_disarm, 1);
  EXPECT_EQ(live, 0);  // disarmed and the fired copy released
}

TEST_F(DsmNodeTest, HandlerMayReArmTheSameVariable) {
  std::vector<int> fired;
  int live = 0;
  int live_after_rearm = -1;
  LiveProbe probe(&live);
  sys_.node(2).arm_interrupt(lock_, [&, probe](VarId v, Word, NodeId) {
    fired.push_back(1);
    // Replace ourselves: the next change of `v` runs the new handler.
    sys_.node(2).arm_interrupt(v, [&](VarId, Word, NodeId) {
      fired.push_back(2);
      sys_.node(2).resume_insharing();
    });
    live_after_rearm = *probe.live;  // test probe + the running copy
    sys_.node(2).resume_insharing();
  });
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(lock_, kLockFree);
  sched_.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(live_after_rearm, 2);
  EXPECT_EQ(live, 1);  // the first handler is gone; the test's probe stays
  sys_.node(2).disarm_interrupt(lock_);
}

TEST_F(DsmNodeTest, HandlerReFiresDuringTheDrainWithoutRecursion) {
  // Two lock words queue while insharing is suspended. The handler resumes
  // insharing from inside itself; the second word must fire it again from
  // the outer drain loop, after the first call returned — never nested.
  sys_.node(2).suspend_insharing();
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  sys_.node(1).write(lock_, kLockFree);
  sched_.run();
  ASSERT_EQ(sys_.node(2).stats().queued_while_suspended, 2u);

  std::vector<Word> seen;
  int depth = 0;
  int max_depth = 0;
  sys_.node(2).arm_interrupt(lock_, [&](VarId, Word value, NodeId) {
    max_depth = std::max(max_depth, ++depth);
    seen.push_back(value);
    sys_.node(2).resume_insharing();
    --depth;
  });
  sys_.node(2).resume_insharing();
  EXPECT_EQ(seen, (std::vector<Word>{lock_grant_value(1), kLockFree}));
  EXPECT_EQ(max_depth, 1);
  EXPECT_EQ(sys_.node(2).stats().interrupts, 2u);
  EXPECT_FALSE(sys_.node(2).insharing_suspended());
  sys_.node(2).disarm_interrupt(lock_);
}

TEST_F(DsmNodeTest, SmallHandlersAreStoredInline) {
  // The protocol's handlers capture a pointer and a few ids: arming and
  // firing them must not fall back to the heap.
  const std::uint64_t before = util::small_fn_heap_allocs();
  int fires = 0;
  DsmNode* node = &sys_.node(2);
  const std::uint32_t a = 1, b = 2, c = 3;
  sys_.node(2).arm_interrupt(lock_, [node, &fires, a, b, c](VarId, Word,
                                                            NodeId) {
    fires += static_cast<int>(a + b + c) > 0 ? 1 : 0;
    node->resume_insharing();
  });
  sys_.node(1).write(lock_, lock_request_value(1));
  sched_.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(util::small_fn_heap_allocs(), before);
  sys_.node(2).disarm_interrupt(lock_);
}

TEST_F(DsmNodeTest, ReadOfUnknownVarRejected) {
  EXPECT_THROW((void)sys_.node(0).read(12345), ContractViolation);
  EXPECT_THROW(sys_.node(0).write(12345, 1), ContractViolation);
}

}  // namespace
}  // namespace optsync::dsm
