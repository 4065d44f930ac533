#include "rt/rt_mutex.hpp"

#include "simkern/assert.hpp"

namespace optsync::rt {

RtOptimisticMutex::RtOptimisticMutex(RtSystem& sys, VarId lock, Config cfg)
    : sys_(&sys), lock_(lock), cfg_(cfg) {}

RtOptimisticMutex::NodeState& RtOptimisticMutex::state(NodeId n) {
  std::lock_guard lk(states_mu_);
  auto& slot = states_[n];
  if (!slot) slot = std::make_unique<NodeState>(n, cfg_.history_decay);
  return *slot;
}

RtOptimisticMutex::Outcome RtOptimisticMutex::execute(NodeId n,
                                                      const Section& sec) {
  OPTSYNC_EXPECT(sec.body != nullptr);
  auto& st = state(n);
  auto& sys = *sys_;
  {
    std::lock_guard lk(st.mu);
    if (st.in_section) {
      throw ContractViolation("cannot safely nest mutex lock requests");
    }
    st.in_section = true;
    st.req.begin();
  }
  stats_.executions.fetch_add(1, std::memory_order_relaxed);

  // Arm before the request: the applier thread may apply a lock word at
  // any instant, so every change from here on reaches the requester. The
  // handler runs on the applier thread with insharing already suspended;
  // every verdict except a rollback resumes insharing.
  sys.arm_interrupt(n, lock_, [this, n, &st](VarId, Word value, NodeId) {
    bool resume;
    {
      std::lock_guard lk(st.mu);
      resume = st.req.on_lock_change(value) !=
               core::Requester::Verdict::kRollback;
    }
    if (resume) sys_->resume_insharing(n);
    st.cv.notify_all();
  });

  // Request the lock: atomically swap the local copy (Fig. 4 lines 03-04).
  const Word old_val =
      sys.atomic_exchange(n, lock_, dsm::lock_request_value(n));
  bool optimistic;
  {
    std::lock_guard lk(st.mu);
    st.req.request(old_val);
    optimistic =
        st.req.choose(cfg_.enable_optimistic, cfg_.history_threshold)
            .optimistic;
  }

  Outcome outcome;
  std::vector<Word> saved_values(sec.shared_writes.size());
  if (optimistic) {
    stats_.optimistic_attempts.fetch_add(1, std::memory_order_relaxed);
    outcome.used_optimistic = true;
    for (std::size_t i = 0; i < sec.shared_writes.size(); ++i) {
      saved_values[i] = sys.read(n, sec.shared_writes[i]);
    }
    if (sec.save_locals) sec.save_locals();
    // Another node's grant may have been applied while the variables were
    // being saved; the requester then refuses and the execution waits.
    {
      std::lock_guard lk(st.mu);
      optimistic = st.req.start_speculation();
    }
    // The body's writes go out tagged until the speculation commits or is
    // restored (the sequencer refuses them on a hand-off grant).
    if (optimistic) sys.begin_speculation(n, lock_);
  }

  if (!optimistic) {
    // ---- Regular path -------------------------------------------------
    stats_.regular_paths.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock lk(st.mu);
      st.cv.wait(lk, [&] { return st.req.granted(); });
    }
    sec.body(n);
  } else {
    // ---- Optimistic path ----------------------------------------------
    sec.body(n);  // speculative: the sequencer filters our shared writes
                  // until the grant is ours

    bool rolled_back = false;
    for (;;) {
      std::unique_lock lk(st.mu);
      if (st.req.rollback_pending()) {
        st.req.finish_rollback();
        rolled_back = true;
        lk.unlock();
        // Rollback on this thread (the paper's lines 22-26): restore local
        // memory, then let queued updates flow.
        for (std::size_t i = 0; i < sec.shared_writes.size(); ++i) {
          sys.poke(n, sec.shared_writes[i], saved_values[i]);
        }
        if (sec.restore_locals) sec.restore_locals();
        sys.end_speculation(n, lock_);
        sys.resume_insharing(n);
        continue;
      }
      if (st.req.granted()) break;
      st.cv.wait(lk, [&] {
        return st.req.granted() || st.req.rollback_pending();
      });
    }

    if (rolled_back) {
      stats_.rollbacks.fetch_add(1, std::memory_order_relaxed);
      outcome.rolled_back = true;
      sec.body(n);  // re-run with the lock actually held
    } else {
      stats_.optimistic_successes.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lk(st.mu);
        st.req.commit();
      }
      sys.end_speculation(n, lock_);
    }
  }

  sys.disarm_interrupt(n, lock_);
  sys.write(n, lock_, kLockFree);
  {
    std::lock_guard lk(st.mu);
    st.in_section = false;
  }
  return outcome;
}

}  // namespace optsync::rt
