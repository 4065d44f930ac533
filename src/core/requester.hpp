// The requester half of optimistic mutual exclusion (paper Fig. 4/5): one
// node's decisions for one lock, with no clock, no transport and no
// tracing. core::OptimisticMutex and rt::RtOptimisticMutex both drive it
// (PROTOCOL.md, "One protocol core").
#pragma once

#include "core/usage_history.hpp"
#include "dsm/types.hpp"

namespace optsync::core {

class Requester {
 public:
  Requester(dsm::NodeId self, double decay) : self_(self), history_(decay) {}

  /// Fig. 4 line 02: a new execution starts with nothing saved or seen.
  void begin() {
    saved_ = lost_ = granted_ = pending_rollback_ = rolled_back_ = false;
  }

  /// Lines 03-05: `old` is the local lock word the atomic exchange of the
  /// request replaced; it feeds the usage history.
  void request(dsm::Word old) {
    old_ = old;
    busy_ = dsm::lock_held(old) && dsm::lock_holder(old) != self_;
    history_.observe(busy_ ? 1.0 : 0.0);
  }

  struct Path {
    bool optimistic;    ///< speculate (line 14) rather than wait (line 08)
    bool history_veto;  ///< the usage history alone forced the wait
  };
  /// Line 07: does anything indicate current or recent usage?
  [[nodiscard]] Path choose(bool enable_optimistic, double threshold) const {
    const bool seen = busy_ || old_ != dsm::kLockFree || lost_;
    const bool recent = history_.indicates_usage(threshold);
    return {enable_optimistic && !seen && !recent,
            enable_optimistic && !seen && recent};
  }

  /// Line 16. Refuses once another node's grant has arrived: the root
  /// would drop every write of the speculation, and no rollback would be
  /// signalled for a grant seen before the variables were saved.
  [[nodiscard]] bool start_speculation() {
    if (lost_) return false;
    saved_ = true;
    return true;
  }

  enum class Verdict {
    kGranted,        ///< ours: let queued updates flow
    kMomentaryFree,  ///< a release before our request reached the root
    kLost,           ///< another node won; nothing was speculated
    kRollback,       ///< another node won a speculated-on lock: keep
                     ///< insharing suspended until the caller restores
  };
  /// Fig. 5: the interrupt decision for an applied lock word.
  Verdict on_lock_change(dsm::Word value) {
    if (dsm::lock_granted_to(value, self_)) {
      granted_ = true;
      return Verdict::kGranted;
    }
    if (value == dsm::kLockFree) return Verdict::kMomentaryFree;
    OPTSYNC_ENSURE(dsm::lock_held(value));
    history_.observe(1.0);  // P9: update usage frequency history
    lost_ = true;
    if (!saved_) return Verdict::kLost;
    pending_rollback_ = true;
    return Verdict::kRollback;
  }

  /// Lines 22-24: the caller has restored the saved variables.
  void finish_rollback() {
    saved_ = pending_rollback_ = false;
    rolled_back_ = true;
  }
  /// The speculation committed: the grant arrived with nothing to undo.
  void commit() { saved_ = false; }

  [[nodiscard]] bool granted() const { return granted_; }
  [[nodiscard]] bool rollback_pending() const { return pending_rollback_; }
  [[nodiscard]] bool rolled_back() const { return rolled_back_; }
  [[nodiscard]] const UsageHistory& history() const { return history_; }

 private:
  dsm::NodeId self_;
  UsageHistory history_;
  dsm::Word old_ = dsm::kLockFree;
  bool busy_ = false;
  bool saved_ = false;             // Fig. 4 variables_saved
  bool lost_ = false;              // a foreign grant arrived
  bool granted_ = false;           // our grant arrived
  bool pending_rollback_ = false;  // set by the interrupt, consumed by caller
  bool rolled_back_ = false;       // the body must re-run after the grant
};

}  // namespace optsync::core
