// The root half of the lock protocol (paper §2, §4): the per-group lock
// table and the decisions taken on it. No clock, no transport, no tracing —
// dsm::GroupRoot and the rt sequencer thread both drive it (PROTOCOL.md,
// "One protocol core").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dsm/types.hpp"
#include "util/ring.hpp"

namespace optsync::dsm {

class RootCore {
 public:
  /// Queue-lock state for one lock variable. The waiter queue is a flat
  /// ring buffer (deque surface, no per-node allocation): one push/pop per
  /// contended request sits on the sequencing hot path.
  struct LockState {
    NodeId holder = kNoNode;
    /// The holder got the lock by hand-off (from the queue on a release),
    /// not on a free lock: its request found another holder first.
    bool handed_off = false;
    util::Ring<NodeId> queue;
    std::uint64_t requests = 0;
    std::uint64_t immediate_grants = 0;  ///< granted without queueing
    std::uint64_t queued_grants = 0;     ///< granted from the queue
    std::uint64_t releases = 0;
    std::size_t max_queue_depth = 0;
  };

  enum class Verdict {
    kGrant,    ///< request on a free lock: the requester holds it now
    kQueued,   ///< request on a busy lock: nothing is sequenced
    kHandoff,  ///< release with waiters: the queue head holds it now
    kFree,     ///< release with no waiters: FREE is sequenced
  };
  struct Decision {
    Verdict verdict;
    NodeId holder;       ///< the holder after the decision
    std::uint32_t slot;  ///< dense lock index, for callers' side tables
    /// The lock word the root sequences (none for kQueued).
    [[nodiscard]] Word word() const {
      return verdict == Verdict::kFree ? kLockFree : lock_grant_value(holder);
    }
  };

  /// A lock word from `origin` reaches the root: a request -(origin + 1)
  /// or FREE. A release by a non-holder, a request on another node's
  /// behalf and a holder's nested request throw ContractViolation and
  /// leave the lock's state unchanged.
  Decision on_lock_word(VarId lock, NodeId origin, Word value);

  /// §4: mutex data guarded by `guard` is admitted only from its holder.
  /// A `speculative` write (issued while its writer speculated on `guard`)
  /// is refused from a holder granted by hand-off: that holder's request
  /// was queued behind another holder, whose grant reaches the writer
  /// while it speculates, so the speculation always rolls back and none
  /// of its writes may become visible.
  [[nodiscard]] bool admits(VarId guard, NodeId origin,
                            bool speculative = false) const {
    const LockState& ls = lock_state(guard);
    return ls.holder == origin && !(speculative && ls.handed_off);
  }

  /// The idle state for a lock nobody has written (or a non-lock VarId).
  [[nodiscard]] const LockState& lock_state(VarId lock) const;

  /// Total queued waiters across all locks.
  [[nodiscard]] std::size_t waiter_queue_depth() const;

 private:
  /// Flat table scanned linearly: groups hold a handful of locks (the
  /// sharded service exactly one), and the scan beats hashing at that size.
  std::vector<std::pair<VarId, LockState>> locks_;
};

}  // namespace optsync::dsm
