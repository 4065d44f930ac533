// The regular (non-optimistic) GWC queue lock (paper §2): the simulator's
// one §2 lock client.
//
// A lock is an ordinary eagerly shared variable. A requester atomically
// writes -(its id) into the local copy; the sharing interface forwards the
// request to the group root, which grants immediately or queues the id.
// The grant (+id) and the free value propagate as sequenced group writes,
// so "a processor always receives exclusive access within one or one half
// round-trip time of the lock being freed" and grants always follow the
// previous holder's data writes.
//
// The client has two entry points over one per-lock acquire (the
// exchange, the wait for the grant and the kLockWait span):
//   * GwcQueueLock — one lock, with counters;
//   * acquire_ordered / release_ordered — "mutual exclusion across
//     multiple groups requires permissions from all the involved roots":
//     the per-lock acquire once per lock, composed in the canonical order.
// Both validate synchronously, before any request leaves the node.
//
// CANONICAL LOCK ORDER (deadlock-avoidance invariant): every multi-lock
// acquisition in the simulator — the OCC commit in txn::TxnManager and the
// sharded store's irrevocable transactions and directory moves — goes
// through acquire_ordered, which takes its locks in strictly ascending
// VarId. A cycle in the wait-for graph would need some node to hold a
// higher-ordered lock while waiting for a lower one, so no mix of
// overlapping lock sets can deadlock. acquire_ordered is the only place
// that order is established.
//
// OptimisticMutex::execute subsumes GwcQueueLock when a prepared Section
// is available.
#pragma once

#include <vector>

#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "sync/lock.hpp"

namespace optsync::sync {

/// Sorts `*locks` into the canonical order, then acquires every lock for
/// node `n` in that order. Validated synchronously: the set is non-empty,
/// holds no duplicates, `n` is a member of every lock's group and holds
/// none of them yet. `*locks` must outlive the returned Process; hand the
/// same (now sorted) vector to release_ordered.
sim::Process acquire_ordered(dsm::DsmSystem& sys,
                             std::vector<dsm::VarId>* locks, dsm::NodeId n);

/// Releases every lock of a set acquire_ordered took, in reverse order.
/// An empty set releases nothing.
void release_ordered(dsm::DsmSystem& sys,
                     const std::vector<dsm::VarId>& locks, dsm::NodeId n);

class GwcQueueLock {
 public:
  /// `lock` must be a lock variable of `sys`.
  GwcQueueLock(dsm::DsmSystem& sys, dsm::VarId lock);

  GwcQueueLock(const GwcQueueLock&) = delete;
  GwcQueueLock& operator=(const GwcQueueLock&) = delete;

  /// Requests the lock for node `n` and completes when the grant reaches
  /// the node's local memory. Throws ContractViolation, before anything is
  /// sent, when `n` is not a member of the lock's group or already holds
  /// the lock. Use as: co_await lk.acquire(n).join();
  sim::Process acquire(dsm::NodeId n);

  /// Releases the lock (must follow the holder's last data write so GWC
  /// ordering carries data-before-release to every member).
  void release(dsm::NodeId n);

  /// True when node `n`'s local copy shows `n` as the holder.
  [[nodiscard]] bool held_by(dsm::NodeId n) const;

  [[nodiscard]] dsm::VarId lock_var() const { return lock_; }

  /// Live counters (unified shape; the optimistic-path fields stay zero —
  /// this is the regular §2 protocol).
  [[nodiscard]] const LockStatsView& stats() const { return stats_; }

 private:
  dsm::DsmSystem* sys_;
  dsm::VarId lock_;
  LockStatsView stats_;
};

}  // namespace optsync::sync
