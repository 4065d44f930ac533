// Optimistic mutual exclusion under group write consistency (paper §4).
//
// The central contribution of the paper: a requester that estimates the lock
// to be free sends a non-blocking lock request and executes the critical
// section immediately, before permission arrives. Safety comes from the
// substrate:
//   * the group root discards mutex-data writes from non-holders, so
//     speculative updates are invisible to every other node;
//   * a lock-change interrupt atomically suspends insharing so a rollback
//     can restore journal state without racing incoming updates;
//   * hardware blocking drops late self-echoes that could overwrite
//     restored values (Fig. 6).
//
// OptimisticMutex::execute() is the library equivalent of the paper's
// compiler-generated transformation (Fig. 4): the caller provides the
// section body plus its write-set and local-variable save/restore hooks, and
// the mutex decides per-execution between the optimistic and regular paths
// using the local lock copy and the usage-frequency history.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "core/requester.hpp"
#include "core/rollback_journal.hpp"
#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "stats/lock_stats.hpp"
#include "sync/lock.hpp"
#include "telemetry/journal.hpp"

namespace optsync::core {

/// A critical section prepared for optimistic execution.
struct Section {
  /// Mutex-data variables the body writes — the compiler's save list
  /// (Fig. 4 lines 14-15). Every shared variable the body may change MUST
  /// be listed or rollback cannot restore it.
  std::vector<dsm::VarId> shared_writes;

  /// Optional save/restore hooks for the body's local variables
  /// (the paper's saved_lcl_c). save_locals runs before speculation;
  /// restore_locals runs on rollback.
  std::function<void()> save_locals;
  std::function<void()> restore_locals;

  /// The section body. Invoked once for a successful execution; invoked a
  /// second time (after rollback, once the lock is actually held) when a
  /// speculation fails — so it must be re-runnable.
  std::function<sim::Process(dsm::DsmNode&)> body;
};

/// Per-execution accounting, filled in by execute().
struct ExecuteStats {
  bool used_optimistic = false;
  bool rolled_back = false;
  sim::Time requested_at = 0;
  sim::Time finished_at = 0;
};

class OptimisticMutex {
 public:
  struct Config {
    /// Master switch; false degrades execute() to the regular GWC queue
    /// lock protocol (used for the non-optimistic comparison lines).
    bool enable_optimistic = true;

    /// Take the regular path when the history estimate exceeds this
    /// (paper example: 0.30).
    double history_threshold = 0.30;

    /// EWMA decay of the history (paper example: 0.95).
    double history_decay = 0.95;

    /// Local-memory cost to save or restore one journal entry. Two 8-byte
    /// words through 400 MB/s memory = 40 ns.
    sim::Duration save_cost_per_var_ns = 40;

    /// One-way context-swap cost. A blocked request ("either a context
    /// swap or a busy wait occurs", §5) spins for up to this long first;
    /// if the grant still has not arrived it swaps out and pays 2x this on
    /// top of the wait (spin-then-swap). 0 models pure busy-waiting.
    sim::Duration context_switch_ns = 0;

    /// Optional per-lock metrics record, shared by every node using this
    /// mutex (acquire/hold latencies, speculation outcomes, history-gate
    /// decisions). Not owned; nullptr disables collection.
    stats::LockStats* lock_stats = nullptr;
  };

  /// `lock` must be a lock variable defined in `sys`.
  OptimisticMutex(dsm::DsmSystem& sys, dsm::VarId lock, Config cfg);
  OptimisticMutex(dsm::DsmSystem& sys, dsm::VarId lock)
      : OptimisticMutex(sys, lock, Config{}) {}

  OptimisticMutex(const OptimisticMutex&) = delete;
  OptimisticMutex& operator=(const OptimisticMutex&) = delete;

  /// Executes `section` on node `n` under this mutex. Chooses the
  /// optimistic or regular path per the paper's Fig. 4 test; handles
  /// speculation failure by rollback + regular wait + re-execution.
  ///
  /// Precondition violations (nested execution, malformed sections) throw
  /// synchronously. Returns the driving Process; callers co_await its
  /// join() (or run the scheduler to completion).
  sim::Process execute(dsm::NodeId n, Section section,
                       ExecuteStats* out = nullptr);

  /// The node's current busyness estimate for this lock.
  [[nodiscard]] double history_value(dsm::NodeId n) const;

  /// True while node `n` is inside execute() (Fig. 4 line 01/28 guard).
  [[nodiscard]] bool in_section(dsm::NodeId n) const;

  /// Live counters in the unified shape (executions, optimistic_attempts,
  /// rollbacks, ... — the historical field names are all preserved there).
  [[nodiscard]] const sync::LockStatsView& stats() const { return stats_; }

  [[nodiscard]] dsm::VarId lock_var() const { return lock_; }

 private:
  struct NodeState {
    NodeState(dsm::NodeId n, double decay) : req(n, decay) {}
    Requester req;
    RollbackJournal journal;
    bool in_section = false;
  };

  NodeState& state(dsm::NodeId n);
  void on_lock_interrupt(dsm::NodeId n, dsm::Word value);
  sim::Process execute_impl(dsm::NodeId n, Section section, ExecuteStats* out);
  /// Reports a lock transition to the attached journal; inline so the
  /// common no-journal case stays one load and branch.
  void emit(dsm::NodeId n, telemetry::Journal::Kind kind, dsm::Word value) {
    if (auto* j = sys_->journal()) {
      j->protocol(kind, sys_->scheduler().now(), n, sys_->var(lock_).group,
                  lock_, 0, value, n, "lock");
    }
  }

  dsm::DsmSystem* sys_;
  dsm::VarId lock_;
  Config cfg_;
  std::unordered_map<dsm::NodeId, NodeState> states_;
  sync::LockStatsView stats_;
};

}  // namespace optsync::core
