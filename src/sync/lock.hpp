// One shared stats shape for the lock clients.
//
// sync::GwcQueueLock, core::OptimisticMutex and rt::RtOptimisticMutex all
// report their counters as a LockStatsView — a plain value snapshot every
// implementation can fill (the threaded runtime's mutex snapshots its
// atomics into one; the simulator locks hand out their live counters).
//
// Counters an implementation has no concept of stay zero: a plain queue
// lock never speculates, so its optimistic_* fields are 0; a mutex driven
// only through execute() counts executions alongside acquisitions.
#pragma once

#include <cstdint>

#include "simkern/time.hpp"

namespace optsync::sync {

/// Value snapshot of a lock's accounting. Field names are the union of the
/// historical per-class Stats structs so call sites read the same way they
/// always did (`lk.stats().rollbacks`, `lk.stats().total_wait_ns`, ...).
struct LockStatsView {
  // --- queueing / blocking (every lock) -------------------------------
  std::uint64_t acquisitions = 0;   ///< ownership confirmations
  std::uint64_t releases = 0;       ///< FREE writes issued
  sim::Duration total_wait_ns = 0;  ///< request-to-grant, summed
  sim::Duration max_wait_ns = 0;

  // --- execution-path accounting (optimistic mutexes; zero elsewhere) --
  std::uint64_t executions = 0;           ///< execute() calls completed
  std::uint64_t optimistic_attempts = 0;  ///< speculative entries
  std::uint64_t optimistic_successes = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t regular_paths = 0;
  std::uint64_t context_switches = 0;  ///< blocking episodes that swapped
  std::uint64_t history_vetoes = 0;    ///< regular paths forced purely by
                                       ///< the EWMA history estimate
};

}  // namespace optsync::sync
