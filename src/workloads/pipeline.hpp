// Linear pipeline workload (paper §4.1 / Fig. 8).
//
// "Each processor repeatedly waits for data from processor i-1, performs
// local computations, gets a lock, performs more local computations and
// updates shared data in a mutually exclusive section. After releasing the
// lock, it calculates new data and shares it with processor i+1. Processor i
// then continues local calculations before looping again."
//
// One wavefront circulates a ring of N processors for `data_items` total
// hops (1024 data -> 1024/N iterations per processor, "from 1024 to 8
// iterations of the main loop" for 1..128 CPUs). Exactly one processor wants
// the single global mutex at a time — the pipeline serializes requests — so
// "there is no contention ... and no rollbacks occur": the workload isolates
// how much of the lock round trip each method hides.
//
// Methods (the figure's four lines):
//   kNoDelay    — zero network delay: the "maximum network speedup
//                 (1.89 for 2 or more processors)" bound (linear pipelining
//                 keeps it below 2);
//   kOptimistic — optimistic mutual exclusion under GWC;
//   kRegular    — non-optimistic GWC queue lock;
//   kEntry      — entry consistency (data travels with the lock; pipeline
//                 data is demand-fetched).
#pragma once

#include <cstdint>

#include "dsm/types.hpp"
#include "net/topology.hpp"
#include "simkern/time.hpp"
#include "stats/lock_stats.hpp"

namespace optsync::workloads {

enum class PipelineMethod { kNoDelay, kOptimistic, kRegular, kEntry };

struct PipelineParams {
  /// Total wavefront hops; each processor runs data_items / N iterations.
  std::uint32_t data_items = 1024;

  /// One set of local calculations (the paper's "local task"):
  /// 165 flops at 33 MFLOPS = 5 us.
  std::uint64_t local_flops = 165;

  /// Mutex section compute = mutex_ratio * local compute. The paper selects
  /// the ratio so the section is "smaller than the local task time, but not
  /// so small that local calculations completely dominate" and so the lock
  /// request delay "can initially be overlapped by calculations" — 1/5.
  double mutex_ratio = 0.2;

  /// Pipeline datum size (written by i, read by i+1).
  std::uint32_t pipe_data_bytes = 32;

  /// Size of the data guarded by the mutex; entry consistency ships it with
  /// every grant ("extra time ... to transmit the shared data").
  std::uint32_t mutex_data_bytes = 640;

  net::NodeId group_root = 0;

  /// Substrate config for the GWC variants (coalescing, reliability, the
  /// journal). kNoDelay overrides the link/root costs on a copy; kEntry
  /// ignores it entirely.
  dsm::DsmConfig dsm;
};

struct PipelineResult {
  double network_power = 0.0;
  double avg_efficiency = 0.0;
  sim::Time elapsed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t optimistic_attempts = 0;
  std::uint64_t optimistic_successes = 0;
  std::uint64_t rollbacks = 0;
  /// Final value of the mutex-updated accumulator; equals the hop count in
  /// every correct run (used by the integration tests).
  std::int64_t shared_accumulator = 0;
  /// Per-lock observability record for pipe.lock (GWC variants only).
  stats::LockStats lock_stats;
};

PipelineResult run_pipeline(PipelineMethod method, const PipelineParams& p,
                            const net::Topology& topo);

}  // namespace optsync::workloads
