// Per-layer probes: host CPU cost of isolated calls into each layer's
// public entry points, one probe per unit of work the cost model counts.
//
// Every probe builds its own fixture, times only the calls under test with
// the process CPU clock, repeats, and reports the median cost per unit.
// Probes that drive the simulator also report how many scheduler events and
// group-member deliveries one unit caused, so the cost model can subtract
// the lower layers' share and charge each layer only its own (self) time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/generator.hpp"
#include "shard/sharded_store.hpp"

namespace optsync::perfbench {

/// Process CPU time in nanoseconds.
[[nodiscard]] double cpu_ns();

/// Median of `v`; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

struct ProbeResult {
  double ns_per_unit = 0.0;          ///< median inclusive CPU ns per unit
  double events_per_unit = 0.0;      ///< scheduler events per unit
  double deliveries_per_unit = 0.0;  ///< group-member deliveries per unit
  std::uint64_t units = 0;           ///< units timed per repetition
  bool ok = true;                    ///< the probe's own result checked out
  std::string failure;
};

/// Scheduler::at/run chains: `pending` self re-arming callbacks, so the
/// event queue holds that many events throughout.
ProbeResult probe_event(std::uint32_t pending);
/// DsmNode::write of a plain datum on a 16-member group; unit = one
/// member delivery.
ProbeResult probe_member_delivery();
/// GwcQueueLock acquire + release on a 16-member group; unit = one cycle.
ProbeResult probe_grant_cycle();
/// OptimisticMutex::execute of a one-word section on a 16-member group.
ProbeResult probe_optimistic_execute();
/// TxnManager begin + 3 x write_word + commit on one 16-member site.
ProbeResult probe_txn_commit();
/// Warm Client::read at ConsistencyLevel::kLeased on a client node.
ProbeResult probe_lease_hit();
/// Generator::plan of `cfg`; unit = one planned request.
ProbeResult probe_plan(const load::GeneratorConfig& cfg);
/// Tracer::record_span.
ProbeResult probe_span();
/// Journal::txn_abort.
ProbeResult probe_journal_append();
/// Sampler::sample_now over the gauges a store built from `cfg` registers.
ProbeResult probe_sampler_tick(const shard::ShardedStoreConfig& cfg);

}  // namespace optsync::perfbench
