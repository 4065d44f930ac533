// Service-layer fault soak: the full sharded service — open-loop generator,
// per-shard lock protocols, cross-shard transactions — runs over a lossy,
// partitioned fiber, and every correctness invariant must hold on every
// shard: the applied write stream of each shard's group is a gapless total
// order with no speculative visibility (GWC, invariant 1 — proved by the
// streaming trace::GwcChecker), each shard's version word matches its
// committed-write count (mutual exclusion / serializability, invariant 2),
// and all replicas converge after quiesce. Seeds 900+ keep this suite's
// fault schedules disjoint from the substrate soak suites.
#include <gtest/gtest.h>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "trace/gwc_checker.hpp"

namespace optsync {
namespace {

/// Drop + partition attack: 8% loss on lock and data traffic, 4%
/// duplication, plus a seeded link partition window early in the run (the
/// reliable channel must retransmit across the healed link).
faults::FaultPlan service_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.08, "lock").drop(0.08, "data").duplicate(0.04);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 220'000);
  return plan;
}

class ServiceFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceFaultSoak, EveryShardSurvivesDropAndPartition) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  dsm::DsmConfig cfg;
  cfg.faults = service_attack(seed);
  const trace::GwcAudit audit(cfg);
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 220;
  gcfg.rate_rps = 60'000.0;
  gcfg.txn_fraction = 0.10;
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  sched.run();
  drive.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(report.completed(), gcfg.requests);
  // Invariant 2, per shard: version word == committed writes.
  for (shard::ShardId s = 0; s < scfg.shards; ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  // Invariant 1, per shard group: the checker audited every applied write
  // across all four groups and found a gapless, identical total order.
  EXPECT_TRUE(audit.checker().ok()) << audit.checker().report();
  EXPECT_GT(audit.checker().writes_checked(), 0u);
  // The attack actually did something.
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, ServiceFaultSoak,
                         ::testing::Range<std::uint64_t>(900, 922));

}  // namespace
}  // namespace optsync
