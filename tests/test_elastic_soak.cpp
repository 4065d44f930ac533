// Elastic-fabric fault soak: the full reconfiguration repertoire — hot-key
// promotion, stripe split, online root migration, merge-back, demotion —
// executes mid-stream while the open-loop generator hammers the service
// over a lossy, duplicating, partitioned fiber. Every invariant must hold
// on every seed: the applied write stream of every shard group (hot groups
// included) is a gapless total order across each cut (streaming
// trace::GwcChecker), every shard's version word matches its committed
// write count, replicas converge after quiesce, and — in the leased
// partial-replication variant — the StaleReadAuditor records zero
// superseded serves across the moves. Seeds 1200+ keep the fault schedules
// disjoint from the other soak suites.
#include <gtest/gtest.h>

#include "dsm/system.hpp"
#include "elastic/directory_manager.hpp"
#include "elastic/migrator.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/coro.hpp"
#include "trace/gwc_checker.hpp"

namespace optsync {
namespace {

using shard::Key;
using shard::ShardId;

faults::FaultPlan elastic_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.06, "lock").drop(0.06, "data").duplicate(0.03);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 200'000);
  return plan;
}

/// The scripted reconfiguration storm, serialized in one coroutine so at
/// most one directory mutation is in flight (the controller's own rule):
/// promote -> split -> migrate -> merge-back -> demote, spread across the
/// load window so each lands under different traffic and fault phases.
sim::Process reconfigure(shard::ShardedStore& store,
                         elastic::DirectoryManager& dir,
                         elastic::RootMigrator& mig, Key hot_key,
                         dsm::NodeId mig_to) {
  auto& sched = store.system().scheduler();
  const ShardId hot = store.base_shards();
  co_await sim::delay(sched, 120'000);
  co_await dir.promote(hot_key, hot).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.split(0, 1).join();
  co_await sim::delay(sched, 250'000);
  co_await mig.migrate(0, mig_to).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.merge_back(0).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.demote(hot_key).join();
}

class ElasticFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElasticFaultSoak, ReconfigurationsSurviveDropsAndPartitions) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  dsm::DsmConfig cfg;
  cfg.faults = elastic_attack(seed);
  const trace::GwcAudit audit(cfg);
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 256;
  scfg.slots_per_shard = 16;
  scfg.elastic.enabled = true;
  scfg.elastic.hot_groups = 2;
  shard::ShardedStore store(sys, scfg);
  elastic::DirectoryManager dir(store);
  elastic::RootMigrator mig(store);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 260;
  gcfg.rate_rps = 60'000.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 256;
  gcfg.txn_fraction = 0.10;
  gcfg.node_span = 7;  // full replication: keep the control node client-free
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);

  // Zipf rank 1 is key 1 — the head the promotion targets. The migration
  // target is any member that is neither the current root nor the control
  // node.
  const dsm::NodeId cur = store.root_of(0);
  const dsm::NodeId mig_to = cur == 1 ? 2 : 1;
  auto storm = reconfigure(store, dir, mig, 1, mig_to);
  sched.run();
  drive.rethrow_if_failed();
  storm.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(report.completed(), gcfg.requests);
  // The storm actually exercised every reconfiguration class.
  EXPECT_EQ(mig.stats().migrations, 1u) << "seed " << seed;
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(dir.stats().demotions, 1u);
  EXPECT_EQ(dir.stats().splits, 1u);
  EXPECT_EQ(dir.stats().merges, 1u);
  EXPECT_EQ(store.root_of(0), mig_to);
  // Invariant 2 on every shard, hot groups included.
  for (ShardId s = 0; s < store.shards(); ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  // Invariant 1 across every cut: gapless, identical, no speculation.
  EXPECT_TRUE(audit.checker().ok()) << audit.checker().report();
  EXPECT_GT(audit.checker().writes_checked(), 0u);
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, ElasticFaultSoak,
                         ::testing::Range<std::uint64_t>(1200, 1222));

// Partial replication + leases: the directory moves route through proxy
// chains, lease epochs travel with their slots, and the StaleReadAuditor
// independently witnesses that no leased read ever served a superseded
// value across a promotion/demotion cycle.
/// Promotion/split/merge/demotion cycle without a migration (roots stay
/// on server nodes; the proxy-chain reassign path is what's under test).
sim::Process lease_storm(shard::ShardedStore& store,
                         elastic::DirectoryManager& dir) {
  auto& sched = store.system().scheduler();
  const ShardId hot = store.base_shards();
  co_await sim::delay(sched, 150'000);
  co_await dir.promote(1, hot).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.split(0, 2).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.merge_back(0).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.demote(1).join();
}

class ElasticLeaseSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElasticLeaseSoak, LeasedReadsStayEpochCleanAcrossMoves) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  dsm::DsmConfig cfg;
  cfg.faults = elastic_attack(seed);
  const trace::GwcAudit audit(cfg);
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 256;
  scfg.slots_per_shard = 16;
  scfg.elastic.enabled = true;
  scfg.elastic.hot_groups = 2;
  scfg.lease.enabled = true;
  scfg.lease.server_nodes = 4;
  scfg.lease.ttl_ns = 1'000'000;
  shard::ShardedStore store(sys, scfg);
  elastic::DirectoryManager dir(store);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed ^ 0x1ea5e;
  gcfg.requests = 220;
  gcfg.rate_rps = 50'000.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 256;
  gcfg.read_fraction = 0.5;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);

  auto storm = lease_storm(store, dir);
  sched.run();
  drive.rethrow_if_failed();
  storm.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(dir.stats().demotions, 1u);
  EXPECT_EQ(dir.stats().splits, 1u);
  EXPECT_EQ(dir.stats().merges, 1u);
  for (ShardId s = 0; s < store.shards(); ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  EXPECT_TRUE(audit.checker().ok()) << audit.checker().report();
  ASSERT_NE(store.leases(), nullptr);
  EXPECT_TRUE(store.leases()->auditor().ok())
      << store.leases()->auditor().report();
}

INSTANTIATE_TEST_SUITE_P(LeasedMoveSeeds, ElasticLeaseSoak,
                         ::testing::Range<std::uint64_t>(1300, 1310));

}  // namespace
}  // namespace optsync
