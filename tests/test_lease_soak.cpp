// Lease tier fault soak (soak label): the leased read-replica cache runs a
// read-heavy zipf mix over partial replication — four server nodes, four
// client nodes — while the fiber drops, duplicates, and partitions every
// message class, INCLUDING the lease RPCs and the forwarded client
// mutations. For 20+ fault seeds, every run must prove:
//
//   * bounded staleness: the StaleReadAuditor (an independent witness fed
//     only invalidation deliveries and lease-served reads) observes zero
//     serves of a superseded epoch and zero serves past TTL;
//   * GWC (invariant 1): trace::GwcChecker audits every applied write of
//     every shard group into a gapless, identical total order — the lease
//     tier rides the flush path and must not perturb it;
//   * serializability + convergence: per-shard ledgers stay exact and all
//     member replicas agree after quiesce;
//   * closed accounting: every request completes (forwarded mutations
//     survive the faults via the reliable channel's retransmission);
//   * the tier was exercised: across the suite, lease hits, grants, and
//     invalidations are all nonzero (a soak that never leased proves
//     nothing).
//
// Seeds 1400+ keep these fault schedules disjoint from the other soaks.
#include <gtest/gtest.h>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/lease.hpp"
#include "shard/sharded_store.hpp"
#include "trace/gwc_checker.hpp"

namespace optsync {
namespace {

faults::FaultPlan lease_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.08, "lock")
      .drop(0.08, "data")
      .drop(0.08, "lease")  // grants, requests, update-invalidations
      .drop(0.08, "svc")    // forwarded client mutations + acks
      .drop(0.08, "read")   // linearizable remote reads
      .duplicate(0.04);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 220'000);
  return plan;
}

// Aggregated across the whole suite so the exercised-tier assertions can
// live in one place (any single seed may legitimately see few leases).
struct SuiteTotals {
  std::uint64_t hits = 0;
  std::uint64_t grants = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t audited_serves = 0;
};
SuiteTotals g_totals;

class LeaseFaultSoak : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Runs once after the whole seed sweep: the soak must actually have
  // exercised every leg of the tier — hits, grants, update-invalidations,
  // and auditor-witnessed serves (a soak that never leased proves nothing).
  static void TearDownTestSuite() {
    EXPECT_GT(g_totals.hits, 0u);
    EXPECT_GT(g_totals.grants, 0u);
    EXPECT_GT(g_totals.invalidations, 0u);
    EXPECT_GT(g_totals.audited_serves, 0u);
  }
};

TEST_P(LeaseFaultSoak, StalenessBoundHoldsUnderDropAndPartition) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  dsm::DsmConfig cfg;
  cfg.faults = lease_attack(seed);
  const trace::GwcAudit audit(cfg);
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.slots_per_shard = 16;
  scfg.lease.server_nodes = 4;
  scfg.lease.enabled = true;
  // Short TTL relative to the run so expiry paths fire under faults too.
  scfg.lease.ttl_ns = 400'000;
  shard::ShardedStore store(sys, scfg);

  // Read-heavy and skewed: hot stripes are leased by every client and
  // written often enough that update-invalidations race the reads they
  // chase. A slice of linearizable reads keeps the bypass path honest.
  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 260;
  gcfg.rate_rps = 80'000.0;
  gcfg.read_fraction = 0.75;
  gcfg.txn_fraction = 0.10;
  gcfg.rmw_fraction = 0.05;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 24;
  gcfg.keys.zipf_s = 1.0;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  sched.run();
  drive.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(report.completed(), gcfg.requests);
  EXPECT_EQ(report.issued(), report.completed()) << "seed " << seed;

  const auto& auditor = store.leases()->auditor();
  EXPECT_TRUE(auditor.ok()) << "seed " << seed << ": " << auditor.report();
  EXPECT_TRUE(audit.checker().ok()) << audit.checker().report();
  EXPECT_GT(audit.checker().writes_checked(), 0u);
  for (shard::ShardId s = 0; s < scfg.shards; ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
    const auto& c = store.leases()->counters(s);
    g_totals.hits += c.hits;
    g_totals.grants += c.grants;
    g_totals.invalidations += c.invalidations;
  }
  g_totals.audited_serves += auditor.checks();
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, LeaseFaultSoak,
                         ::testing::Range<std::uint64_t>(1400, 1422));

}  // namespace
}  // namespace optsync
