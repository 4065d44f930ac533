// Elastic fabric tests: the versioned directory overlays route exactly as
// specified (pins beat overrides beat the base policy, every mutation bumps
// the epoch), online root migration keeps each group's sequenced stream
// gapless across the cut (streaming GwcChecker), stripe split/merge and
// hot-key promote/demote move data without losing a value or a ledger
// count, stale-directory clients are redirected — never served a wrong
// answer — for reads, writes, leased reads, and multi-key txns, and the
// controller's hysteresis keeps the trigger quiet under oscillating load.
#include "elastic/controller.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dsm/system.hpp"
#include "elastic/directory_manager.hpp"
#include "elastic/migrator.hpp"
#include "shard/client.hpp"
#include "shard/shard_map.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/assert.hpp"
#include "telemetry/overload.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/series.hpp"
#include "trace/gwc_checker.hpp"

namespace optsync {
namespace {

using shard::Key;
using shard::ShardId;
using shard::ShardMap;

// ------------------------------------------------- ShardMap overlays ---

TEST(ShardMapOverlay, PinBeatsOverrideBeatsBase) {
  auto map = ShardMap::ranged(4, 1024);
  ASSERT_EQ(map.shard_of(5), 0u);
  map.assign_range(0, 16, 2);
  map.pin(5, 7);  // hot groups live past the base modulus on purpose
  EXPECT_EQ(map.shard_of(5), 7u);    // pin wins
  EXPECT_EQ(map.shard_of(6), 2u);    // override next
  EXPECT_EQ(map.shard_of(100), 0u);  // base policy elsewhere
  map.unpin(5);
  EXPECT_EQ(map.shard_of(5), 2u);  // falls back to the override
  map.clear_range(0, 16);
  EXPECT_EQ(map.shard_of(5), 0u);  // and then to the base stripe
}

TEST(ShardMapOverlay, OverridesNeverOverlap) {
  auto map = ShardMap::ranged(4, 1024);
  map.assign_range(0, 16, 2);
  map.assign_range(8, 24, 3);  // trims the first override to [0, 8)
  EXPECT_EQ(map.shard_of(4), 2u);
  EXPECT_EQ(map.shard_of(12), 3u);
  EXPECT_EQ(map.shard_of(20), 3u);
  Key prev_hi = 0;
  for (const auto& o : map.overrides()) {
    EXPECT_GE(o.lo, prev_hi);  // sorted, disjoint
    EXPECT_LT(o.lo, o.hi);
    prev_hi = o.hi;
  }
  map.clear_range(10, 14);  // punches a hole: partial coverage trims
  EXPECT_EQ(map.shard_of(12), 0u);
  EXPECT_EQ(map.shard_of(9), 3u);
  EXPECT_EQ(map.shard_of(15), 3u);
}

TEST(ShardMapOverlay, EveryMutationBumpsTheVersion) {
  // The exact count is unspecified (assign_range clears first, so it may
  // bump more than once); what clients rely on is that EVERY mutation
  // strictly advances the epoch — equality means "nothing moved".
  auto map = ShardMap::ranged(4, 1024);
  EXPECT_EQ(map.version(), 0u);
  EXPECT_FALSE(map.mutated());
  std::uint64_t prev = 0;
  map.pin(1, 5);
  EXPECT_GT(map.version(), prev);
  prev = map.version();
  map.unpin(1);
  EXPECT_GT(map.version(), prev);
  prev = map.version();
  map.assign_range(0, 8, 1);
  EXPECT_GT(map.version(), prev);
  prev = map.version();
  map.clear_range(0, 8);
  EXPECT_GT(map.version(), prev);
  EXPECT_TRUE(map.mutated());
}

// ---------------------------------------------------- root placement ---

TEST(RootStride, RejectsStrideWhoseCycleStacksRoots) {
  // 8 members, stride 2: the cycle reaches only 4 distinct nodes. With 8
  // shards that silently stacked two roots per node while half the machine
  // sat idle — now a construction-time contract violation.
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(8);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  shard::ShardedStoreConfig cfg;
  cfg.shards = 8;
  cfg.root_stride = 2;
  EXPECT_THROW(shard::ShardedStore(sys, cfg), ContractViolation);
}

TEST(RootStride, EvenWrapAndShortCyclesStayAllowed) {
  // A coprime stride covers all members, so wrapping (shards > members) is
  // an even stack; and a short cycle is fine while it still covers the
  // shard count.
  {
    sim::Scheduler sched;
    const auto topo = net::MeshTorus2D::near_square(8);
    dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
    shard::ShardedStoreConfig cfg;
    cfg.shards = 16;
    cfg.root_stride = 3;
    shard::ShardedStore store(sys, cfg);
    std::vector<std::uint32_t> roots(8, 0);
    for (ShardId s = 0; s < 16; ++s) ++roots[store.root_of(s)];
    for (const auto c : roots) EXPECT_EQ(c, 2u);  // even, not stacked
  }
  {
    sim::Scheduler sched;
    const auto topo = net::MeshTorus2D::near_square(8);
    dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
    shard::ShardedStoreConfig cfg;
    cfg.shards = 4;
    cfg.root_stride = 2;  // cycle of 4 >= 4 shards: distinct roots
    shard::ShardedStore store(sys, cfg);
    std::vector<bool> seen(8, false);
    for (ShardId s = 0; s < 4; ++s) {
      EXPECT_FALSE(seen[store.root_of(s)]);
      seen[store.root_of(s)] = true;
    }
  }
}

// ------------------------------------------------------------ fixture ---

struct Fixture {
  explicit Fixture(shard::ShardedStoreConfig cfg, std::uint32_t nodes = 8,
                   dsm::DsmConfig dcfg = {})
      : topo(net::MeshTorus2D::near_square(nodes)),
        sys(sched, topo, dcfg),
        store(sys, cfg),
        client(store) {}
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  shard::ShardedStore store;
  shard::Client client;
};

shard::ShardedStoreConfig elastic_cfg() {
  shard::ShardedStoreConfig cfg;
  cfg.shards = 4;
  cfg.policy = ShardMap::Policy::kRange;
  cfg.key_space = 64;
  cfg.slots_per_shard = 32;
  cfg.elastic.enabled = true;
  cfg.elastic.hot_groups = 2;
  return cfg;
}

sim::Process put_batch(Fixture& f, dsm::NodeId n, std::vector<Key> keys,
                       dsm::Word base) {
  for (const Key k : keys) {
    co_await f.client.write(n, k, base + static_cast<dsm::Word>(k)).join();
  }
}

// Reads may pay an async stale-directory probe after a mutation, so run
// the scheduler to completion rather than expecting a synchronous answer.
std::optional<dsm::Word> read_run(Fixture& f, dsm::NodeId n, Key k) {
  std::optional<dsm::Word> out;
  auto p = f.client.read(n, k, &out);
  f.sched.run();
  p.rethrow_if_failed();
  return out;
}

void expect_ledgers_exact(Fixture& f) {
  for (ShardId s = 0; s < f.store.shards(); ++s) {
    EXPECT_EQ(f.store.version(s),
              static_cast<dsm::Word>(f.store.committed_writes(s)))
        << "shard " << s;
  }
  EXPECT_TRUE(f.store.replicas_converged());
}

// ----------------------------------------------------- root migration ---

TEST(RootMigration, SequencedStreamContinuesAcrossTheCut) {
  dsm::DsmConfig dcfg;
  const trace::GwcAudit audit(dcfg);
  const trace::GwcChecker& checker = audit.checker();
  Fixture f(elastic_cfg(), 8, dcfg);
  elastic::RootMigrator mig(f.store);

  const dsm::NodeId old_root = f.store.root_of(0);
  const dsm::NodeId new_root = old_root == 1 ? 2 : 1;
  ASSERT_NE(new_root, f.store.control_node());

  // Writers on several nodes hammer shard 0's stripe [0, 16) while the
  // migration cuts over mid-stream; the handoff log must replay the racers
  // with no gap and no reorder (the checker proves it).
  std::vector<sim::Process> writers;
  for (dsm::NodeId n = 0; n < 4; ++n) {
    std::vector<Key> keys;
    for (int r = 0; r < 10; ++r) keys.push_back(1 + (n * 7 + r) % 15);
    writers.push_back(put_batch(f, n, std::move(keys), 1'000 * (n + 1)));
  }
  std::optional<sim::Process> move;
  f.sched.at(5'000, [&] { move = mig.migrate(0, new_root); });
  f.sched.run();
  for (auto& w : writers) w.rethrow_if_failed();
  ASSERT_TRUE(move.has_value());
  move->rethrow_if_failed();

  EXPECT_EQ(f.store.root_of(0), new_root);
  EXPECT_EQ(mig.stats().migrations, 1u);
  EXPECT_GT(mig.stats().total_quiesce_ns, 0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.writes_checked(), 0u);
  expect_ledgers_exact(f);

  // The report names the effective placement, not the construction-time
  // stride walk.
  stats::ServiceReport report;
  report.shards.resize(f.store.shards());
  f.store.fill_report(report);
  EXPECT_EQ(report.shards[0].root_node, new_root);
}

// ------------------------------------------------- split / merge-back ---

TEST(Directory, SplitMovesTheUpperHalfAndMergeRestoresIt) {
  Fixture f(elastic_cfg());
  elastic::DirectoryManager dir(f.store);

  auto fill = put_batch(f, 0, {1, 3, 5, 8, 10, 12, 15}, 7'000);
  f.sched.run();
  fill.rethrow_if_failed();

  const std::uint64_t epoch0 = f.store.dir_epoch();
  std::uint64_t moved = 0;
  auto split = dir.split(0, 1, &moved);
  f.sched.run();
  split.rethrow_if_failed();
  EXPECT_GT(moved, 0u);  // occupied slots in [8, 16) relocated
  EXPECT_GT(f.store.dir_epoch(), epoch0);
  EXPECT_EQ(f.store.map().shard_of(10), 1u);
  EXPECT_EQ(f.store.map().shard_of(5), 0u);
  EXPECT_TRUE(dir.has_donation(0));
  EXPECT_EQ(f.store.splits(0), 1u);
  // Every value survives the move, readable from any replica.
  for (const Key k : {1ull, 3ull, 5ull, 8ull, 10ull, 12ull, 15ull}) {
    const auto got = read_run(f, 5, k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, 7'000 + static_cast<dsm::Word>(k));
  }
  expect_ledgers_exact(f);

  auto merge = dir.merge_back(0);
  f.sched.run();
  merge.rethrow_if_failed();
  EXPECT_EQ(f.store.map().shard_of(10), 0u);
  EXPECT_FALSE(dir.has_donation(0));
  EXPECT_EQ(f.store.merges(0), 1u);
  for (const Key k : {8ull, 10ull, 12ull, 15ull}) {
    const auto got = read_run(f, 2, k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, 7'000 + static_cast<dsm::Word>(k));
  }
  expect_ledgers_exact(f);
}

// ------------------------------------------------- promote / demote ---

TEST(Directory, PromoteRoutesToTheHotGroupAndDemoteReturnsHome) {
  Fixture f(elastic_cfg());
  elastic::DirectoryManager dir(f.store);
  const ShardId hot = f.store.base_shards();  // first dedicated hot group

  auto fill = put_batch(f, 1, {9}, 400);
  f.sched.run();
  fill.rethrow_if_failed();

  auto up = dir.promote(9, hot);
  f.sched.run();
  up.rethrow_if_failed();
  EXPECT_EQ(f.store.map().shard_of(9), hot);
  EXPECT_EQ(f.store.promotions(0), 1u);
  EXPECT_EQ(read_run(f, 3, 9).value_or(0), 409u);

  // Writes land on the hot group while the pin holds.
  auto w = put_batch(f, 2, {9}, 500);
  f.sched.run();
  w.rethrow_if_failed();

  auto down = dir.demote(9);
  f.sched.run();
  down.rethrow_if_failed();
  EXPECT_EQ(f.store.map().shard_of(9), 0u);
  EXPECT_EQ(f.store.demotions(0), 1u);
  EXPECT_EQ(read_run(f, 6, 9).value_or(0), 509u);
  expect_ledgers_exact(f);
}

// The lock chase: an irrevocable multi-key op queued on the shard locks
// while the directory promotes one of its keys must notice, after its
// grant, that it holds the wrong owners' locks, release them, and commit
// under the new owners'. A long compute keeps the first op holding shards
// {0, 1} while the promote (at 50us) and then the second op (at 100us)
// queue behind it on shard 0's lock.
TEST(Directory, IrrevocableTxnChasesAKeyPromotedWhileItQueued) {
  shard::ShardedStoreConfig cfg = elastic_cfg();
  cfg.txn.mode = shard::TxnMode::kLegacy;
  cfg.write_compute_ns = 100'000;
  Fixture f(cfg);
  elastic::DirectoryManager dir(f.store);
  const ShardId hot = f.store.base_shards();
  ASSERT_EQ(f.store.shard_of(7), 0u);
  ASSERT_EQ(f.store.shard_of(20), 1u);

  auto add = [&](dsm::NodeId n, sim::Duration at,
                 dsm::Word delta) -> sim::Process {
    co_await sim::delay(f.sched, at);
    shard::TxnRequest req;
    req.adds = {7, 20};
    req.delta = delta;
    co_await f.client.txn(n, std::move(req)).join();
  };
  auto promote_later = [&]() -> sim::Process {
    co_await sim::delay(f.sched, 50'000);
    co_await dir.promote(7, hot).join();
  };
  auto first = add(1, 0, 1);
  auto mover = promote_later();
  auto second = add(2, 100'000, 10);
  f.sched.run();
  first.rethrow_if_failed();
  mover.rethrow_if_failed();
  second.rethrow_if_failed();

  EXPECT_EQ(f.store.shard_of(7), hot);
  EXPECT_EQ(read_run(f, 3, 7).value_or(0), 11);
  EXPECT_EQ(read_run(f, 3, 20).value_or(0), 11);
  // Shard 0 committed the first op and the move only; the second op's
  // write section landed on the hot group, after the move's.
  EXPECT_EQ(f.store.committed_writes(0), 2u);
  EXPECT_EQ(f.store.committed_writes(1), 2u);
  EXPECT_EQ(f.store.committed_writes(hot), 2u);
  expect_ledgers_exact(f);
}

// ------------------------------------------- stale-directory clients ---

TEST(Client, StaleEpochIsRedirectedNeverWrong) {
  Fixture f(elastic_cfg());
  elastic::DirectoryManager dir(f.store);
  const ShardId hot = f.store.base_shards();

  // The client routes once at epoch 0 and caches its view.
  auto warm = put_batch(f, 0, {7, 20}, 100);
  f.sched.run();
  warm.rethrow_if_failed();
  ASSERT_EQ(f.client.stats().redirects, 0u);

  auto up = dir.promote(7, hot);
  f.sched.run();
  up.rethrow_if_failed();

  // Read through the stale view: redirected to the hot group, right value.
  EXPECT_EQ(read_run(f, 4, 7).value_or(0), 107u);
  EXPECT_GE(f.client.stats().redirects, 1u);
  EXPECT_GE(f.client.stats().refreshes, 1u);
  EXPECT_EQ(f.client.view_epoch(), f.store.dir_epoch());

  // Stale again (demote), now through the write path.
  auto down = dir.demote(7);
  f.sched.run();
  down.rethrow_if_failed();
  const std::uint64_t before = f.client.stats().redirects;
  auto w = put_batch(f, 4, {7}, 200);
  f.sched.run();
  w.rethrow_if_failed();
  EXPECT_GT(f.client.stats().redirects, before);
  EXPECT_EQ(read_run(f, 1, 7).value_or(0), 207u);

  // And the txn path: a multi-key txn spanning the repromoted key commits
  // against the new owner (doomed at the old epoch, retried — not lost).
  auto up2 = dir.promote(7, hot);
  f.sched.run();
  up2.rethrow_if_failed();
  shard::TxnRequest req;
  req.puts = {{7, 900}, {20, 901}};
  auto txn = f.client.txn(2, std::move(req));
  f.sched.run();
  txn.rethrow_if_failed();
  EXPECT_EQ(read_run(f, 0, 7).value_or(0), 900u);
  EXPECT_EQ(read_run(f, 0, 20).value_or(0), 901u);
  expect_ledgers_exact(f);
}

TEST(Client, LeasedReadsSurviveAPromotion) {
  // Partial replication: servers [0, 4), clients beyond, leased read tier
  // on, elastic directory mutations moving the key mid-stream. The stale
  // read auditor is the independent witness that no redirect ever served
  // a superseded value.
  shard::ShardedStoreConfig cfg = elastic_cfg();
  cfg.lease.enabled = true;
  cfg.lease.server_nodes = 4;
  cfg.lease.ttl_ns = 2'000'000;
  Fixture f(cfg);
  elastic::DirectoryManager dir(f.store);
  const ShardId hot = f.store.base_shards();

  auto warm = put_batch(f, 5, {11}, 300);
  f.sched.run();
  warm.rethrow_if_failed();

  std::optional<dsm::Word> out;
  auto r1 = f.client.read(5, 11, &out,
                          {shard::ConsistencyLevel::kLeased});
  f.sched.run();
  r1.rethrow_if_failed();
  EXPECT_EQ(out.value_or(0), 311u);

  auto up = dir.promote(11, hot);
  f.sched.run();
  up.rethrow_if_failed();

  // The cached lease belongs to the old owner's slot; the leased read
  // after the move must redirect and still be epoch-clean.
  out.reset();
  auto r2 = f.client.read(6, 11, &out,
                          {shard::ConsistencyLevel::kLeased});
  f.sched.run();
  r2.rethrow_if_failed();
  EXPECT_EQ(out.value_or(0), 311u);
  EXPECT_GE(f.client.stats().redirects, 1u);

  auto w = put_batch(f, 7, {11}, 600);
  f.sched.run();
  w.rethrow_if_failed();
  out.reset();
  auto r3 = f.client.read(5, 11, &out,
                          {shard::ConsistencyLevel::kLeased});
  f.sched.run();
  r3.rethrow_if_failed();
  EXPECT_EQ(out.value_or(0), 611u);

  ASSERT_NE(f.store.leases(), nullptr);
  EXPECT_TRUE(f.store.leases()->auditor().ok())
      << f.store.leases()->auditor().report();
  expect_ledgers_exact(f);
}

// ------------------------------------------------ detector hysteresis ---

telemetry::Series backlog_series(const std::vector<double>& values,
                                 sim::Duration step = 20'000) {
  telemetry::Series s;
  s.name = "optsync_shard_backlog";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.samples.push_back(
        telemetry::Sample{static_cast<sim::Time>(i) * step, values[i]});
  }
  return s;
}

TEST(Overload, OscillatingLoadCannotFlapTheVerdict) {
  // Backlog oscillates: drown, recover, drown, recover. Because the fit
  // window pins to the series PEAK, the verdict is sticky — once the
  // queue has demonstrably grown past the gate, later drains do not
  // un-flag it. Prefix-by-prefix assessment must show exactly ONE
  // false -> true transition and none back.
  std::vector<double> v;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 15; ++i) v.push_back(8.0 * i);
    for (int i = 14; i >= 0; --i) v.push_back(8.0 * i);
  }
  int transitions = 0;
  bool prev = false;
  for (std::size_t n = 1; n <= v.size(); ++n) {
    const std::vector<double> prefix(v.begin(), v.begin() + n);
    const bool now =
        telemetry::assess_backlog(backlog_series(prefix)).drowning;
    if (now != prev) ++transitions;
    prev = now;
  }
  EXPECT_TRUE(prev);  // flagged at the end despite finishing drained
  EXPECT_EQ(transitions, 1);
}

TEST(ElasticController, OscillatingBacklogNeverTriggersAnAction) {
  // The live-recovery overlay is the controller's half of the hysteresis:
  // a series-level drowning verdict only counts while the CURRENT queue is
  // material, and an action needs `drowning_ticks` consecutive such ticks.
  // Oscillating live backlog (drown, drain, drown, ...) must therefore
  // never fire an action; a sustained phase afterwards must.
  Fixture f(elastic_cfg());
  stats::ServiceReport live;
  live.shards.resize(f.store.shards());
  telemetry::SeriesSet series;
  const auto h = series.series("optsync_shard_backlog", {{"shard", "0"}});
  // A structurally-drowning history: the series-level verdict is true for
  // every tick of the test; only the live overlay varies.
  for (int i = 0; i < 40; ++i) {
    series.append(h, static_cast<sim::Time>(i) * 20'000, 8.0 * i);
  }

  elastic::ElasticControllerConfig ccfg;
  ccfg.interval_ns = 40'000;
  ccfg.drowning_ticks = 2;
  ccfg.cooldown_ticks = 1;
  elastic::ElasticController ctrl(f.store, live, series, ccfg);
  ctrl.start();

  auto& issued = live.shards[0].op(stats::ServiceOp::kWrite).issued;
  auto& completed = live.shards[0].op(stats::ServiceOp::kWrite).completed;
  issued = 200;
  // Phase A, [0, 2ms): the live queue drains on every other control tick,
  // so the drowning streak resets before it can reach drowning_ticks.
  for (int t = 0; t < 50; ++t) {
    f.sched.at(static_cast<sim::Time>(t) * 40'000 + 1'000, [&, t] {
      completed = (t % 2) != 0 ? issued : 0;
    });
  }
  std::uint64_t actions_after_oscillation = 0;
  // Phase B, [2ms, 4ms): sustained — the queue stays deep every tick.
  f.sched.at(2'000'000, [&] {
    actions_after_oscillation = ctrl.actions();
    completed = 0;
  });
  f.sched.at(4'000'000, [] {});  // keep the sim busy through phase B
  f.sched.run();
  ctrl.stop();

  EXPECT_EQ(actions_after_oscillation, 0u);
  EXPECT_GE(ctrl.actions(), 1u);  // the sustained phase did trigger
  // The action taken was a stripe split (no key sketch traffic, range
  // policy): shard 0 donated to a cold base shard.
  EXPECT_GE(f.store.splits(0), 1u);
  EXPECT_GT(f.store.dir_epoch(), 0u);
}

}  // namespace
}  // namespace optsync
