// Determinism soak: one seed, one universe.
//
// The raw-speed kernel pass swapped the event queue's heap of std::function
// for a slot table of pooled SmallFn callbacks, put frame payloads behind a
// RecyclePool, and moved root queues / node inboxes onto ring buffers. None
// of that may perturb a run: event order is (time, insertion seq), never
// allocator addresses, so the SAME --seed must replay the SAME simulation
// byte for byte. These suites run the full service and txn workloads twice
// per seed and compare a complete JSON serialization of everything a bench
// would report — goodput, messages, per-shard ledgers, latency percentiles,
// lock stats, the abort-reason partition and stripe heatmap, the svc.txn
// flight record, lease counters, applied-write streams, pool/scheduler
// counters. Any hidden dependence on heap layout (e.g. iterating an
// unordered_map of pointers, or pool reuse changing a tiebreak) shows up as
// a byte diff here.
//
// Run-to-run equality cannot catch a refactor that changes behaviour
// consistently, so every stage is also pinned against a golden digest: an
// FNV-1a hash of the fingerprint's integer fields (keys and values).
// Doubles stay out of the digest — their last printed digit may differ
// between compilers, integers never do. A protocol change that moves any
// simulated observable must update the goldens and say why; a pure
// refactor must leave them untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "dsm/system.hpp"
#include "elastic/directory_manager.hpp"
#include "load/generator.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "shard/coalesce_controller.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/random.hpp"
#include "simkern/scheduler.hpp"
#include "stats/json.hpp"
#include "stats/service_report.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/tracer.hpp"
#include "trace/gwc_checker.hpp"

namespace optsync {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

/// A run's fingerprint: the full JSON (compared run to run) plus the golden
/// digest of its integer fields (compared against the committed value).
struct Run {
  std::string json;
  std::uint64_t digest = 0;
};

/// JsonWriter front that folds every integer field — key and value — into
/// the golden digest as it is written.
class Fingerprint {
 public:
  Fingerprint() : w_(out_) {}

  Fingerprint& open(std::string_view key = {}) {
    if (key.empty()) {
      w_.begin_object();
    } else {
      w_.begin_object(key);
    }
    mix_key(key);
    return *this;
  }
  Fingerprint& close() {
    w_.end_object();
    return *this;
  }
  Fingerprint& open_array(std::string_view key) {
    w_.begin_array(key);
    mix_key(key);
    return *this;
  }
  Fingerprint& close_array() {
    w_.end_array();
    return *this;
  }
  template <class T>
  Fingerprint& field(std::string_view key, T v) {
    if constexpr (std::is_integral_v<T>) {
      w_.value(key, static_cast<std::uint64_t>(v));
      mix_key(key);
      fnv_mix(digest_, static_cast<std::uint64_t>(v));
    } else {
      w_.value(key, v);
    }
    return *this;
  }
  /// An array element (a sub-digest or a value).
  Fingerprint& element(std::uint64_t v) {
    w_.value(v);
    fnv_mix(digest_, v);
    return *this;
  }

  [[nodiscard]] Run finish() const { return Run{out_.str(), digest_}; }

 private:
  void mix_key(std::string_view key) {
    for (const char c : key) fnv_mix(digest_, static_cast<std::uint8_t>(c));
  }

  std::ostringstream out_;
  stats::JsonWriter w_;
  std::uint64_t digest_ = kFnvBasis;
};

void serialize_histogram(Fingerprint& f, std::string_view key,
                         const stats::Histogram& h) {
  f.open(key)
      .field("count", h.count())
      .field("min", h.min())
      .field("max", h.max())
      .field("p50", h.p50())
      .field("p95", h.percentile(0.95))
      .field("p99", h.p99())
      .field("p999", h.p999())
      .field("mean", h.mean())
      .close();
}

// Everything the store itself exports after fill_report: per-shard ledgers,
// op latencies, lock stats, the txn abort partition and stripe heatmap, the
// queue/optimistic path split, lease counters, the svc.txn flight record,
// the OCC manager's counters, and every replica's applied-write stream.
void serialize_store(Fingerprint& f, shard::ShardedStore& store,
                     const stats::ServiceReport& report) {
  auto& sys = store.system();
  f.open_array("shards");
  for (const auto& s : report.shards) {
    f.open()
        .field("shard", s.shard)
        .field("sequenced", s.sequenced)
        .field("frames", s.frames)
        .field("max_frame_writes", s.max_frame_writes)
        .field("version", s.version)
        .field("committed_writes", s.committed_writes)
        .field("txn_commits", s.txn_commits)
        .field("txn_aborts", s.txn_aborts)
        .field("txn_retries", s.txn_retries)
        .field("txn_fallbacks", s.txn_fallbacks)
        .field("aborts_read_clobber", s.aborts_read_clobber)
        .field("aborts_validation", s.aborts_validation)
        .field("aborts_dir_epoch", s.aborts_dir_epoch)
        .field("queue_path_ops", store.queue_path_ops(s.shard))
        .field("optimistic_path_ops", store.optimistic_path_ops(s.shard))
        .field("lease_hits", s.lease_hits)
        .field("lease_grants", s.lease_grants)
        .field("lease_invalidations", s.lease_invalidations)
        .field("remote_reads", s.remote_reads)
        .field("forwarded_ops", s.forwarded_ops);
    f.open_array("stripe_conflicts");
    for (const std::uint64_t c : s.stripe_conflicts) f.element(c);
    f.close_array();
    for (std::size_t o = 0; o < stats::kServiceOpCount; ++o) {
      const auto& op = s.ops[o];
      f.open("op" + std::to_string(o))
          .field("issued", op.issued)
          .field("completed", op.completed);
      serialize_histogram(f, "latency", op.latency_ns);
      f.close();
    }
    f.field("acquisitions", s.lock.acquisitions)
        .field("rollbacks", s.lock.rollbacks)
        .field("speculative_commits", s.lock.speculative_commits);
    serialize_histogram(f, "acquire_ns", s.lock.acquire_ns);
    serialize_histogram(f, "hold_ns", s.lock.hold_ns);
    f.close();
  }
  f.close_array();

  const stats::LockStats& flight = store.txn_stats();
  f.open("svc_txn").field("acquisitions", flight.acquisitions);
  serialize_histogram(f, "acquire_ns", flight.acquire_ns);
  serialize_histogram(f, "hold_ns", flight.hold_ns);
  f.close();

  auto& mgr = store.txn_manager();
  f.open("occ")
      .field("commits", mgr.commits())
      .field("aborts", mgr.aborts())
      .field("fallbacks", mgr.contention().fallbacks_signalled())
      .field("backoffs", mgr.contention().backoffs())
      .field("backoff_ns", mgr.contention().total_backoff_ns())
      .close();

  // The applied-write stream of every replica of every shard: the strongest
  // fingerprint — any reordering anywhere in the protocol lands here.
  f.open_array("applied");
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    const auto g = store.group_of(s);
    std::uint64_t fnv = kFnvBasis;
    for (const dsm::NodeId m : sys.group(g).members()) {
      for (const auto& u : sys.node(m).applied_log(g)) {
        fnv_mix(fnv, u.seq);
        fnv_mix(fnv, u.var);
        fnv_mix(fnv, static_cast<std::uint64_t>(u.value));
        fnv_mix(fnv, u.origin);
      }
    }
    f.element(fnv);
  }
  f.close_array();
}

struct WorkloadParams {
  std::uint32_t nodes = 16;
  std::uint32_t shards = 4;
  std::uint64_t requests = 600;
  double rate_rps = 400'000;
  double read_fraction = 0.25;
  double txn_fraction = 0.05;
  double rmw_fraction = 0.0;
  shard::TxnMode txn_mode = shard::TxnMode::kOcc;
  /// > 0: partial replication over servers [0, server_nodes) with the
  /// leased read tier on and leased client reads.
  std::uint32_t server_nodes = 0;
  bool adaptive_coalesce = false;
};

// Runs the generator workload to completion and serializes every
// observable a bench would export.
Run run_fingerprint(std::uint64_t seed, const WorkloadParams& p) {
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(p.nodes);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  for (dsm::NodeId n = 0; n < static_cast<dsm::NodeId>(topo.size()); ++n) {
    sys.node(n).enable_applied_log(true);
  }

  shard::ShardedStoreConfig scfg;
  scfg.shards = p.shards;
  scfg.txn.mode = p.txn_mode;
  if (p.server_nodes > 0) {
    scfg.lease.enabled = true;
    scfg.lease.server_nodes = p.server_nodes;
  }
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = p.requests;
  gcfg.rate_rps = p.rate_rps;
  gcfg.keys.keys = 512;
  gcfg.read_fraction = p.read_fraction;
  gcfg.txn_fraction = p.txn_fraction;
  gcfg.rmw_fraction = p.rmw_fraction;
  if (p.server_nodes > 0) gcfg.read_level = shard::ConsistencyLevel::kLeased;
  load::Generator gen(gcfg);

  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  shard::CoalesceController ctrl(store, report);
  if (p.adaptive_coalesce) ctrl.start();
  sched.run();
  store.fill_report(report);
  EXPECT_TRUE(gen.done());
  EXPECT_TRUE(report.serializable());
  EXPECT_TRUE(store.replicas_converged());

  Fingerprint f;
  f.open()
      .field("elapsed_ns", report.elapsed_ns)
      .field("messages", report.messages)
      .field("offered_rps", report.offered_rps)
      .field("goodput_rps", report.goodput_rps())
      .field("events_processed", sched.events_processed())
      .field("final_time", sched.now())
      .field("pool_created", sys.pool_stats().created)
      .field("pool_acquires", sys.pool_stats().acquires);
  serialize_store(f, store, report);
  if (p.adaptive_coalesce) {
    f.open_array("coalesce_caps");
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      f.open()
          .field("cap", ctrl.cap(s))
          .field("peak", ctrl.peak_cap(s))
          .field("raises", ctrl.raises(s))
          .field("lowers", ctrl.lowers(s))
          .close();
    }
    f.close_array();
    f.field("ticks", ctrl.ticks());
  }
  f.close();
  return f.finish();
}

struct DriverParams {
  shard::TxnMode mode = shard::TxnMode::kOcc;
  /// Servers [0, 4) of 8, leased tier on: snapshot multi-gets from client
  /// nodes take the warm-lease path or forward to the primary root.
  bool partial = false;
  /// Range map plus one hot group: a key is promoted and demoted while
  /// transactions (OCC and irrevocable) run against it.
  bool elastic = false;
  /// A GwcChecker rides on the journal as a sink. Observing the stream must
  /// not move the digest, and the checker must stay clean.
  bool gwc_audit = false;
};

// A contended mix of all three transaction classes (puts, adds, reads) plus
// leased single reads over twelve keys, traced and journaled. The abort
// budget is one and validation is slow, so OCC runs of every class retry,
// back off and escalate to the irrevocable path; snapshot values, every
// span and every journal record land in the fingerprint.
Run txn_driver_fingerprint(std::uint64_t seed, const DriverParams& p) {
  sim::Scheduler sched;
  telemetry::Tracer tracer;
  telemetry::Journal journal;
  dsm::DsmConfig dcfg;
  dcfg.tracer = &tracer;
  dcfg.journal = &journal;
  std::optional<trace::GwcAudit> audit;
  if (p.gwc_audit) audit.emplace(dcfg);
  const auto topo = net::MeshTorus2D::near_square(8);
  dsm::DsmSystem sys(sched, topo, dcfg);
  for (dsm::NodeId n = 0; n < static_cast<dsm::NodeId>(topo.size()); ++n) {
    sys.node(n).enable_applied_log(true);
  }

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.txn.mode = p.mode;
  scfg.txn.tuning.contention.max_aborts = 1;
  // Widen the validation window so read-only multi-gets abort and escalate
  // too, not only the writing classes.
  scfg.txn.tuning.validate_ns_per_entry = 5'000;
  if (p.partial) {
    scfg.lease.enabled = true;
    scfg.lease.server_nodes = 4;
  }
  if (p.elastic) {
    scfg.policy = shard::ShardMap::Policy::kRange;
    scfg.key_space = 16;
    scfg.elastic.enabled = true;
    scfg.elastic.hot_groups = 1;
  }
  shard::ShardedStore store(sys, scfg);
  shard::Client client(store);
  // Full-replication elastic moves execute on the last node; keep it idle.
  const dsm::NodeId workers = p.elastic ? 7 : 8;

  std::vector<std::uint64_t> observed;  // read results, in completion order
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    sim::Rng rng(seed * 131 + n);
    for (std::uint32_t i = 0; i < 12; ++i) {
      std::vector<shard::Key> keys;
      while (keys.size() < 3) {
        const auto k = static_cast<shard::Key>(1 + rng.below(12));
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
      tracer.begin_op(n, "txn", store.shard_of(keys.front()), sched.now(),
                      sched.now());
      shard::TxnRequest req;
      shard::TxnResult res;
      switch ((n + i) % 4) {
        case 0:
          for (const shard::Key k : keys) {
            req.puts.emplace_back(k, static_cast<dsm::Word>(100 * n + i));
          }
          break;
        case 1:
          req.adds = keys;
          req.delta = static_cast<dsm::Word>(n + 1);
          break;
        case 2:
          req.reads = keys;
          break;
        case 3: {
          std::optional<dsm::Word> out;
          co_await client
              .read(n, keys.front(), &out,
                    {shard::ConsistencyLevel::kLeased})
              .join();
          res.values.push_back(out);
          break;
        }
      }
      if (res.values.empty()) {
        co_await client
            .txn(n, std::move(req), &res,
                 {shard::ConsistencyLevel::kSnapshot})
            .join();
      }
      tracer.end_op(n, sched.now());
      for (const auto& v : res.values) {
        observed.push_back(v ? static_cast<std::uint64_t>(*v) : ~0ull);
      }
    }
    // Tail: lease three keys, then read them back as one snapshot — the
    // zero-message path on a client while every stripe is still warm.
    for (shard::Key k = 1; k <= 3; ++k) {
      std::optional<dsm::Word> out;
      co_await client.read(n, k, &out, {shard::ConsistencyLevel::kLeased})
          .join();
    }
    shard::TxnRequest req;
    req.reads = {1, 2, 3};
    shard::TxnResult res;
    co_await client
        .txn(n, std::move(req), &res, {shard::ConsistencyLevel::kSnapshot})
        .join();
    for (const auto& v : res.values) {
      observed.push_back(v ? static_cast<std::uint64_t>(*v) : ~0ull);
    }
  };
  std::vector<sim::Process> procs;
  for (dsm::NodeId n = 0; n < workers; ++n) procs.push_back(worker(n));
  std::unique_ptr<elastic::DirectoryManager> dir;
  auto move_key = [&]() -> sim::Process {
    co_await sim::delay(sched, 30'000);
    co_await dir->promote(5, store.base_shards()).join();
    co_await sim::delay(sched, 60'000);
    co_await dir->demote(5).join();
  };
  if (p.elastic) {
    dir = std::make_unique<elastic::DirectoryManager>(store);
    procs.push_back(move_key());
  }
  sched.run();
  for (auto& pr : procs) pr.rethrow_if_failed();

  stats::ServiceReport report;
  store.fill_report(report);
  EXPECT_TRUE(report.serializable());
  EXPECT_TRUE(store.replicas_converged());
  if (audit) {
    EXPECT_TRUE(audit->checker().ok()) << audit->checker().report();
    EXPECT_GT(audit->checker().writes_checked(), 0u);
  }

  Fingerprint f;
  f.open()
      .field("messages", report.messages)
      .field("events_processed", sched.events_processed())
      .field("final_time", sched.now())
      .field("dir_epoch", store.dir_epoch());
  f.open_array("observed");
  for (const std::uint64_t v : observed) f.element(v);
  f.close_array();
  serialize_store(f, store, report);
  std::uint64_t spans = kFnvBasis;
  tracer.for_each_span([&spans](const telemetry::Span& s) {
    fnv_mix(spans, s.trace);
    fnv_mix(spans, s.id);
    fnv_mix(spans, s.parent);
    fnv_mix(spans, static_cast<std::uint64_t>(s.kind));
    fnv_mix(spans, s.node);
    fnv_mix(spans, s.start);
    fnv_mix(spans, s.end);
  });
  std::uint64_t events = kFnvBasis;
  for (const auto& e : journal.events()) {
    fnv_mix(events, static_cast<std::uint64_t>(e.kind));
    fnv_mix(events, e.t);
    fnv_mix(events, static_cast<std::uint64_t>(e.reason));
    fnv_mix(events, e.node);
    fnv_mix(events, e.shard);
    fnv_mix(events, e.stripe);
    fnv_mix(events, e.owner);
    fnv_mix(events, e.attempt);
    fnv_mix(events, e.epoch_old);
    fnv_mix(events, e.epoch_new);
    fnv_mix(events, e.target);
  }
  f.field("span_count", tracer.completed_spans())
      .field("spans", spans)
      .field("journal_count", journal.events().size())
      .field("journal", events)
      .close();
  return f.finish();
}

// Golden digests, recorded before the multi-key transaction paths were
// folded into one driver; see the file comment for when they may change.
struct Golden {
  const char* stage;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr Golden kGolden[] = {
    {"service", 42, 0x6a3af4cd21d8cfb2ull},
    {"service", 7, 0x0f184f8889e83b16ull},
    {"service", 0xdeadbeef, 0xa1287e71d62706edull},
    {"txn_heavy", 42, 0xef99c76798c92241ull},
    {"txn_heavy", 1234, 0x336b9ddceba3ba06ull},
    {"txn_legacy", 42, 0x9d6d24c53303dec6ull},
    {"leased_partial", 42, 0x25d1ceeb9a2891ccull},
    {"adaptive_coalesce", 42, 0x69ebf8889b260a18ull},
    {"driver_occ", 5, 0x3dfa54686eb3134full},
    {"driver_legacy", 5, 0x99d56f39bb9cecd9ull},
    {"driver_partial", 5, 0xdbf0f8b845eccf14ull},
    {"driver_elastic", 5, 0xaa456e8e560f39e5ull},
    {"driver_elastic_legacy", 5, 0x04537cb2153a76d1ull},
};

void expect_golden(std::string_view stage, std::uint64_t seed,
                   const Run& run) {
  for (const auto& g : kGolden) {
    if (stage == g.stage && seed == g.seed) {
      EXPECT_EQ(run.digest, g.digest)
          << stage << " seed " << seed << " digest 0x" << std::hex
          << run.digest << " moved off its golden value";
      return;
    }
  }
  ADD_FAILURE() << "no golden digest for " << stage << " seed " << seed;
}

// Runs a stage twice (byte-identical JSON) and checks the golden digest.
void check_stage(std::string_view stage, std::uint64_t seed,
                 const std::function<Run()>& run) {
  const Run a = run();
  const Run b = run();
  ASSERT_FALSE(a.json.empty());
  EXPECT_EQ(a.json, b.json) << stage << " seed " << seed
                            << " diverged between two runs";
  expect_golden(stage, seed, a);
}

WorkloadParams txn_heavy() {
  WorkloadParams p;
  p.txn_fraction = 0.40;  // exercise the OCC/abort/fallback machinery hard
  p.rmw_fraction = 0.20;
  p.read_fraction = 0.10;
  return p;
}

TEST(Determinism, ServiceWorkloadSameSeedIsByteIdentical) {
  const WorkloadParams p;
  for (const std::uint64_t seed : {42ull, 7ull, 0xdeadbeefull}) {
    check_stage("service", seed, [&] { return run_fingerprint(seed, p); });
  }
}

TEST(Determinism, TxnHeavyWorkloadSameSeedIsByteIdentical) {
  const WorkloadParams p = txn_heavy();
  for (const std::uint64_t seed : {42ull, 1234ull}) {
    check_stage("txn_heavy", seed, [&] { return run_fingerprint(seed, p); });
  }
}

TEST(Determinism, LegacyTxnModeSameSeedIsByteIdentical) {
  WorkloadParams p = txn_heavy();
  p.txn_mode = shard::TxnMode::kLegacy;
  check_stage("txn_legacy", 42, [&] { return run_fingerprint(42, p); });
}

TEST(Determinism, LeasedPartialReplicationSameSeedIsByteIdentical) {
  WorkloadParams p = txn_heavy();
  p.read_fraction = 0.50;
  p.txn_fraction = 0.15;
  p.rmw_fraction = 0.10;
  p.server_nodes = 8;
  check_stage("leased_partial", 42, [&] { return run_fingerprint(42, p); });
}

TEST(Determinism, AdaptiveCoalescingControllerIsDeterministic) {
  WorkloadParams p;
  p.adaptive_coalesce = true;
  check_stage("adaptive_coalesce", 42,
              [&] { return run_fingerprint(42, p); });
  // And the controller must actually change behaviour vs. unbatched — the
  // fingerprint includes messages, so a different universe, same laws.
  WorkloadParams q = p;
  q.adaptive_coalesce = false;
  EXPECT_NE(run_fingerprint(42, p).json, run_fingerprint(42, q).json)
      << "controller ran but changed nothing";
}

TEST(Determinism, TxnDriverClassesMatchGolden) {
  check_stage("driver_occ", 5, [] { return txn_driver_fingerprint(5, {}); });
  DriverParams legacy;
  legacy.mode = shard::TxnMode::kLegacy;
  check_stage("driver_legacy", 5,
              [&] { return txn_driver_fingerprint(5, legacy); });
  DriverParams partial;
  partial.partial = true;
  check_stage("driver_partial", 5,
              [&] { return txn_driver_fingerprint(5, partial); });
  DriverParams elastic;
  elastic.elastic = true;
  check_stage("driver_elastic", 5,
              [&] { return txn_driver_fingerprint(5, elastic); });
  DriverParams audited = elastic;
  audited.gwc_audit = true;
  check_stage("driver_elastic", 5,
              [&] { return txn_driver_fingerprint(5, audited); });
  elastic.mode = shard::TxnMode::kLegacy;
  check_stage("driver_elastic_legacy", 5,
              [&] { return txn_driver_fingerprint(5, elastic); });
}

TEST(Determinism, DifferentSeedsAreDifferentUniverses) {
  const WorkloadParams p;
  EXPECT_NE(run_fingerprint(1, p).json, run_fingerprint(2, p).json);
}

}  // namespace
}  // namespace optsync
