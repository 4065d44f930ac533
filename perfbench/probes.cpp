#include "probes.hpp"

#include <time.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <vector>

#include "core/optimistic_mutex.hpp"
#include "dsm/system.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "simkern/scheduler.hpp"
#include "sync/gwc_lock.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracer.hpp"
#include "txn/txn.hpp"

namespace optsync::perfbench {

namespace {

constexpr int kReps = 5;
constexpr std::size_t kNodes = 16;
constexpr dsm::NodeId kWorker = 5;  // a non-root member two hops from root 0

/// One timed repetition: CPU ns spent, units done, and the lower-layer work
/// (events, member deliveries) those units caused.
struct Sample {
  double ns = 0.0;
  std::uint64_t units = 0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  bool ok = true;
  std::string failure;
};

ProbeResult summarize(const std::function<Sample()>& rep) {
  ProbeResult out;
  std::vector<double> per_unit;
  for (int r = 0; r < kReps; ++r) {
    const Sample s = rep();
    if (!s.ok && out.ok) {
      out.ok = false;
      out.failure = s.failure;
    }
    if (s.units == 0) continue;
    const auto units = static_cast<double>(s.units);
    per_unit.push_back(s.ns / units);
    out.units = s.units;
    out.events_per_unit = static_cast<double>(s.events) / units;
    out.deliveries_per_unit = static_cast<double>(s.deliveries) / units;
  }
  if (per_unit.empty()) {
    out.ok = false;
    if (out.failure.empty()) out.failure = "probe did no work";
    return out;
  }
  out.ns_per_unit = median(std::move(per_unit));
  return out;
}

/// A 16-node torus with one all-member group rooted at node 0.
struct GroupFixture {
  GroupFixture()
      : topo(net::MeshTorus2D::near_square(kNodes)),
        sys(sched, topo, dsm::DsmConfig{}) {
    std::vector<dsm::NodeId> members(kNodes);
    std::iota(members.begin(), members.end(), 0);
    group = sys.create_group(members, 0);
  }
  [[nodiscard]] std::uint64_t deliveries() {
    return sys.root_of(group).stats().sequenced * kNodes;
  }
  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  dsm::GroupId group = 0;
};

/// Times sched.run() over work already scheduled on the fixture.
Sample run_timed(GroupFixture& f, std::uint64_t units) {
  Sample s;
  const double t0 = cpu_ns();
  f.sched.run();
  s.ns = cpu_ns() - t0;
  s.units = units;
  s.events = f.sched.events_processed();
  s.deliveries = f.deliveries();
  return s;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

ProbeResult probe_event(std::uint32_t pending) {
  return summarize([pending] {
    constexpr std::uint64_t kEvents = 400'000;
    struct Chains {
      sim::Scheduler sched;
      std::uint64_t budget = kEvents;
      std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
      void fire() {
        if (budget == 0) return;
        --budget;
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        sched.after(1 + (lcg >> 44), [this] { fire(); });
      }
    } c;
    for (std::uint32_t i = 0; i < pending; ++i) c.fire();
    Sample s;
    const double t0 = cpu_ns();
    s.events = c.sched.run();
    s.ns = cpu_ns() - t0;
    s.units = s.events;
    return s;
  });
}

ProbeResult probe_member_delivery() {
  return summarize([] {
    constexpr std::uint64_t kWrites = 4000;
    GroupFixture f;
    const dsm::VarId x = f.sys.define_data("x", f.group);
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      f.sched.at(i * 2000, [&f, x, i] {
        f.sys.node(kWorker).write(x, static_cast<dsm::Word>(i + 1));
      });
    }
    Sample s = run_timed(f, 0);
    s.units = s.deliveries;
    for (dsm::NodeId m = 0; m < kNodes; ++m) {
      if (f.sys.node(m).read(x) != static_cast<dsm::Word>(kWrites)) {
        s.ok = false;
        s.failure = "member delivery probe: replicas did not converge";
      }
    }
    return s;
  });
}

ProbeResult probe_grant_cycle() {
  return summarize([] {
    constexpr std::uint64_t kCycles = 2000;
    GroupFixture f;
    sync::GwcQueueLock lock(f.sys, f.sys.define_lock("L", f.group));
    auto loop = [](sync::GwcQueueLock& lk) -> sim::Process {
      for (std::uint64_t i = 0; i < kCycles; ++i) {
        co_await lk.acquire(kWorker).join();
        lk.release(kWorker);
      }
    };
    auto proc = loop(lock);
    Sample s = run_timed(f, kCycles);
    if (!proc.done() || proc.failed() ||
        lock.stats().acquisitions != kCycles) {
      s.ok = false;
      s.failure = "grant cycle probe: lock cycles did not complete";
    }
    return s;
  });
}

ProbeResult probe_optimistic_execute() {
  return summarize([] {
    constexpr std::uint64_t kSections = 2000;
    GroupFixture f;
    const dsm::VarId lockvar = f.sys.define_lock("L", f.group);
    const dsm::VarId a = f.sys.define_mutex_data("a", f.group, lockvar);
    core::OptimisticMutex mux(f.sys, lockvar);
    auto loop = [&f, &mux, a]() -> sim::Process {
      for (std::uint64_t i = 0; i < kSections; ++i) {
        core::Section sec;
        sec.shared_writes = {a};
        sec.body = [&f, a](dsm::DsmNode& nd) -> sim::Process {
          const dsm::Word v = nd.read(a);
          co_await sim::delay(f.sched, 100);
          nd.write(a, v + 1);
        };
        co_await mux.execute(kWorker, std::move(sec)).join();
      }
    };
    auto proc = loop();
    Sample s = run_timed(f, kSections);
    if (!proc.done() || proc.failed() ||
        f.sys.node(0).read(a) != static_cast<dsm::Word>(kSections)) {
      s.ok = false;
      s.failure = "optimistic execute probe: counter is wrong";
    }
    return s;
  });
}

ProbeResult probe_txn_commit() {
  return summarize([] {
    constexpr std::uint64_t kTxns = 2000;
    GroupFixture f;
    const dsm::VarId lockvar = f.sys.define_lock("site.lock", f.group);
    const dsm::VarId ver =
        f.sys.define_mutex_data("site.ver", f.group, lockvar);
    std::vector<dsm::VarId> vars;
    for (int i = 0; i < 3; ++i) {
      vars.push_back(f.sys.define_mutex_data("v" + std::to_string(i), f.group,
                                             lockvar));
    }
    txn::TxnManager mgr(f.sys, txn::TxnConfig{});
    const txn::SiteId site = mgr.add_site("site", f.group, lockvar, ver);
    std::uint64_t committed = 0;
    auto loop = [&]() -> sim::Process {
      for (std::uint64_t i = 0; i < kTxns; ++i) {
        txn::Txn t;
        mgr.begin(t, kWorker);
        for (std::uint32_t k = 0; k < vars.size(); ++k) {
          mgr.write_word(t, site, k, vars[k], static_cast<dsm::Word>(i + k));
        }
        txn::TxnManager::CommitResult res;
        co_await mgr.commit(t, &res).join();
        if (res.committed) ++committed;
      }
    };
    auto proc = loop();
    Sample s = run_timed(f, kTxns);
    if (!proc.done() || proc.failed() || committed != kTxns) {
      s.ok = false;
      s.failure = "txn commit probe: an uncontended commit failed";
    }
    return s;
  });
}

ProbeResult probe_lease_hit() {
  return summarize([] {
    constexpr std::uint64_t kReads = 20'000;
    constexpr dsm::NodeId kClient = 9;  // not a server node
    constexpr shard::Key kKey = 7;
    sim::Scheduler sched;
    const auto topo = net::MeshTorus2D::near_square(kNodes);
    dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
    shard::ShardedStoreConfig scfg;
    scfg.shards = 16;
    scfg.lease.server_nodes = 4;
    scfg.lease.enabled = true;
    shard::ShardedStore store(sys, scfg);
    shard::Client client(store);
    Sample s;
    bool values_ok = true;
    auto loop = [&]() -> sim::Process {
      co_await client.write(kClient, kKey, 42).join();
      std::optional<dsm::Word> out;
      // A miss: installs the lease every later read hits.
      co_await client
          .read(kClient, kKey, &out, {shard::ConsistencyLevel::kLeased})
          .join();
      const std::uint64_t events0 = sched.events_processed();
      const double t0 = cpu_ns();
      for (std::uint64_t i = 0; i < kReads; ++i) {
        co_await client
            .read(kClient, kKey, &out, {shard::ConsistencyLevel::kLeased})
            .join();
        values_ok = values_ok && out == dsm::Word{42};
      }
      s.ns = cpu_ns() - t0;
      s.events = sched.events_processed() - events0;
    };
    auto proc = loop();
    sched.run();
    stats::ServiceReport report;
    store.fill_report(report);
    std::uint64_t hits = 0;
    for (const auto& sh : report.shards) hits += sh.lease_hits;
    s.units = kReads;
    if (!proc.done() || proc.failed() || !values_ok || hits != kReads) {
      s.ok = false;
      s.failure = "lease hit probe: warm reads were not all local hits";
    }
    return s;
  });
}

ProbeResult probe_plan(const load::GeneratorConfig& cfg) {
  return summarize([&cfg] {
    Sample s;
    const double t0 = cpu_ns();
    const auto plan = load::Generator::plan(cfg, kNodes);
    s.ns = cpu_ns() - t0;
    s.units = plan.size();
    return s;
  });
}

ProbeResult probe_span() {
  return summarize([] {
    constexpr std::uint64_t kSpans = 200'000;
    telemetry::Tracer tracer(kSpans + 16);
    const auto ctx = tracer.begin_op(0, "write", 0, 0, 0);
    Sample s;
    const double t0 = cpu_ns();
    for (std::uint64_t i = 0; i < kSpans; ++i) {
      tracer.record_span(ctx.trace, ctx.span, telemetry::SpanKind::kCs, 0, i,
                         i + 1);
    }
    s.ns = cpu_ns() - t0;
    tracer.end_op(0, kSpans + 1);
    s.units = kSpans;
    if (tracer.dropped_spans() != 0) {
      s.ok = false;
      s.failure = "span probe: tracer dropped spans";
    }
    return s;
  });
}

ProbeResult probe_journal_append() {
  return summarize([] {
    constexpr std::uint64_t kAppends = 200'000;
    telemetry::Journal journal(kAppends);
    Sample s;
    const double t0 = cpu_ns();
    for (std::uint64_t i = 0; i < kAppends; ++i) {
      journal.txn_abort(i, telemetry::AbortReason::kCommitValidation,
                        static_cast<std::uint32_t>(i % kNodes), 1,
                        static_cast<std::uint32_t>(i % 8), 2,
                        static_cast<std::uint32_t>(i % 4));
    }
    s.ns = cpu_ns() - t0;
    s.units = journal.size();
    if (journal.size() != kAppends || journal.dropped() != 0) {
      s.ok = false;
      s.failure = "journal probe: appends were dropped";
    }
    return s;
  });
}

ProbeResult probe_sampler_tick(const shard::ShardedStoreConfig& cfg) {
  return summarize([&cfg] {
    constexpr std::uint64_t kTicks = 2000;
    sim::Scheduler sched;
    const auto topo = net::MeshTorus2D::near_square(kNodes);
    dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
    shard::ShardedStore store(sys, cfg);
    stats::ServiceReport report;
    report.shards.resize(store.shards());
    telemetry::Sampler sampler;
    store.register_telemetry(sampler, report);
    Sample s;
    const double t0 = cpu_ns();
    for (std::uint64_t i = 1; i <= kTicks; ++i) sampler.sample_now(i * 1000);
    s.ns = cpu_ns() - t0;
    s.units = sampler.ticks();
    return s;
  });
}

}  // namespace optsync::perfbench
