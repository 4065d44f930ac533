// service_bench — the optsync service benchmark.
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//   service_bench --workload NAME --seed N --rate R --requests N
//
// Drives the sharded service stack (dsm -> sync/core -> txn -> shard, with
// elastic and telemetry beside it) through shard::Client with
// load::Generator::run, on plans made by load::Generator::plan from --seed.
// Each workload is an open-loop
// Poisson ladder of fixed offered rates on a 16-node torus. README.md in
// this directory lists every metric, its unit and clock, and why each
// workload exists.
//
// Two clocks are reported and never mixed: sim_* metrics are modelled time
// (deterministic, identical at a fixed seed), host_* metrics and the probe
// costs are process CPU time the simulator spends.
//
// --trace 0 runs the whole ladder untraced, again and again until
// --seconds have passed; the first pass gives the sim_* metrics, every
// later pass must reproduce them exactly, and host cost and set-up time are
// medians over passes. --trace 1 runs the per-layer probes, then alternates
// untraced and traced (telemetry::Tracer attached) runs of the nominal rung,
// after one untraced pass of the ladder for the counts that only move near
// the knee.
// --rate/--requests run one rung with every check: the reproducer for a
// failure a ladder found.
//
// Every rung is checked: generator completion, the per-shard serializability
// ledger, replica convergence, the abort-reason partition, and under
// partial replication the stale-read auditor. The last stdout line is one
// JSON object; the exit status is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "elastic/controller.hpp"
#include "load/generator.hpp"
#include "net/topology.hpp"
#include "probes.hpp"
#include "shard/client.hpp"
#include "shard/coalesce_controller.hpp"
#include "shard/sharded_store.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::perfbench {
namespace {

constexpr std::uint32_t kNodes = 16;

// ----------------------------------------------------------- workloads ----

struct Workload {
  std::string name;
  std::vector<double> ladder;  ///< offered req/s, ascending
  double nominal = 0.0;        ///< the rung latency and layers are read at
  double p99_limit_ns = 0.0;   ///< SLO on the merged p99
  std::uint64_t requests = 0;  ///< per rung
  /// The nominal rung runs longer, so its p999 has enough samples beyond it.
  std::uint64_t nominal_requests = 0;
  shard::ShardedStoreConfig store;
  load::GeneratorConfig gen;   ///< seed, requests and rate set per rung
  /// Runs the elastic controller (and its telemetry sampler) and the
  /// adaptive coalescing controller beside the service.
  bool controllers = false;
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    // Every write multicasts to all 16 members through its shard root under
    // the paper's optimistic mutex: simkern/net/dsm/core carry the cost.
    Workload w;
    w.name = "kv_zipf";
    w.ladder = {400'000, 800'000, 1'600'000, 2'400'000, 3'200'000};
    w.nominal = 800'000;
    w.p99_limit_ns = 20'000;
    w.requests = 20'000;
    w.nominal_requests = 40'000;
    w.store.shards = 8;
    w.gen.keys.keys = 1024;
    w.gen.read_fraction = 0.50;
    w.gen.txn_fraction = 0.05;
    out.push_back(w);
  }
  {
    // OCC speculate/validate/commit with a high abort rate, backoff and
    // fallback: the txn layer dominates.
    Workload w;
    w.name = "txn_rmw_hot";
    w.ladder = {100'000, 200'000, 300'000, 400'000};
    w.nominal = 200'000;
    w.p99_limit_ns = 100'000;
    w.requests = 10'000;
    w.nominal_requests = 40'000;
    w.store.shards = 8;
    w.gen.keys.keys = 256;
    w.gen.read_fraction = 0.20;
    w.gen.txn_fraction = 0.30;
    w.gen.rmw_fraction = 0.30;
    out.push_back(w);
  }
  {
    // Partial replication: 4 server nodes host 16 shards, 12 nodes are
    // clients reading through leases, so the lease tier does the work and
    // a dsm-only change should not move this workload.
    Workload w;
    w.name = "lease_read";
    w.ladder = {2'000'000, 4'000'000, 8'000'000, 16'000'000};
    w.nominal = 4'000'000;
    w.p99_limit_ns = 10'000;
    w.requests = 100'000;
    w.nominal_requests = 100'000;
    w.store.shards = 16;
    w.store.lease.server_nodes = 4;
    w.store.lease.enabled = true;
    w.gen.keys.keys = 1024;
    w.gen.read_fraction = 0.95;
    w.gen.txn_fraction = 0.0;
    w.gen.read_level = shard::ConsistencyLevel::kLeased;
    out.push_back(w);
  }
  {
    // Range-partitioned Zipf traffic whose head jumps mid-plan: the only
    // workload where root queues back up, frames coalesce and the elastic
    // fabric acts.
    Workload w;
    w.name = "hotspot_elastic";
    w.ladder = {500'000, 600'000, 700'000, 850'000, 1'000'000};
    w.nominal = 500'000;
    w.p99_limit_ns = 100'000;
    w.requests = 20'000;
    w.nominal_requests = 160'000;
    w.store.shards = 4;
    w.store.policy = shard::ShardMap::Policy::kRange;
    w.store.key_space = 1024;
    w.store.elastic.enabled = true;
    w.store.elastic.hot_groups = 3;
    w.gen.keys.keys = 1024;
    w.gen.keys.shift_offset = 512;
    w.gen.node_span = kNodes - 1;  // the elastic control node stays idle
    w.gen.read_fraction = 0.25;
    w.gen.txn_fraction = 0.05;
    w.controllers = true;
    out.push_back(w);
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Host-speed reference that runs no optsync code: a miniature event loop
/// (a binary heap of 16k pending events, each step popping one, updating a
/// random word of a 4 MiB state array and pushing a successor). It stresses
/// caches and branches the way the simulator's dispatch loop does, so it
/// slows down with whatever shares the machine roughly as the simulator
/// does. The benchmark times it between slices of every run and scales host
/// cost to kReferenceClockNs per step; README.md has the figures on how
/// much run-to-run spread that removes.
///
/// Each reading first sweeps the clock's whole state into cache, so it
/// starts from the same cache state whatever the slice before it touched:
/// the simulator's own footprint must not feed back into its scale.
class HostClock {
 public:
  HostClock() : state_(kStateWords) {
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < kPending; ++i) {
      x = splitmix64(x);
      heap_.push_back({x & 0xffffff, slot(x)});
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  /// CPU ns per step of the loop.
  double ns_per_step() {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : state_) sum += v;
    for (const auto& e : heap_) sum += e.first;
    sink_ = sum;
    const double t0 = cpu_ns();
    for (std::uint32_t k = 0; k < kSteps; ++k) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [t, i] = heap_.back();
      state_[i] += t;
      const std::uint64_t h = splitmix64(t ^ state_[i]);
      heap_.back() = {t + 1 + (h & 0xffff), slot(h)};
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    return (cpu_ns() - t0) / kSteps;
  }

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, slot)
  static constexpr std::uint32_t kPending = 1u << 14;
  static constexpr std::uint32_t kStateWords = 1u << 19;
  static constexpr std::uint32_t kSteps = 10'000;
  static std::uint32_t slot(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 40) & (kStateWords - 1);
  }
  std::vector<std::uint64_t> state_;
  std::vector<Event> heap_;  ///< min-heap on time
  volatile std::uint64_t sink_ = 0;  ///< keeps the warm-up sweep
};

/// The HostClock reading host costs are scaled to (ns per step; about what
/// the loop takes on the machine the benchmark was sized on).
constexpr double kReferenceClockNs = 230.0;

/// Every rung of a workload uses the same plan seed. Rungs at every rate but
/// the nominal one have the same length, so their arrivals differ only by
/// the rate's time scale; the nominal rung is longer (nominal_requests, with
/// the popularity shift at its own midpoint), so its plan is a different one.
load::GeneratorConfig rung_config(const Workload& w, double rate,
                                  std::uint64_t plan_seed) {
  load::GeneratorConfig g = w.gen;
  g.seed = plan_seed;
  g.requests = rate == w.nominal ? w.nominal_requests : w.requests;
  g.rate_rps = rate;
  // The popularity head jumps at mid-plan.
  if (g.keys.shift_offset != 0) g.keys.shift_at_request = g.requests / 2;
  return g;
}

/// Plans per end-to-end run. The sim_* metrics are means over this many
/// plans drawn from --seed, so one plan's luck moves them less; plan 0 is
/// the one the traced mode and the one-rung reproducer run.
constexpr int kPlans = 4;

std::uint64_t sub_plan_seed(std::uint64_t plan_seed, int plan) {
  return plan == 0 ? plan_seed
                   : splitmix64(plan_seed + static_cast<std::uint64_t>(plan));
}

/// Percentile of a latency histogram, interpolated linearly inside the
/// bucket that holds it (as Prometheus' histogram_quantile does), so the
/// figure moves with the distribution instead of in bucket-sized steps.
/// Histogram::percentile gives the bucket's midpoint; the ranks that share
/// that midpoint are found by bisection over ranks.
double percentile(const stats::Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  auto at_rank = [&h, n](std::uint64_t r) {
    return h.percentile((static_cast<double>(r) - 0.5) /
                        static_cast<double>(n));
  };
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)),
      1, n);
  const std::int64_t mid = at_rank(rank);
  // Values below one octave of sub-buckets are exact; the extremes are
  // clamped to the observed min/max.
  if (mid < static_cast<std::int64_t>(stats::Histogram::kSubBuckets) ||
      mid <= h.min() || mid >= h.max()) {
    return static_cast<double>(mid);
  }
  std::uint64_t first = 1;  // first rank in the bucket
  for (std::uint64_t hi = rank; first < hi;) {
    const std::uint64_t m = first + (hi - first) / 2;
    if (at_rank(m) < mid) {
      first = m + 1;
    } else {
      hi = m;
    }
  }
  std::uint64_t last = rank;  // last rank in the bucket
  for (std::uint64_t hi = n; last < hi;) {
    const std::uint64_t m = last + (hi - last + 1) / 2;
    if (at_rank(m) > mid) {
      hi = m - 1;
    } else {
      last = m;
    }
  }
  const auto octave =
      static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(mid))) -
      1;
  const std::int64_t width = 1ll << (octave - stats::Histogram::kSubBits);
  const std::int64_t low = mid - width / 2;
  return static_cast<double>(low) +
         static_cast<double>(width) *
             (static_cast<double>(rank - first) + 0.5) /
             static_cast<double>(last - first + 1);
}

// ---------------------------------------------------------------- rungs ----

/// Public counters of one run, summed over shards.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sequenced = 0;
  std::uint64_t frames = 0;
  std::uint64_t deliveries = 0;  ///< sequenced writes x group members
  std::uint64_t spec_attempts = 0;
  std::uint64_t spec_commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t history_allows = 0;
  std::uint64_t history_vetoes = 0;
  std::uint64_t queue_ops = 0;
  std::uint64_t optimistic_ops = 0;
  stats::Histogram acquire_ns;
  std::uint64_t txn_begun = 0;
  std::uint64_t txn_commits = 0;
  std::uint64_t txn_aborts = 0;
  std::uint64_t txn_retries = 0;
  std::uint64_t txn_fallbacks = 0;
  std::uint64_t aborts_clobber = 0;
  std::uint64_t lease_hits = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_invalidations = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t redirects = 0;
  std::uint64_t control_actions = 0;
  std::uint64_t sampler_ticks = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;  ///< single-key writes
  std::uint64_t txns = 0;    ///< multi-key txn + rmw
};

struct RungResult {
  double rate = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  stats::Histogram latency;  ///< sim ns, merged over shards and op classes
  sim::Time elapsed = 0;
  double setup_s = 0.0;        ///< CPU s to build the run, scaled
  double run_cpu_ns = 0.0;     ///< CPU ns inside Scheduler::run
  double scaled_cpu_ns = 0.0;  ///< the same at the reference host speed
  double clock_after_ns = 0.0;  ///< mean HostClock reading after a slice
  std::uint64_t spans = 0;
  bool ok = true;
  std::string violation;
  LayerCounts counts;

  [[nodiscard]] double goodput() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(completed) * 1e9 /
                              static_cast<double>(elapsed);
  }
  [[nodiscard]] double pct(double q) const { return percentile(latency, q); }
  [[nodiscard]] double mean() const { return latency.mean(); }
  /// Everything simulated about the rung; must repeat exactly.
  [[nodiscard]] std::vector<double> signature() const {
    return {static_cast<double>(completed), static_cast<double>(elapsed),
            static_cast<double>(counts.events),
            static_cast<double>(counts.messages), mean(), pct(0.5), pct(0.99),
            pct(0.999)};
  }
};

void fail(RungResult& r, const std::string& why) {
  if (r.ok) r.violation = why;
  r.ok = false;
}

/// First few replica disagreements, as "var stale on node N" lines.
std::string divergence_detail(const dsm::DsmSystem& sys) {
  std::ostringstream out;
  int shown = 0;
  for (dsm::VarId v = 0; v < sys.var_count() && shown < 4; ++v) {
    const auto& info = sys.var(v);
    if (info.kind == dsm::VarKind::kLock) continue;
    const auto& members = sys.group(info.group).members();
    const dsm::Word expect = sys.node(members.front()).read(v);
    for (const dsm::NodeId m : members) {
      const dsm::Word got = sys.node(m).read(v);
      if (got == expect) continue;
      out << "; " << info.name << " is " << got << " on node " << m
          << " but " << expect << " on node " << members.front();
      ++shown;
      break;
    }
  }
  return out.str();
}

void collect(const shard::ShardedStore& store, dsm::DsmSystem& sys,
             const stats::ServiceReport& report, LayerCounts& c) {
  const std::uint64_t members =
      store.partial() ? store.config().lease.server_nodes : kNodes;
  c.messages = sys.network().stats().messages;
  c.bytes = sys.network().stats().bytes;
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    c.queue_ops += store.queue_path_ops(s);
    c.optimistic_ops += store.optimistic_path_ops(s);
  }
  for (const auto& s : report.shards) {
    c.sequenced += s.sequenced;
    c.frames += s.frames;
    c.deliveries += s.sequenced * members;
    c.spec_attempts += s.lock.speculative_attempts;
    c.spec_commits += s.lock.speculative_commits;
    c.rollbacks += s.lock.rollbacks;
    c.history_allows += s.lock.history_allows;
    c.history_vetoes += s.lock.history_vetoes;
    c.acquire_ns.merge(s.lock.acquire_ns);
    c.txn_commits += s.txn_commits;
    c.txn_aborts += s.txn_aborts;
    c.txn_retries += s.txn_retries;
    c.txn_fallbacks += s.txn_fallbacks;
    c.aborts_clobber += s.aborts_read_clobber;
    c.lease_hits += s.lease_hits;
    c.lease_grants += s.lease_grants;
    c.lease_invalidations += s.lease_invalidations;
    c.remote_reads += s.remote_reads;
    c.forwarded += s.forwarded_ops;
    c.redirects += s.redirects;
    c.reads += s.op(stats::ServiceOp::kRead).completed;
    c.writes += s.op(stats::ServiceOp::kWrite).completed;
    c.txns += s.op(stats::ServiceOp::kTxn).completed +
              s.op(stats::ServiceOp::kRmw).completed;
  }
}

RungResult run_rung(const Workload& w, double rate, std::uint64_t plan_seed,
                    telemetry::Tracer* tracer) {
  static HostClock host_clock;
  RungResult res;
  res.rate = rate;
  const double setup0 = cpu_ns();

  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(kNodes);
  dsm::DsmConfig cfg;
  cfg.tracer = tracer;
  dsm::DsmSystem sys(sched, topo, cfg);
  shard::ShardedStore store(sys, w.store);
  const load::GeneratorConfig g = rung_config(w, rate, plan_seed);
  stats::ServiceReport report;
  report.shards.resize(store.shards());
  report.offered_rps = rate;
  shard::Client client(store);
  load::Generator gen(g);

  // The hotspot-shift controller settings of bench/service_scaling: a
  // control loop near the sampler rate that promotes down to the Zipf
  // head's ~8% ranks.
  telemetry::Sampler sampler(telemetry::SamplerConfig{20'000, 8192});
  std::optional<elastic::ElasticController> ctrl;
  std::optional<shard::CoalesceController> coalesce;
  if (w.controllers) {
    store.register_telemetry(sampler, report);
    elastic::ElasticControllerConfig ccfg;
    ccfg.interval_ns = 40'000;
    ccfg.cooldown_ticks = 1;
    ccfg.hot_key_share = 0.08;
    ccfg.max_pins_per_hot = 8;
    ctrl.emplace(store, report, sampler.series(), ccfg);
    ctrl->register_telemetry(sampler);
    coalesce.emplace(store, report);
  }
  // Plans the requests and pre-schedules one arrival event for each.
  auto drive = gen.run(client, report);
  const double setup_ns = cpu_ns() - setup0;

  if (w.controllers) {
    coalesce->start();
    ctrl->start();
    sampler.start(sched);
  }
  // The run is timed in slices of simulated time with a HostClock reading
  // between slices, so each slice is scaled by the host speed of its own
  // moment. The slices split the expected arrival span; slicing does not
  // change the event order.
  constexpr int kSlices = 8;
  const double horizon = static_cast<double>(g.requests) * 1e9 / rate;
  double clock_prev = host_clock.ns_per_step();
  res.setup_s = setup_ns * kReferenceClockNs / clock_prev / 1e9;
  for (int k = 1; k <= kSlices; ++k) {
    const double cpu0 = cpu_ns();
    res.counts.events +=
        k < kSlices
            ? sched.run_until(static_cast<sim::Time>(horizon * k / kSlices))
            : sched.run();
    const double ns = cpu_ns() - cpu0;
    const double clock_next = host_clock.ns_per_step();
    res.run_cpu_ns += ns;
    res.scaled_cpu_ns +=
        ns * 2.0 * kReferenceClockNs / (clock_prev + clock_next);
    res.clock_after_ns += clock_next / kSlices;
    clock_prev = clock_next;
  }
  if (w.controllers) {
    sampler.stop();
    ctrl->stop();
    coalesce->stop();
    res.counts.control_actions = ctrl->actions();
    res.counts.sampler_ticks = sampler.ticks();
  }
  store.fill_report(report);
  collect(store, sys, report, res.counts);
  res.counts.txn_begun = store.txn_manager().begun();
  if (tracer != nullptr) res.spans = tracer->completed_spans();

  res.issued = report.issued();
  res.completed = report.completed();
  res.elapsed = report.elapsed_ns;
  for (std::size_t op = 0; op < stats::kServiceOpCount; ++op) {
    res.latency.merge(report.merged_latency(static_cast<stats::ServiceOp>(op)));
  }

  if (!drive.done() || drive.failed() || !gen.done() ||
      res.completed != g.requests || res.issued != g.requests) {
    fail(res, "the generator did not complete every planned request");
  }
  if (!report.serializable()) {
    fail(res, "serializability ledger: a shard's version word does not match "
              "its committed-write count");
  }
  if (!store.replicas_converged()) {
    fail(res, "replicas diverged after quiesce" + divergence_detail(sys));
  }
  for (const auto& s : report.shards) {
    if (!s.abort_reasons_consistent()) {
      fail(res, "abort reasons do not sum to aborts on shard " +
                    std::to_string(s.shard));
    }
  }
  if (store.partial() && !store.leases()->auditor().ok()) {
    fail(res, "stale-read auditor: " + store.leases()->auditor().report());
  }
  return res;
}

// --------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const auto& m : metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

/// Tallies checked ops and reports violations as they happen.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(const RungResult& r, const char* what) {
    attempted += r.issued;
    if (r.ok) return;
    failed += r.issued;
    correct = false;
    std::cout << "CORRECTNESS VIOLATION (" << what << ", "
              << static_cast<std::uint64_t>(r.rate) << " req/s): "
              << r.violation << "\n";
  }
  void violation(const std::string& why) {
    correct = false;
    std::cout << "CORRECTNESS VIOLATION: " << why << "\n";
  }
};

// ----------------------------------------------------- end-to-end mode ----

/// Bisection steps between the last passing and the first failing rung.
constexpr int kSearchSteps = 3;

/// The SLO score of a rung: merged p99 over the limit, or the backlog
/// ratio when goodput falls below 95% of the offered rate. <= 1 passes.
double slo_score(const Workload& w, const RungResult& r) {
  const double latency = r.pct(0.99) / w.p99_limit_ns;
  const double backlog =
      r.goodput() > 0.0 ? 0.95 * r.rate / r.goodput() : 1e9;
  return backlog > 1.0 ? std::max(latency, backlog) : latency;
}

/// One pass: every ladder rung, then a bisection of the knee. The pass is
/// deterministic, so every pass runs exactly the same rates.
std::vector<RungResult> run_pass(const Workload& w, std::uint64_t plan_seed) {
  std::vector<RungResult> rungs;
  for (const double rate : w.ladder) {
    rungs.push_back(run_rung(w, rate, plan_seed, nullptr));
  }
  const auto fail = std::find_if(
      rungs.begin(), rungs.end(),
      [&w](const RungResult& r) { return slo_score(w, r) > 1.0; });
  if (fail == rungs.begin() || fail == rungs.end()) return rungs;
  double lo = std::prev(fail)->rate;
  double hi = fail->rate;
  for (int k = 0; k < kSearchSteps; ++k) {
    const double mid = std::round(0.5 * (lo + hi));
    rungs.push_back(run_rung(w, mid, plan_seed, nullptr));
    (slo_score(w, rungs.back()) <= 1.0 ? lo : hi) = mid;
  }
  return rungs;
}

/// Highest rate meeting the SLO: the fastest passing rung below the slowest
/// failing one, interpolated in log(score) toward that failing rung so the
/// figure moves with the knee instead of snapping to a rung.
double capacity(const Workload& w, const std::vector<RungResult>& rungs,
                std::string* note) {
  const RungResult* fail = nullptr;
  for (const auto& r : rungs) {
    if (slo_score(w, r) > 1.0 && (fail == nullptr || r.rate < fail->rate)) {
      fail = &r;
    }
  }
  const RungResult* pass = nullptr;
  for (const auto& r : rungs) {
    if (slo_score(w, r) <= 1.0 && (fail == nullptr || r.rate < fail->rate) &&
        (pass == nullptr || r.rate > pass->rate)) {
      pass = &r;
    }
  }
  if (fail == nullptr) {
    *note = "every rung met the SLO; capacity is the top rung";
    return pass->rate;
  }
  if (pass == nullptr) {
    *note = "no rung met the SLO; capacity is scaled below the first rung";
    return fail->rate / slo_score(w, *fail);
  }
  const double s_lo = std::log(std::max(slo_score(w, *pass), 1e-9));
  const double s_hi = std::log(slo_score(w, *fail));
  const double frac = s_hi > s_lo ? -s_lo / (s_hi - s_lo) : 0.0;
  *note = "knee between " +
          std::to_string(static_cast<std::uint64_t>(pass->rate)) + " and " +
          std::to_string(static_cast<std::uint64_t>(fail->rate)) + " req/s";
  return pass->rate + frac * (fail->rate - pass->rate);
}

int run_end_to_end(const Workload& w, std::uint64_t plan_seed,
                   double budget_s) {
  Ledger ledger;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Passes cycle through the plans until the budget is spent. The first
  // pass of each plan gives its sim results; every later pass of a plan
  // must repeat them exactly (the in-process determinism check), so there
  // is at least one more pass than plans. Host cost and set-up time are
  // medians over passes: a burst of machine noise then moves one sample,
  // not the figure.
  std::vector<std::vector<RungResult>> first(kPlans);
  std::vector<double> pass_ns_per_op;  // scaled to the reference
  std::vector<double> pass_raw_ns_per_op;
  std::vector<double> pass_setup_s;
  int passes = 0;
  double last_pass_s = 0.0;
  while (passes <= kPlans || elapsed_s() + last_pass_s <= budget_s) {
    const double pass_start = elapsed_s();
    const int plan = passes % kPlans;
    std::vector<RungResult> rungs =
        run_pass(w, sub_plan_seed(plan_seed, plan));
    double cpu_ns = 0.0;
    double raw_ns = 0.0;
    double setup_s = 0.0;
    std::uint64_t completed = 0;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const RungResult& r = rungs[i];
      ledger.add(r, "ladder rung");
      if (passes >= kPlans && (i >= first[plan].size() ||
                               r.signature() != first[plan][i].signature())) {
        ledger.violation("plan " + std::to_string(plan) + ", rung " +
                         std::to_string(static_cast<std::uint64_t>(r.rate)) +
                         " req/s did not repeat its simulated results");
      }
      cpu_ns += r.scaled_cpu_ns;
      raw_ns += r.run_cpu_ns;
      setup_s += r.setup_s;
      completed += r.completed;
    }
    pass_ns_per_op.push_back(ratio(cpu_ns, static_cast<double>(completed)));
    pass_raw_ns_per_op.push_back(ratio(raw_ns, static_cast<double>(completed)));
    pass_setup_s.push_back(setup_s);
    if (passes < kPlans) first[plan] = std::move(rungs);
    ++passes;
    last_pass_s = elapsed_s() - pass_start;
  }

  std::cout << "workload " << w.name << ": " << passes << " passes over "
            << kPlans << " plans, p99 limit "
            << static_cast<std::uint64_t>(w.p99_limit_ns) << " ns\n";
  double cap = 0.0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  for (int plan = 0; plan < kPlans; ++plan) {
    std::printf("plan %d\n%12s %12s %10s %10s %10s %10s %8s %8s\n", plan,
                "offered", "goodput", "mean_ns", "p50_ns", "p99_ns",
                "p999_ns", "actions", "score");
    std::vector<const RungResult*> by_rate;
    for (const auto& r : first[plan]) by_rate.push_back(&r);
    std::sort(by_rate.begin(), by_rate.end(),
              [](const RungResult* a, const RungResult* b) {
                return a->rate < b->rate;
              });
    const RungResult* nominal = nullptr;
    for (const RungResult* r : by_rate) {
      std::printf(
          "%12.0f %12.0f %10.0f %10.0f %10.0f %10.0f %8llu %8.3f%s\n",
          r->rate, r->goodput(), r->mean(), r->pct(0.5), r->pct(0.99),
          r->pct(0.999),
          static_cast<unsigned long long>(r->counts.control_actions),
          slo_score(w, *r), r->rate == w.nominal ? "  <- nominal" : "");
      if (r->rate == w.nominal) nominal = r;
    }
    if (nominal == nullptr) {
      throw std::logic_error("nominal rate not in ladder");
    }
    std::string note;
    cap += capacity(w, first[plan], &note) / kPlans;
    std::cout << "capacity: " << note << "\n";
    mean_ns += nominal->mean() / kPlans;
    p50_ns += nominal->pct(0.5) / kPlans;
    p99_ns += nominal->pct(0.99) / kPlans;
    p999_ns += nominal->pct(0.999) / kPlans;
  }
  std::printf("sim_p50_ns %.0f ns, failed_share %.6g ratio, unscaled host "
              "%.1f ns/op\n",
              p50_ns,
              ratio(static_cast<double>(ledger.failed),
                    static_cast<double>(ledger.attempted)),
              median(pass_raw_ns_per_op));

  print_result(ledger.correct, ledger.attempted, ledger.failed,
               {{"sim_capacity_rps", cap, "req/s"},
                {"sim_mean_ns", mean_ns, "ns"},
                {"sim_p99_ns", p99_ns, "ns"},
                {"sim_p999_ns", p999_ns, "ns"},
                {"host_ns_per_op", median(pass_ns_per_op), "ns"},
                {"setup_s", median(pass_setup_s), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return ledger.correct ? 0 : 1;
}

// ---------------------------------------------------------- traced mode ----

int run_traced(const Workload& w, std::uint64_t plan_seed, double budget_s) {
  Ledger ledger;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Per-layer probes.
  const load::GeneratorConfig nominal_cfg =
      rung_config(w, w.nominal, plan_seed);
  struct NamedProbe {
    const char* name;
    ProbeResult r;
  };
  std::vector<NamedProbe> probes = {
      // The run pre-schedules every arrival, so its queue holds about half
      // the plan on average; the probe fixtures below hold a few events.
      {"event",
       probe_event(static_cast<std::uint32_t>(w.nominal_requests / 2))},
      {"event_small_queue", probe_event(16)},
      {"member_delivery", probe_member_delivery()},
      {"grant_cycle", probe_grant_cycle()},
      {"optimistic_execute", probe_optimistic_execute()},
      {"txn_commit", probe_txn_commit()},
      {"lease_hit", probe_lease_hit()},
      {"plan", probe_plan(nominal_cfg)},
      {"span", probe_span()},
      {"journal_append", probe_journal_append()},
      {"sampler_tick", probe_sampler_tick(w.store)},
  };
  std::cout << "per-layer probes (median host CPU per unit):\n";
  std::printf("  %-20s %12s %10s %12s %10s\n", "probe", "ns/unit",
              "events/u", "deliveries/u", "units");
  for (const auto& p : probes) {
    std::printf("  %-20s %12.1f %10.2f %12.2f %10llu\n", p.name,
                p.r.ns_per_unit, p.r.events_per_unit,
                p.r.deliveries_per_unit,
                static_cast<unsigned long long>(p.r.units));
    if (!p.r.ok) ledger.violation(std::string("probe ") + p.name + ": " +
                                  p.r.failure);
  }
  auto probe = [&probes](const char* name) -> const ProbeResult& {
    for (const auto& p : probes) {
      if (std::string(name) == p.name) return p.r;
    }
    throw std::logic_error("unknown probe");
  };

  // The elastic controller acts and frames coalesce only near the knee, so
  // their counts are summed over one untraced pass of the ladder.
  std::uint64_t ladder_actions = 0;
  std::uint64_t ladder_sequenced = 0;
  std::uint64_t ladder_frames = 0;
  for (const double rate : w.ladder) {
    const RungResult r = run_rung(w, rate, plan_seed, nullptr);
    ledger.add(r, "ladder rung");
    ladder_actions += r.counts.control_actions;
    ladder_sequenced += r.counts.sequenced;
    ladder_frames += r.counts.frames;
  }

  // Nominal rung: untraced and traced runs alternate; the first of each
  // supplies the counts and the critical-path analysis. The tracer's cost
  // is the median over pairs of traced / untraced unscaled CPU time: the
  // two runs of a pair are neighbours in time, so host drift cancels.
  std::optional<RungResult> plain;
  std::optional<RungResult> traced;
  telemetry::Analysis analysis;
  std::vector<double> plain_ns;
  std::vector<double> pair_ratio;
  std::vector<double> plain_clock;
  std::vector<double> traced_clock;
  int pairs = 0;
  double last_pair_s = 0.0;
  while (pairs < 2 || elapsed_s() + last_pair_s <= budget_s) {
    const double pair_start = elapsed_s();
    RungResult u = run_rung(w, w.nominal, plan_seed, nullptr);
    ledger.add(u, "untraced nominal");
    plain_ns.push_back(ratio(u.run_cpu_ns, static_cast<double>(u.completed)));
    plain_clock.push_back(u.clock_after_ns);
    telemetry::Tracer tracer(w.nominal_requests * 64);
    RungResult t = run_rung(w, w.nominal, plan_seed, &tracer);
    ledger.add(t, "traced nominal");
    pair_ratio.push_back(ratio(t.run_cpu_ns, u.run_cpu_ns));
    traced_clock.push_back(t.clock_after_ns);
    if (t.signature() != u.signature()) {
      ledger.violation("attaching the tracer changed the simulated results");
    }
    if (!traced) {
      analysis = tracer.analyze();
      if (analysis.orphan_spans != 0 || analysis.incomplete_ops != 0 ||
          tracer.dropped_spans() != 0) {
        ledger.violation(
            "span trees incomplete: " + std::to_string(analysis.orphan_spans) +
            " orphan spans, " + std::to_string(analysis.incomplete_ops) +
            " incomplete ops, " + std::to_string(tracer.dropped_spans()) +
            " dropped spans");
      }
      plain = std::move(u);
      traced = std::move(t);
    } else if (u.signature() != plain->signature()) {
      ledger.violation("the nominal rung did not repeat its simulated results");
    }
    ++pairs;
    last_pair_s = elapsed_s() - pair_start;
  }

  const LayerCounts& c = plain->counts;
  const double ops = static_cast<double>(plain->completed);
  const double host_ns = median(plain_ns);
  const double writes_routed =
      static_cast<double>(c.queue_ops + c.optimistic_ops);
  const double txn_ends = static_cast<double>(c.txn_commits + c.txn_fallbacks);
  auto share = [&analysis](telemetry::Bucket b) {
    return ratio(static_cast<double>(
                     analysis.path_totals[static_cast<std::size_t>(b)]),
                 static_cast<double>(analysis.total_latency));
  };

  // Cost-model closure: each layer's count per op times its self cost.
  // A probe's self cost is its inclusive cost minus the events (at the
  // probe's own small queue depth) and member deliveries it caused, which
  // the simkern and dsm terms already charge.
  const double ns_event = probe("event").ns_per_unit;
  const double ns_event_small = probe("event_small_queue").ns_per_unit;
  const ProbeResult& pd = probe("member_delivery");
  const double ns_delivery =
      pd.ns_per_unit - pd.events_per_unit * ns_event_small;
  auto self_cost = [&](const ProbeResult& p) {
    return p.ns_per_unit - p.events_per_unit * ns_event_small -
           p.deliveries_per_unit * ns_delivery;
  };
  struct Term {
    const char* layer;
    double count_per_op;
    double unit_ns;
  };
  const std::vector<Term> terms = {
      {"simkern (events)", static_cast<double>(c.events) / ops, ns_event},
      {"dsm (member deliveries)", static_cast<double>(c.deliveries) / ops,
       ns_delivery},
      {"sync (queue-path grant cycles)",
       static_cast<double>(c.queue_ops) / ops, self_cost(probe("grant_cycle"))},
      {"core (optimistic executes)",
       static_cast<double>(c.optimistic_ops) / ops,
       self_cost(probe("optimistic_execute"))},
      {"txn (commit attempts)", static_cast<double>(c.txn_begun) / ops,
       self_cost(probe("txn_commit"))},
      {"shard (lease hits)", static_cast<double>(c.lease_hits) / ops,
       self_cost(probe("lease_hit"))},
      {"telemetry (sampler ticks)",
       static_cast<double>(c.sampler_ticks) / ops,
       probe("sampler_tick").ns_per_unit},
  };
  std::cout << "\ncost-model closure at the nominal rung (untraced host "
            << host_ns << " ns/op):\n";
  std::printf("  %-32s %12s %12s %12s\n", "layer", "count/op", "self ns",
              "ns/op");
  double explained = 0.0;
  for (const auto& t : terms) {
    const double ns = t.count_per_op * std::max(t.unit_ns, 0.0);
    explained += ns;
    std::printf("  %-32s %12.3f %12.1f %12.1f\n", t.layer, t.count_per_op,
                t.unit_ns, ns);
  }
  std::printf("  %-32s %12s %12s %12.1f\n", "unexplained remainder", "", "",
              host_ns - explained);

  const double raw_share = ratio(explained, host_ns);
  std::printf("  explained share %.3f (reported clamped to 1, its target)\n",
              raw_share);

  std::cout << "\n" << pairs << " untraced/traced pairs at "
            << static_cast<std::uint64_t>(w.nominal) << " req/s; "
            << analysis.ops.size() << " traced ops, critical path names "
            << 100.0 * analysis.path_named_fraction() << "% of latency\n";
  // The traced process holds several times the memory; a HostClock that
  // read slower after traced slices would divide part of that cost out of
  // every scaled figure.
  std::printf("HostClock after untraced slices %.1f ns/step, after traced "
              "slices %.1f ns/step (ratio %.3f)\n",
              median(plain_clock), median(traced_clock),
              ratio(median(traced_clock), median(plain_clock)));
  std::printf("ladder pass: %llu control actions, %.4f writes per frame\n",
              static_cast<unsigned long long>(ladder_actions),
              ratio(static_cast<double>(ladder_sequenced),
                    static_cast<double>(ladder_frames)));

  std::vector<Metric> m = {
      {"simkern.events_per_op", static_cast<double>(c.events) / ops, "count"},
      {"simkern.ns_per_event", ns_event, "ns"},
      {"net.msgs_per_op", static_cast<double>(c.messages) / ops, "count"},
      {"net.bytes_per_op", static_cast<double>(c.bytes) / ops, "B"},
      {"dsm.sequenced_per_op", static_cast<double>(c.sequenced) / ops,
       "count"},
      {"dsm.ns_per_member_delivery", ns_delivery, "ns"},
      {"dsm.writes_per_frame",
       ratio(static_cast<double>(ladder_sequenced),
             static_cast<double>(ladder_frames)),
       "count"},
      {"core.spec_commit_ratio",
       ratio(static_cast<double>(c.spec_commits),
             static_cast<double>(c.spec_attempts)),
       "ratio"},
      {"core.rollbacks_per_write",
       ratio(static_cast<double>(c.rollbacks), writes_routed), "count"},
      {"core.history_veto_share",
       ratio(static_cast<double>(c.history_vetoes),
             static_cast<double>(c.history_allows + c.history_vetoes)),
       "ratio"},
      {"core.ns_per_optimistic_execute",
       probe("optimistic_execute").ns_per_unit, "ns"},
      {"sync.acquire_p99_ns", static_cast<double>(c.acquire_ns.p99()), "ns"},
      {"sync.ns_per_grant_cycle", probe("grant_cycle").ns_per_unit, "ns"},
      {"txn.abort_ratio",
       ratio(static_cast<double>(c.txn_aborts),
             static_cast<double>(c.txn_commits + c.txn_aborts)),
       "ratio"},
      {"txn.clobber_share",
       ratio(static_cast<double>(c.aborts_clobber),
             static_cast<double>(c.txn_aborts)),
       "ratio"},
      {"txn.retries_per_txn",
       ratio(static_cast<double>(c.txn_retries), txn_ends), "count"},
      {"txn.fallbacks_per_txn",
       ratio(static_cast<double>(c.txn_fallbacks), txn_ends), "count"},
      {"txn.ns_per_commit", probe("txn_commit").ns_per_unit, "ns"},
      {"shard.queue_path_share",
       ratio(static_cast<double>(c.queue_ops), writes_routed), "ratio"},
      {"shard.lease_hit_ratio",
       ratio(static_cast<double>(c.lease_hits),
             static_cast<double>(c.lease_hits + c.lease_grants +
                                 c.remote_reads)),
       "ratio"},
      {"shard.lease_grants_per_read",
       ratio(static_cast<double>(c.lease_grants), static_cast<double>(c.reads)),
       "count"},
      {"shard.invalidations_per_write",
       ratio(static_cast<double>(c.lease_invalidations),
             static_cast<double>(c.writes + c.txns)),
       "count"},
      {"shard.forwarded_per_op", static_cast<double>(c.forwarded) / ops,
       "count"},
      {"shard.redirects_per_op", static_cast<double>(c.redirects) / ops,
       "count"},
      {"shard.ns_per_lease_hit", probe("lease_hit").ns_per_unit, "ns"},
      {"elastic.control_actions", static_cast<double>(ladder_actions),
       "count"},
      {"load.plan_ns_per_request", probe("plan").ns_per_unit, "ns"},
      {"telemetry.trace_overhead_ratio", median(pair_ratio), "ratio"},
      {"telemetry.traced_rss_mb", peak_rss_mb(), "MB"},
      {"telemetry.spans_per_op",
       static_cast<double>(traced->spans) /
           static_cast<double>(traced->completed),
       "count"},
      {"telemetry.ns_per_span", probe("span").ns_per_unit, "ns"},
      {"telemetry.ns_per_journal_append", probe("journal_append").ns_per_unit,
       "ns"},
      {"telemetry.ns_per_sampler_tick", probe("sampler_tick").ns_per_unit,
       "ns"},
  };
  for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
    const auto bucket = static_cast<telemetry::Bucket>(b);
    if (bucket == telemetry::Bucket::kRetransmit) continue;  // fault-free
    m.push_back({"path." + std::string(telemetry::bucket_name(bucket)) +
                     "_share",
                 share(bucket), "ratio"});
  }
  m.push_back({"closure.explained_share", std::min(raw_share, 1.0), "ratio"});
  print_result(ledger.correct, ledger.attempted, ledger.failed, m);
  return ledger.correct ? 0 : 1;
}

// ------------------------------------------------------------ one rung ----

/// Runs one rung at `rate` with `requests` requests and every check; the
/// reproducer for a failure seen inside a ladder.
int run_single(Workload w, std::uint64_t plan_seed, double rate,
               std::uint64_t requests) {
  w.requests = requests;
  w.nominal_requests = requests;
  const RungResult r = run_rung(w, rate, plan_seed, nullptr);
  std::printf("%s at %.0f req/s, %llu requests: goodput %.0f, mean %.0f ns, "
              "p99 %.0f ns, p999 %.0f ns, %llu control actions\n",
              w.name.c_str(), rate, static_cast<unsigned long long>(requests),
              r.goodput(), r.mean(), r.pct(0.99), r.pct(0.999),
              static_cast<unsigned long long>(r.counts.control_actions));
  Ledger ledger;
  ledger.add(r, "single rung");
  if (ledger.correct) std::cout << "all checks passed\n";
  return ledger.correct ? 0 : 1;
}

// ----------------------------------------------------------------- main ----

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  std::size_t used = 0;
  const std::string s(text);
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size() || s.empty() || s[0] == '-') {
    throw std::invalid_argument(flag + " expects a non-negative integer");
  }
  return v;
}

int run(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  std::uint64_t rate = 0;
  std::uint64_t requests = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      seconds = parse_u64(flag, value);
    } else if (flag == "--trace") {
      trace = parse_u64(flag, value);
    } else if (flag == "--rate") {
      rate = parse_u64(flag, value);
    } else if (flag == "--requests") {
      requests = parse_u64(flag, value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const bool single = rate != 0 || requests != 0;
  if (!seed || trace > 1 || (single ? rate == 0 || requests == 0
                                    : seconds == 0)) {
    throw std::invalid_argument(
        "usage: service_bench --workload NAME --seed N "
        "(--seconds S --trace 0|1 | --rate R --requests N)");
  }
  const auto all = make_workloads();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name != workload) continue;
    const std::uint64_t plan_seed = splitmix64(*seed * all.size() + i);
    if (single) {
      return run_single(all[i], plan_seed, static_cast<double>(rate),
                        requests);
    }
    const auto budget = static_cast<double>(seconds);
    return trace == 1 ? run_traced(all[i], plan_seed, budget)
                      : run_end_to_end(all[i], plan_seed, budget);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace
}  // namespace optsync::perfbench

int main(int argc, char** argv) try {
  return optsync::perfbench::run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
