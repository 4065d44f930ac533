// Open-loop traffic engine for the sharded DSM service.
//
// The generator runs in two stages:
//
//   1. plan() — a pure function of (config, node count) that expands the
//      seed into a complete request schedule: arrival times from an
//      ArrivalProcess, keys from a KeySampler, operation class and issuing
//      node from dedicated Rng streams. Same seed, same plan, byte for
//      byte (determinism invariant 7) — the schedule exists before the
//      service runs, which is what "open loop" means: a slow service does
//      not slow the arrivals down.
//
//   2. run() — a sim::Process that replays the plan through a
//      shard::Client. Arrivals enqueue into per-node FIFOs; one
//      worker coroutine per node drains its FIFO in order (a node is one
//      instruction stream — the Fig. 4 nesting rule forbids overlapping
//      sections on a node). Request latency is measured from ARRIVAL to
//      completion, so time spent queued behind earlier requests on the
//      same node counts — the coordinated-omission-free figure an SLO is
//      stated over. Latencies land in stats::ServiceReport, tagged by
//      shard and operation class.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "load/arrival.hpp"
#include "load/key_dist.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/coro.hpp"
#include "stats/service_report.hpp"
#include "telemetry/sampler.hpp"

namespace optsync::load {

/// One planned request. `keys.size() > 1` only for kTxn/kRmw.
struct Request {
  sim::Time at = 0;  ///< arrival offset from the start of run()
  dsm::NodeId node = 0;
  stats::ServiceOp op = stats::ServiceOp::kRead;
  std::vector<shard::Key> keys;
  dsm::Word value = 0;
};

struct GeneratorConfig {
  std::uint64_t seed = 1;
  std::uint64_t requests = 1000;

  /// Offered load in requests per second of simulated time. When > 0 it
  /// overrides arrival.mean_gap_ns (gap = 1e9 / rate); set to 0 to drive
  /// the gap directly through `arrival`.
  double rate_rps = 0.0;
  ArrivalConfig arrival;
  KeyConfig keys;

  /// Issue requests only from nodes [0, node_span). 0 means every node.
  /// Elastic full-replication runs set node_count - 1 so the reserved
  /// control node (where directory moves execute) carries no client
  /// traffic; the 0 default keeps pre-existing plans byte-identical.
  std::uint32_t node_span = 0;

  double read_fraction = 0.50;  ///< P(read); rest split write/txn/rmw
  double txn_fraction = 0.05;   ///< P(multi-key transaction)
  /// P(multi-key read-modify-write) — the YCSB-F op class. Defaults to 0
  /// so pre-existing plans stay byte-identical: the rmw draw reuses the
  /// op stream's single uniform per request, splitting the interval after
  /// txn, and `value` doubles as the rmw delta.
  double rmw_fraction = 0.0;
  std::uint32_t txn_keys = 3;   ///< keys per transaction/rmw (deduplicated)

  /// Local compute per read (lookup cost); reads are otherwise free.
  sim::Duration read_compute_ns = 100;

  /// Consistency level for reads (single-key reads and snapshot
  /// multi-gets) issued through shard::Client. Only observable in
  /// partial-replication mode; the kLinearizable default keeps
  /// full-replication runs byte-identical to pre-Client plans.
  shard::ConsistencyLevel read_level = shard::ConsistencyLevel::kLinearizable;
};

class Generator {
 public:
  explicit Generator(GeneratorConfig cfg);

  /// Expands the seed into the full request schedule. Pure: two calls
  /// with equal arguments return identical vectors.
  [[nodiscard]] static std::vector<Request> plan(const GeneratorConfig& cfg,
                                                 std::uint32_t node_count);

  /// The arrival config actually used (rate_rps folded into mean_gap_ns).
  [[nodiscard]] static ArrivalConfig effective_arrival(
      const GeneratorConfig& cfg);

  /// Drives the service behind `client` with the planned schedule and
  /// fills the request side of `report` (issued/completed counts and
  /// latency histograms, tagged by shard and operation). Completes when
  /// every request has finished; the caller runs the scheduler:
  ///
  ///   shard::Client client(store);
  ///   auto drive = gen.run(client, report);
  ///   sys.scheduler().run();
  ///   // drive is now finished; gen.done() is true
  ///
  /// The report's lock/root/ledger side is NOT filled here — call
  /// store.fill_report(report) afterwards.
  sim::Process run(shard::Client& client, stats::ServiceReport& report);

  /// Registers client-side gauges on `sampler`: requests sitting in node
  /// FIFOs (arrived, not yet started) and requests in flight (started, not
  /// yet finished). `sampler` must outlive the run.
  void register_telemetry(telemetry::Sampler& sampler);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const GeneratorConfig& config() const { return cfg_; }

 private:
  struct NodeQueue {
    explicit NodeQueue(sim::Scheduler& sched) : ready(sched) {}
    std::deque<std::size_t> fifo;  ///< indices into plan_
    sim::Signal ready;
  };

  sim::Process worker(shard::Client& client, stats::ServiceReport& report,
                      dsm::NodeId n);
  /// Primary shard of a request — where its latency sample is filed.
  /// For transactions: the lowest involved ShardId.
  static shard::ShardId primary_shard(const shard::ShardedStore& store,
                                      const Request& r);

  GeneratorConfig cfg_;
  std::vector<Request> plan_;
  std::vector<std::unique_ptr<NodeQueue>> queues_;
  sim::Time base_ = 0;          ///< scheduler time when run() started
  std::uint64_t pushed_ = 0;    ///< arrivals delivered to node FIFOs
  std::uint64_t started_ = 0;   ///< requests a worker has begun serving
  std::uint64_t finished_ = 0;  ///< requests completed
  bool all_pushed_ = false;
  bool done_ = false;
};

}  // namespace optsync::load
