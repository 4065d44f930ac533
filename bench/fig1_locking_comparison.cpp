// Regenerates the paper's Figure 1: wasted idle times for three successive
// sets of mutually exclusive accesses under Sesame group write consistency,
// entry consistency, and weak/release consistency.
//
// Expected shape (paper §3): GWC finishes first with the least idle time;
// entry consistency pays an invalidation round trip plus data transmission
// with each grant; weak/release consistency is slowest because each release
// is blocked until the holder's updates reach all nodes and each acquire may
// need three one-way messages.
//
// A second section quantifies root write coalescing: the same GWC scenario
// runs unbatched (--coalesce-max-writes=1) and batched, each under its own
// GwcChecker, and the bench fails unless the batched run
// applies the exact same mutex-data writes in the exact same order on every
// node with the same grant order — coalescing may only change the framing,
// never the observable write sequence.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench_metrics.hpp"
#include "stats/table.hpp"
#include "trace/gwc_checker.hpp"
#include "util/flags.hpp"
#include "workloads/scenario_fig1.hpp"

namespace {

using namespace optsync;

/// (var, value, origin) of every sequenced mutex-data write a node applied,
/// in application order — the observable behavior coalescing must preserve.
/// Lock words are excluded on purpose: batching legitimately changes *which*
/// lock words exist (a request arriving mid-frame sees a queue where the
/// unbatched run saw FREE), but never the data writes or the grant order.
using AppliedLog = std::map<std::uint32_t,
                            std::vector<std::tuple<std::uint32_t, std::int64_t,
                                                   std::uint32_t>>>;

struct CoalesceRun {
  workloads::Fig1Result res;
  AppliedLog applied;
  bool checker_ok = false;
  std::string checker_report;
};

CoalesceRun run_gwc_with_checker(workloads::Fig1Params params,
                                 std::uint32_t batch) {
  CoalesceRun run;
  params.dsm.coalesce_max_writes = batch;
  trace::GwcAudit audit(params.dsm);
  const trace::GwcChecker& checker = audit.checker();
  telemetry::Journal& journal = *params.dsm.journal;
  const auto sink = journal.add_sink([&run](const auto& e) {
    if (e.kind == telemetry::Journal::Kind::kNodeApply &&
        e.label == "mutex-data") {
      run.applied[e.node].emplace_back(e.var, e.value, e.origin);
    }
  });
  run.res = run_scenario_fig1(workloads::Fig1Model::kGwc, params);
  journal.remove_sink(sink);
  run.checker_ok = checker.ok();
  run.checker_report = checker.report();
  return run;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace optsync;
  using workloads::Fig1Model;

  const util::Flags flags(argc, argv);
  bench::Harness harness("fig1_locking_comparison", flags);
  harness.allow_only(flags, {});
  auto& metrics = harness.metrics();

  std::cout << "Figure 1: locking comparison (3 CPUs, one lock; CPU1 and\n"
               "CPU3 request early, CPU2 — the root/manager — later)\n\n";

  workloads::Fig1Params params;
  harness.apply(params.dsm);
  stats::Table table({"model", "total", "idle CPU1", "idle CPU2", "idle CPU3",
                      "total idle", "grant order"});

  for (const auto model :
       {Fig1Model::kGwc, Fig1Model::kEntry, Fig1Model::kWeakRelease}) {
    const auto res = workloads::run_scenario_fig1(model, params);
    std::cout << "--- " << workloads::fig1_model_name(model) << " ---\n"
              << res.timeline << "\n";
    const auto total_idle = res.idle_ns[0] + res.idle_ns[1] + res.idle_ns[2];
    table.add_row({workloads::fig1_model_name(model),
                   sim::format_time(res.total_ns),
                   sim::format_time(res.idle_ns[0]),
                   sim::format_time(res.idle_ns[1]),
                   sim::format_time(res.idle_ns[2]),
                   sim::format_time(total_idle),
                   std::to_string(res.grant_order[0]) + "," +
                       std::to_string(res.grant_order[1]) + "," +
                       std::to_string(res.grant_order[2])});
    metrics.row(std::string(workloads::fig1_model_name(model)))
        .set("total_ns", static_cast<double>(res.total_ns))
        .set("idle_cpu1_ns", static_cast<double>(res.idle_ns[0]))
        .set("idle_cpu2_ns", static_cast<double>(res.idle_ns[1]))
        .set("idle_cpu3_ns", static_cast<double>(res.idle_ns[2]))
        .set("total_idle_ns", static_cast<double>(total_idle))
        .set("messages", static_cast<double>(res.messages))
        .set("hop_bytes", static_cast<double>(res.hop_bytes));
  }

  table.print(std::cout);
  std::cout << "\npaper: same time scale in all three parts shows GWC better"
               " than entry,\nweak, or release consistency for this example.\n";

  // --- root write coalescing: batch=1 vs batch=N, same observable run ---
  const std::uint32_t batched =
      harness.coalesce_max_writes() > 1 ? harness.coalesce_max_writes() : 64;
  workloads::Fig1Params cp;  // fresh params: the unbatched leg must be the
  harness.apply(cp.dsm);     // true baseline regardless of the user's flags
  const auto base = run_gwc_with_checker(cp, 1);
  const auto coal = run_gwc_with_checker(cp, batched);

  std::cout << "\nroot write coalescing (GWC model, --coalesce-max-writes="
            << batched << " vs 1):\n";
  stats::Table ctable({"batch", "messages", "bytes", "hop bytes", "frames",
                       "total"});
  for (const auto* r : {&base, &coal}) {
    ctable.add_row({std::to_string(r == &base ? 1 : batched),
                    std::to_string(r->res.messages),
                    std::to_string(r->res.bytes),
                    std::to_string(r->res.hop_bytes),
                    std::to_string(r->res.frames),
                    sim::format_time(r->res.total_ns)});
  }
  ctable.print(std::cout);

  const double msg_ratio = static_cast<double>(base.res.messages) /
                           static_cast<double>(std::max<std::uint64_t>(
                               coal.res.messages, 1));
  const double hop_ratio = static_cast<double>(base.res.hop_bytes) /
                           static_cast<double>(std::max<std::uint64_t>(
                               coal.res.hop_bytes, 1));
  std::cout << "  message reduction   " << stats::Table::num(msg_ratio)
            << "x\n  hop-byte reduction  " << stats::Table::num(hop_ratio)
            << "x\n";

  bool ok = true;
  if (!base.checker_ok || !coal.checker_ok) {
    std::cout << "GWC CHECKER FAILED\n  batch=1: " << base.checker_report
              << "\n  batch=" << batched << ": " << coal.checker_report
              << "\n";
    ok = false;
  }
  if (base.applied != coal.applied) {
    std::cout << "APPLIED-WRITE MISMATCH: batching changed the mutex-data"
                 " writes some node observed\n";
    ok = false;
  }
  if (base.res.grant_order != coal.res.grant_order) {
    std::cout << "GRANT-ORDER MISMATCH: batching reordered the critical"
                 " sections\n";
    ok = false;
  }
  if (coal.res.messages >= base.res.messages ||
      coal.res.hop_bytes >= base.res.hop_bytes) {
    std::cout << "NO REDUCTION: batched run sent at least as much as"
                 " unbatched\n";
    ok = false;
  }
  if (batched >= 64 && msg_ratio < 2.0) {
    std::cout << "REDUCTION BELOW TARGET: expected >= 2x messages at batch "
              << batched << "\n";
    ok = false;
  }
  std::cout << (ok ? "coalescing check OK" : "coalescing check FAILED")
            << ": identical GwcChecker-verified write order"
               " across batch sizes\n";

  for (const auto* r : {&base, &coal}) {
    metrics.row("coalesce,batch=" +
                std::to_string(r == &base ? 1 : batched))
        .set("messages", static_cast<double>(r->res.messages))
        .set("bytes", static_cast<double>(r->res.bytes))
        .set("hop_bytes", static_cast<double>(r->res.hop_bytes))
        .set("frames", static_cast<double>(r->res.frames))
        .set("total_ns", static_cast<double>(r->res.total_ns));
  }
  metrics.row("coalesce,reduction")
      .set("message_ratio", msg_ratio)
      .set("hop_byte_ratio", hop_ratio)
      .set("order_identical", ok ? 1.0 : 0.0);

  if (!harness.finish()) ok = false;
  return ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
