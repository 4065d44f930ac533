// Regenerates the paper's Figure 2: "Speedup for Task Management".
//
// One producer generates 1024 tasks into a shared queue guarded by one lock;
// N-1 consumers dequeue and execute them. Network sizes are a power of two
// plus one "to eliminate load balancing effects". Three series:
//   ideal — zero network delay bound,
//   GWC   — eagersharing + GWC queue lock (paper peak: 84.1 @ 129 CPUs),
//   entry — fast entry consistency (paper peak: 22.5 @ 33 CPUs).
// The paper reports GWC's peak 3.7x entry's peak, with efficiency collapsing
// past ~129 CPUs where the 1/128 produce/execute ratio starves consumers.
//
// Shape gate: the run exits 1 unless GWC peaks at 129 CPUs, entry peaks at
// 33 and GWC's peak is at least 2.5x entry's — the figure's shape, not its
// exact values.
#include <iostream>
#include <vector>

#include "bench_metrics.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "workloads/task_queue.hpp"

int main(int argc, char** argv) try {
  using namespace optsync;

  // --quick trims the largest sizes (used by the smoke script); the default
  // reproduces the figure's full x-axis. --seed varies the consumers'
  // polling jitter.
  util::Flags flags(argc, argv);
  bench::Harness harness("fig2_task_management", flags);
  harness.allow_only(flags, {"quick"});
  auto& metrics = harness.metrics();
  const bool quick = flags.get_bool("quick");
  std::vector<std::size_t> sizes = {3, 5, 9, 17, 33, 65, 129};
  if (!quick) sizes.push_back(257);

  workloads::TaskQueueParams params;
  params.seed = harness.seed();
  dsm::DsmConfig dcfg;
  harness.apply(dcfg);

  std::cout << "Figure 2: speedup for task management (" << params.total_tasks
            << " tasks, produce:execute = 1:"
            << static_cast<int>(1.0 / params.produce_ratio + 0.5) << ")\n\n";

  stats::Table table({"CPUs", "ideal", "GWC", "entry", "GWC/entry",
                      "GWC msgs", "entry msgs", "entry fetches"});

  double peak_gwc = 0, peak_entry = 0;
  std::size_t peak_gwc_n = 0, peak_entry_n = 0;

  for (const std::size_t n : sizes) {
    // Compact ("square mesh torus") layout: awkward counts like 129 get a
    // 11x12 grid with a few idle slots, not a degenerate 3x43 one.
    const auto topo = net::MeshTorus2D::compact(n);
    params.nodes_used = n;

    const auto ideal = workloads::run_task_queue_ideal(params, topo);
    const auto gwc = workloads::run_task_queue_gwc(params, topo, dcfg);
    const auto entry =
        workloads::run_task_queue_entry(params, topo, net::LinkModel::paper());

    if (gwc.network_power > peak_gwc) {
      peak_gwc = gwc.network_power;
      peak_gwc_n = n;
    }
    if (entry.network_power > peak_entry) {
      peak_entry = entry.network_power;
      peak_entry_n = n;
    }

    table.add_row({std::to_string(n), stats::Table::num(ideal.network_power),
                   stats::Table::num(gwc.network_power),
                   stats::Table::num(entry.network_power),
                   stats::Table::num(gwc.network_power /
                                     std::max(entry.network_power, 1e-9)),
                   std::to_string(gwc.messages), std::to_string(entry.messages),
                   std::to_string(entry.demand_fetches)});
    metrics.row("cpus=" + std::to_string(n))
        .set("ideal_power", ideal.network_power)
        .set("gwc_power", gwc.network_power)
        .set("entry_power", entry.network_power)
        .set("gwc_messages", static_cast<double>(gwc.messages))
        .set("entry_messages", static_cast<double>(entry.messages));
  }

  const double ratio = peak_gwc / std::max(peak_entry, 1e-9);
  table.print(std::cout);
  std::cout << "\npeaks: GWC " << stats::Table::num(peak_gwc) << " @ "
            << peak_gwc_n << " CPUs; entry " << stats::Table::num(peak_entry)
            << " @ " << peak_entry_n << " CPUs; ratio "
            << stats::Table::num(ratio) << "\n";
  std::cout << "paper:  GWC 84.1 @ 129; entry 22.5 @ 33; ratio 3.7\n";

  constexpr std::size_t kGwcPeakCpus = 129;
  constexpr std::size_t kEntryPeakCpus = 33;
  constexpr double kMinPeakRatio = 2.5;
  const bool shape_ok = peak_gwc_n == kGwcPeakCpus &&
                        peak_entry_n == kEntryPeakCpus &&
                        ratio >= kMinPeakRatio;
  if (shape_ok) {
    std::cout << "shape gate: peaks @ " << kGwcPeakCpus << " and "
              << kEntryPeakCpus << ", ratio >= " << kMinPeakRatio << "\n";
  } else {
    std::cout << "FIG2 SHAPE REGRESSION: want GWC peak @ " << kGwcPeakCpus
              << ", entry peak @ " << kEntryPeakCpus << ", ratio >= "
              << kMinPeakRatio << "; got " << peak_gwc_n << ", "
              << peak_entry_n << ", " << stats::Table::num(ratio) << "\n";
  }
  const bool written = harness.finish();
  return written && shape_ok ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
