// Regenerates the paper's Figure 8: "Mutex Methods (Network Power in CPUs)".
//
// A single wavefront circulates a ring of N processors (1024 data items,
// 1024/N iterations each); every hop performs local computation, one
// uncontended critical section (mutex:local compute = 1:5), and passes a
// datum to the next processor. Four lines:
//   no-delay    — zero network delay bound ("linear pipelining keeps the
//                 maximum below 2"; paper value 1.89),
//   optimistic  — optimistic mutual exclusion under GWC (paper: 1.68 @ 2
//                 CPUs, 1.15 @ 128),
//   regular     — non-optimistic GWC queue lock (paper: 1.53 @ 2, 1.03 @ 128),
//   entry       — entry consistency (paper: 0.81 @ 2, 0.64 @ 128).
// Headline ratios (paper §4.1): optimistic is ~1.1x regular GWC and ~2.1x
// entry consistency.
//
// Shape gate: the run exits 1 unless optimistic beats regular GWC
// (opt/reg > 1.0) at every size and no rollback occurs — the paper's
// "no rollbacks occur" for an uncontended pipeline.
#include <iostream>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "workloads/pipeline.hpp"

int main(int argc, char** argv) try {
  using namespace optsync;
  using workloads::PipelineMethod;

  const util::Flags flags(argc, argv);
  bench::Harness harness("fig8_mutex_methods", flags);
  harness.allow_only(flags, {"quick"});
  auto& metrics = harness.metrics();
  const bool quick = flags.get_bool("quick");
  std::vector<std::size_t> sizes = {2, 4, 8, 16, 32, 64};
  if (!quick) sizes.push_back(128);

  workloads::PipelineParams params;
  harness.apply(params.dsm);

  std::cout << "Figure 8: mutex methods — network power in CPUs\n"
            << "(pipeline of " << params.data_items
            << " data items; mutex:local compute = 1:"
            << static_cast<int>(1.0 / params.mutex_ratio + 0.5)
            << "; square mesh torus, 200ns hops, 1Gb/s links)\n\n";

  stats::Table table({"CPUs", "no-delay", "optimistic", "regular GWC",
                      "entry", "opt/reg", "opt/entry", "rollbacks"});

  double opt2 = 0, reg2 = 0, entry2 = 0;
  std::vector<std::string> shape_failures;
  for (const std::size_t n : sizes) {
    const auto topo = net::MeshTorus2D::near_square(n);

    const auto nodelay =
        run_pipeline(PipelineMethod::kNoDelay, params, topo);
    const auto opt = run_pipeline(PipelineMethod::kOptimistic, params, topo);
    const auto reg = run_pipeline(PipelineMethod::kRegular, params, topo);
    const auto entry = run_pipeline(PipelineMethod::kEntry, params, topo);

    if (n == 2) {
      opt2 = opt.network_power;
      reg2 = reg.network_power;
      entry2 = entry.network_power;
    }

    const double opt_reg =
        opt.network_power / std::max(reg.network_power, 1e-9);
    if (opt_reg <= 1.0 || opt.rollbacks != 0) {
      shape_failures.push_back(
          "at " + std::to_string(n) + " CPUs optimistic/regular " +
          stats::Table::num(opt_reg) + " (must be > 1.0), rollbacks " +
          std::to_string(opt.rollbacks) + " (must be 0)");
    }

    table.add_row(
        {std::to_string(n), stats::Table::num(nodelay.network_power),
         stats::Table::num(opt.network_power),
         stats::Table::num(reg.network_power),
         stats::Table::num(entry.network_power), stats::Table::num(opt_reg),
         stats::Table::num(opt.network_power /
                           std::max(entry.network_power, 1e-9)),
         std::to_string(opt.rollbacks)});
    metrics.row("cpus=" + std::to_string(n))
        .set("nodelay_power", nodelay.network_power)
        .set("optimistic_power", opt.network_power)
        .set("regular_power", reg.network_power)
        .set("entry_power", entry.network_power)
        .set("rollbacks", static_cast<double>(opt.rollbacks));
    if (n == sizes.back()) {
      auto opt_ls = opt.lock_stats;
      opt_ls.name = "pipe.lock/optimistic";
      metrics.lock(opt_ls);
      auto reg_ls = reg.lock_stats;
      reg_ls.name = "pipe.lock/regular";
      metrics.lock(reg_ls);
    }
  }

  table.print(std::cout);
  std::cout << "\nat 2 CPUs: optimistic " << stats::Table::num(opt2)
            << ", regular " << stats::Table::num(reg2) << ", entry "
            << stats::Table::num(entry2) << "\n"
            << "paper:     optimistic 1.68, regular 1.53, entry 0.81"
               " (no-delay bound 1.89)\n"
            << "paper summary: optimistic ~1.1x regular GWC, ~2.1x entry"
               " consistency; no rollbacks occur.\n";
  for (const std::string& f : shape_failures) {
    std::cout << "FIG8 SHAPE REGRESSION: " << f << "\n";
  }
  if (shape_failures.empty()) {
    std::cout << "shape gate: optimistic > regular at every size, 0"
                 " rollbacks\n";
  }
  const bool written = harness.finish();
  return written && shape_failures.empty() ? 0 : 1;
}
catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
