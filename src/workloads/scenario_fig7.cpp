#include "workloads/scenario_fig7.hpp"

#include <sstream>
#include <vector>

#include "core/optimistic_mutex.hpp"
#include "dsm/system.hpp"
#include "net/topology.hpp"
#include "simkern/assert.hpp"
#include "simkern/coro.hpp"

namespace optsync::workloads {

namespace {

// The update of Fig. 7: the new value depends on the old one, which is what
// makes stale speculation observable (a = 2a + 1 distinguishes orderings).
constexpr dsm::Word update(dsm::Word a) { return 2 * a + 1; }

sim::Process requester(dsm::DsmSystem& sys, core::OptimisticMutex& mux,
                       dsm::VarId a, net::NodeId me, sim::Duration start_at,
                       sim::Duration section_ns, core::ExecuteStats* stats) {
  auto& sched = sys.scheduler();
  co_await sim::delay(sched, start_at);
  core::Section sec;
  sec.shared_writes = {a};
  sec.body = [&sys, &sched, a, section_ns](dsm::DsmNode& nd) -> sim::Process {
    (void)sys;
    const dsm::Word before = nd.read(a);
    co_await sim::delay(sched, section_ns);
    nd.write(a, update(before));
  };
  co_await mux.execute(me, sec, stats).join();
}

}  // namespace

Fig7Result run_scenario_fig7(const Fig7Params& p) {
  OPTSYNC_EXPECT(p.nodes >= 3);
  sim::Scheduler sched;
  net::Ring topo(p.nodes);

  dsm::DsmSystem sys(sched, topo, p.dsm);
  const net::NodeId root = 0;
  const net::NodeId near = 1;  // one hop from the root: its request wins
  const auto far = static_cast<net::NodeId>(p.nodes / 2);  // opposite side

  std::vector<net::NodeId> members;
  for (net::NodeId i = 0; i < p.nodes; ++i) members.push_back(i);
  const dsm::GroupId g = sys.create_group(members, root);
  const dsm::VarId lock = sys.define_lock("fig7.lock", g);
  constexpr dsm::Word kInitial = 3;
  const dsm::VarId a = sys.define_mutex_data("fig7.a", g, lock, kInitial);

  stats::LockStats lstats;
  lstats.name = "fig7.lock";
  core::OptimisticMutex::Config mcfg;
  mcfg.lock_stats = &lstats;
  core::OptimisticMutex mux(sys, lock, mcfg);

  // Capture the message-level interaction.
  std::ostringstream trace;
  sys.network().add_trace_observer(
      [&trace, &sched](const net::MessageTrace& m) {
        trace << "[" << sim::format_time(sched.now()) << "] n" << m.src
              << " -> n" << m.dst << "  " << m.tag << " (" << m.bytes
              << "B, sent " << sim::format_time(m.sent_at) << ")\n";
      });

  core::ExecuteStats near_stats;
  core::ExecuteStats far_stats;
  // Both see a free lock and speculate; the near node's request reaches the
  // root first, so the far node's speculation must roll back.
  auto pn = requester(sys, mux, a, near, 0, p.near_section_ns, &near_stats);
  auto pf = requester(sys, mux, a, far, p.near_head_start_ns,
                      p.far_section_ns, &far_stats);
  sched.run();
  pn.rethrow_if_failed();
  pf.rethrow_if_failed();
  OPTSYNC_ENSURE(pn.done() && pf.done());

  Fig7Result res;
  res.final_a = sys.node(root).read(a);
  res.expected_a = update(update(kInitial));
  res.rollbacks = mux.stats().rollbacks;
  res.speculative_drops = sys.root_of(g).stats().speculative_drops;
  res.echoes_dropped = sys.node(far).stats().echoes_dropped;
  res.far_used_optimistic = far_stats.used_optimistic;
  res.near_used_optimistic = near_stats.used_optimistic;
  res.elapsed = sched.now();
  res.trace = trace.str();
  res.faults =
      stats::collect_fault_report(sys.network().stats(), sys.reliable().stats());
  lstats.root_speculative_drops = res.speculative_drops;
  res.lock_stats = std::move(lstats);
  return res;
}

}  // namespace optsync::workloads
