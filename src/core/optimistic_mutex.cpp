#include "core/optimistic_mutex.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "simkern/log.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::core {

using dsm::kLockFree;
using dsm::lock_grant_value;
using dsm::lock_request_value;
using dsm::NodeId;
using dsm::VarId;
using dsm::Word;
using Kind = telemetry::Journal::Kind;

OptimisticMutex::OptimisticMutex(dsm::DsmSystem& sys, VarId lock, Config cfg)
    : sys_(&sys), lock_(lock), cfg_(cfg) {
  OPTSYNC_EXPECT(sys.var(lock).kind == dsm::VarKind::kLock);
}

OptimisticMutex::NodeState& OptimisticMutex::state(NodeId n) {
  auto it = states_.find(n);
  if (it == states_.end()) {
    it = states_.emplace(n, NodeState(n, cfg_.history_decay)).first;
  }
  return it->second;
}

double OptimisticMutex::history_value(NodeId n) const {
  const auto it = states_.find(n);
  return it == states_.end() ? 0.0 : it->second.req.history().value();
}

bool OptimisticMutex::in_section(NodeId n) const {
  const auto it = states_.find(n);
  return it != states_.end() && it->second.in_section;
}

// Interrupt code (paper Fig. 5). Invoked by the sharing interface when an
// armed lock change arrives; insharing is already suspended. Runs the
// decision logic; actual rollback work (which takes simulated time) is
// deferred to the execute() coroutine via Requester::rollback_pending().
void OptimisticMutex::on_lock_interrupt(NodeId n, Word value) {
  auto& node = sys_->node(n);
  switch (state(n).req.on_lock_change(value)) {
    case Requester::Verdict::kGranted:
      // Permission for the local CPU: stop watching, let queued updates flow.
      node.disarm_interrupt(lock_);
      node.resume_insharing();
      return;
    case Requester::Verdict::kMomentaryFree:  // our grant will follow
    case Requester::Verdict::kLost:  // regular path: nothing speculated on
      node.resume_insharing();
      return;
    case Requester::Verdict::kRollback:
      // Optimistic execution failed: leave insharing suspended so the
      // journal can be restored before any of the new holder's updates
      // touch memory. The execute() coroutine performs the timed restore
      // and then resumes insharing (rollback code, Fig. 4 lines 22-26).
      sim::log_debug("n", n, " speculation failed: lock granted to n",
                     dsm::lock_holder(value));
      return;
  }
}

sim::Process OptimisticMutex::execute(NodeId n, Section section,
                                      ExecuteStats* out) {
  // Validate synchronously: a coroutine would capture these as a failed
  // Process instead of throwing to the caller.
  OPTSYNC_EXPECT(section.body != nullptr);
  OPTSYNC_EXPECT((section.save_locals == nullptr) ==
                 (section.restore_locals == nullptr));
  // Fig. 4 line 01/28: nested acquisition is a programming error — on this
  // lock (per-mutex state) or on any other (the node models a single
  // instruction stream; DsmNode tracks occupancy across mutexes).
  if (state(n).in_section) {
    throw ContractViolation("cannot safely nest mutex lock requests");
  }
  sys_->node(n).enter_mutex_section();  // throws on cross-mutex overlap
  return execute_impl(n, std::move(section), out);
}

namespace {
/// Clears the node's occupancy flag and speculation tag even if the
/// section body throws.
struct SectionOccupancy {
  dsm::DsmNode* node;
  VarId lock;
  ~SectionOccupancy() {
    if (node != nullptr) {
      node->end_speculation(lock);
      node->exit_mutex_section();
    }
  }
};
}  // namespace

sim::Process OptimisticMutex::execute_impl(NodeId n, Section section,
                                           ExecuteStats* out) {
  auto& node = sys_->node(n);
  SectionOccupancy occupancy{&node, lock_};  // entered by the wrapper
  auto& sched = sys_->scheduler();
  auto& st = state(n);
  st.in_section = true;
  st.req.begin();  // line 02
  ++stats_.executions;

  ExecuteStats local_stats;
  local_stats.requested_at = sched.now();

  // Causal tracing: hang the request's wire/queue legs under a lock-wait
  // umbrella span. The atomic_exchange ships the request synchronously, so
  // repointing the node's context parent just around it is safe.
  auto* trc = sys_->tracer();
  const telemetry::SpanContext octx =
      trc != nullptr ? trc->node_ctx(n) : telemetry::SpanContext{};
  telemetry::SpanId wait_span = 0;
  if (trc != nullptr && octx.valid()) {
    wait_span =
        trc->start_span(octx.trace, octx.span, telemetry::SpanKind::kLockWait,
                        n, local_stats.requested_at);
    trc->set_node_parent(n, wait_span);
  }

  // Lines 03-04: atomically save the old local value and request the lock.
  const Word old_val = node.atomic_exchange(lock_, lock_request_value(n));
  if (wait_span != 0) trc->set_node_parent(n, octx.span);
  emit(n, Kind::kLockRequest, lock_request_value(n));

  // Line 05: update usage frequency history from the observed local state.
  st.req.request(old_val);

  // Line 06: watch for lock changes; the interrupt atomically suspends
  // insharing when it fires.
  node.arm_interrupt(lock_, [this, n](VarId, Word value, NodeId) {
    on_lock_interrupt(n, value);
  });

  // Line 07: does anything indicate current or recent usage?
  const Requester::Path path =
      st.req.choose(cfg_.enable_optimistic, cfg_.history_threshold);

  sim::Time acquired_at = 0;  // ownership confirmed (grant observed locally)

  if (!path.optimistic) {
    // ---- Regular path (lines 08-12) ----------------------------------
    ++stats_.regular_paths;
    if (path.history_veto) {
      ++stats_.history_vetoes;
      if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->history_vetoes;
      emit(n, Kind::kHistoryVeto, old_val);
    }
    // Line 08. No interrupt can have fired yet: arming and this branch run
    // within one scheduler event, so disarming is race-free.
    node.disarm_interrupt(lock_);
    const sim::Time wait_began = sched.now();
    while (node.read(lock_) != lock_grant_value(n)) {  // line 10: reg-wait
      co_await node.on_change(lock_).wait();
    }
    if (cfg_.context_switch_ns > 0 &&
        sched.now() - wait_began > cfg_.context_switch_ns) {
      // Spin-then-swap: the grant outlasted the spin budget, so the
      // processor swapped out and now pays the swap out + in.
      ++stats_.context_switches;
      co_await sim::delay(sched, 2 * cfg_.context_switch_ns);
    }
    acquired_at = sched.now();
    if (wait_span != 0) trc->end_span(wait_span, acquired_at);
    emit(n, Kind::kLockAcquire, lock_grant_value(n));
    co_await section.body(node).join();  // lines 11-12
  } else {
    // ---- Optimistic path (lines 14-19) --------------------------------
    ++stats_.optimistic_attempts;
    local_stats.used_optimistic = true;
    if (cfg_.lock_stats != nullptr) {
      ++cfg_.lock_stats->speculative_attempts;
      ++cfg_.lock_stats->history_allows;
    }
    emit(n, Kind::kSpeculateBegin, old_val);
    const sim::Time spec_begin = sched.now();

    // Lines 14-15: save every variable the section will change.
    st.journal.snapshot(node, section.shared_writes);
    if (section.save_locals) {
      st.journal.add_local(section.save_locals, section.restore_locals);
    }
    // Line 16. Never refused here: arming, choosing and saving run inside
    // one scheduler event, so no grant can have arrived in between.
    const bool started = st.req.start_speculation();
    OPTSYNC_ENSURE(started);
    // Until the speculation commits or is restored, the body's writes go
    // out tagged: the root must not admit them on a hand-off grant.
    node.begin_speculation(lock_);
    const sim::Duration save_cost =
        cfg_.save_cost_per_var_ns *
        (section.shared_writes.size() + (section.save_locals ? 1 : 0));
    co_await sim::delay(sched, save_cost);

    // Lines 17-18: speculative execution. Shared writes stream to the
    // root, which discards them unless/until this node holds the lock.
    co_await section.body(node).join();
    if (trc != nullptr && octx.valid()) {
      trc->record_span(octx.trace, octx.span, telemetry::SpanKind::kSpeculate,
                       n, spec_begin, sched.now());
    }

    // Line 19: wait for the lock answer; handle rollback if the interrupt
    // reported that another CPU won.
    const sim::Time wait_began = sched.now();
    for (;;) {
      if (st.req.rollback_pending()) {
        // Rollback (lines 22-26): restore takes local-memory time; the
        // sharing interface keeps insharing suspended throughout.
        OPTSYNC_ENSURE(node.insharing_suspended());
        const sim::Time rb_begin = sched.now();
        const sim::Duration restore_cost =
            cfg_.save_cost_per_var_ns * st.journal.shared_count();
        co_await sim::delay(sched, restore_cost);
        if (trc != nullptr && octx.valid()) {
          trc->record_span(octx.trace, wait_span != 0 ? wait_span : octx.span,
                           telemetry::SpanKind::kRollback, n, rb_begin,
                           sched.now());
        }
        st.journal.restore(node);
        st.req.finish_rollback();  // line 24
        node.end_speculation(lock_);
        ++stats_.rollbacks;
        local_stats.rolled_back = true;
        if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->rollbacks;
        emit(n, Kind::kRollback, node.read(lock_));
        node.resume_insharing();  // line 25
        continue;                 // line 26: back to the wait loop
      }
      if (node.read(lock_) == lock_grant_value(n)) break;
      co_await node.on_change(lock_).wait();
    }
    if (cfg_.context_switch_ns > 0 &&
        sched.now() - wait_began > cfg_.context_switch_ns) {
      ++stats_.context_switches;
      co_await sim::delay(sched, 2 * cfg_.context_switch_ns);
    }
    acquired_at = sched.now();
    if (wait_span != 0) trc->end_span(wait_span, acquired_at);

    if (st.req.rolled_back()) {
      // The speculation was undone; run the section for real now that the
      // lock is held and every local shared value is valid (GWC ordering:
      // all of the previous holder's writes preceded our grant).
      emit(n, Kind::kLockAcquire, lock_grant_value(n));
      co_await section.body(node).join();
    } else {
      ++stats_.optimistic_successes;
      if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->speculative_commits;
      emit(n, Kind::kSpeculateCommit, lock_grant_value(n));
      emit(n, Kind::kLockAcquire, lock_grant_value(n));
      st.journal.discard();
      st.req.commit();
      node.end_speculation(lock_);
    }
  }

  // Line 27: release. The FREE write follows all of this node's data
  // writes through the root, so every member sees data-before-release.
  node.disarm_interrupt(lock_);
  node.write(lock_, kLockFree);
  emit(n, Kind::kLockRelease, kLockFree);
  st.in_section = false;
  local_stats.finished_at = sched.now();
  if (trc != nullptr && octx.valid()) {
    // Critical-section compute: ownership confirmed through the release
    // write. Wins the attribution sweep over any overlapping wait-side
    // leg — latency hiding is the paper's whole point.
    trc->record_span(octx.trace, octx.span, telemetry::SpanKind::kCs, n,
                     acquired_at, local_stats.finished_at);
  }
  // Unified-view accounting: every completed execution is one confirmed
  // acquisition + one release; the wait is request-to-ownership.
  ++stats_.acquisitions;
  ++stats_.releases;
  const sim::Duration waited = acquired_at - local_stats.requested_at;
  stats_.total_wait_ns += waited;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited);
  if (cfg_.lock_stats != nullptr) {
    ++cfg_.lock_stats->acquisitions;
    cfg_.lock_stats->acquire_ns.record(acquired_at -
                                       local_stats.requested_at);
    cfg_.lock_stats->hold_ns.record(sched.now() - acquired_at);
  }
  if (out != nullptr) *out = local_stats;
}

}  // namespace optsync::core
