#include "sync/gwc_lock.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::sync {

using dsm::lock_grant_value;
using dsm::lock_request_value;

namespace {

bool held(const dsm::DsmSystem& sys, dsm::VarId lock, dsm::NodeId n) {
  return sys.node(n).read(lock) == lock_grant_value(n);
}

/// The preconditions of one lock request, checked before any coroutine
/// starts — a coroutine would capture a violation in a failed Process
/// instead of throwing to the caller.
void check_request(const dsm::DsmSystem& sys, dsm::VarId lock,
                   dsm::NodeId n) {
  const dsm::VarInfo& info = sys.var(lock);
  OPTSYNC_EXPECT(info.kind == dsm::VarKind::kLock);
  OPTSYNC_EXPECT(sys.group(info.group).contains(n));
  OPTSYNC_EXPECT(!held(sys, lock, n));  // no nested acquisition
}

/// The per-lock acquire. `stats`, when given, counts the acquisition and
/// its wait.
sim::Process lock_body(dsm::DsmSystem& sys, dsm::VarId lock, dsm::NodeId n,
                       LockStatsView* stats) {
  auto& node = sys.node(n);
  const sim::Time requested = sys.scheduler().now();

  // Open a lock-wait umbrella span and hang the request's wire/queue legs
  // under it: the atomic_exchange below ships the request synchronously, so
  // repointing the node's context parent just around it is safe.
  auto* trc = sys.tracer();
  telemetry::SpanContext octx =
      trc != nullptr ? trc->node_ctx(n) : telemetry::SpanContext{};
  telemetry::SpanId wait_span = 0;
  if (trc != nullptr && octx.valid()) {
    wait_span = trc->start_span(octx.trace, octx.span,
                                telemetry::SpanKind::kLockWait, n, requested);
    trc->set_node_parent(n, wait_span);
  }
  node.atomic_exchange(lock, lock_request_value(n));
  if (wait_span != 0) trc->set_node_parent(n, octx.span);
  while (node.read(lock) != lock_grant_value(n)) {
    co_await node.on_change(lock).wait();
  }
  if (wait_span != 0) trc->end_span(wait_span, sys.scheduler().now());

  if (stats != nullptr) {
    const sim::Duration waited = sys.scheduler().now() - requested;
    ++stats->acquisitions;
    stats->total_wait_ns += waited;
    stats->max_wait_ns = std::max(stats->max_wait_ns, waited);
  }
}

void release_one(dsm::DsmSystem& sys, dsm::VarId lock, dsm::NodeId n) {
  OPTSYNC_EXPECT(held(sys, lock, n));
  sys.node(n).write(lock, dsm::kLockFree);
}

sim::Process ordered_body(dsm::DsmSystem& sys,
                          const std::vector<dsm::VarId>* locks,
                          dsm::NodeId n) {
  for (const dsm::VarId l : *locks) {
    co_await lock_body(sys, l, n, nullptr).join();
  }
}

}  // namespace

sim::Process acquire_ordered(dsm::DsmSystem& sys,
                             std::vector<dsm::VarId>* locks, dsm::NodeId n) {
  OPTSYNC_EXPECT(!locks->empty());
  std::sort(locks->begin(), locks->end());
  OPTSYNC_EXPECT(std::adjacent_find(locks->begin(), locks->end()) ==
                 locks->end());  // no duplicate locks
  for (const dsm::VarId l : *locks) check_request(sys, l, n);
  return ordered_body(sys, locks, n);
}

void release_ordered(dsm::DsmSystem& sys,
                     const std::vector<dsm::VarId>& locks, dsm::NodeId n) {
  for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
    release_one(sys, *it, n);
  }
}

GwcQueueLock::GwcQueueLock(dsm::DsmSystem& sys, dsm::VarId lock)
    : sys_(&sys), lock_(lock) {
  OPTSYNC_EXPECT(sys.var(lock).kind == dsm::VarKind::kLock);
}

sim::Process GwcQueueLock::acquire(dsm::NodeId n) {
  check_request(*sys_, lock_, n);
  return lock_body(*sys_, lock_, n, &stats_);
}

void GwcQueueLock::release(dsm::NodeId n) {
  release_one(*sys_, lock_, n);
  ++stats_.releases;
}

bool GwcQueueLock::held_by(dsm::NodeId n) const {
  return held(*sys_, lock_, n);
}

}  // namespace optsync::sync
