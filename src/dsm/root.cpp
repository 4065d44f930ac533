#include "dsm/root.hpp"

#include <algorithm>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"
#include "simkern/log.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::dsm {

using JournalKind = telemetry::Journal::Kind;

GroupRoot::GroupRoot(DsmSystem& sys, GroupId gid)
    : sys_(&sys),
      gid_(gid),
      coalesce_writes_(std::max(1u, sys.config().coalesce_max_writes)),
      coalesce_ns_(sys.config().coalesce_max_ns) {}

void GroupRoot::record(telemetry::Journal& j, telemetry::Journal::Kind kind,
                       VarId v, std::uint64_t seq, Word value, NodeId origin,
                       std::string_view label) const {
  j.protocol(kind, sys_->scheduler().now(), sys_->group(gid_).root(), gid_, v,
             seq, value, origin, label);
}

void GroupRoot::set_coalesce(std::uint32_t max_writes, sim::Duration max_ns) {
  coalesce_writes_ = std::max(1u, max_writes);
  coalesce_ns_ = max_ns;
  // A shrunken cap applies to the open frame too: flush it if it is already
  // at or past the new size, so lowering the cap takes effect immediately.
  if (pending_.writes.size() >= coalesce_writes_) {
    flush_pending(/*timer_fired=*/false);
  }
}

void GroupRoot::on_arrival(NodeId origin, VarId v, Word value,
                           telemetry::SpanContext ctx, bool speculative) {
  const VarInfo& info = sys_->var(v);
  OPTSYNC_EXPECT(info.group == gid_);

  if (quiesced_) {
    // Root handoff in progress: nothing is admitted — not even lock words —
    // so the sequencer state frozen at begin_quiesce() is exactly what the
    // successor inherits. The write is parked and replayed, in arrival
    // order, by end_quiesce(). The log is bounded: a migration stuck long
    // enough to park this much traffic is a protocol bug, not load.
    constexpr std::size_t kHandoffLogCap = 65536;
    OPTSYNC_ENSURE(handoff_log_.size() < kHandoffLogCap);
    handoff_log_.push_back(HeldArrival{origin, v, value, ctx, speculative});
    return;
  }

  switch (info.kind) {
    case VarKind::kLock:
      handle_lock_write(origin, v, value, ctx);
      return;

    case VarKind::kMutexData:
      if (sys_->config().root_filters_speculative &&
          !core_.admits(info.guard, origin, speculative)) {
        // §4: "If the local CPU does not have the lock when the new values
        // reach the root, it will discard them."
        ++stats_.speculative_drops;
        if (core_.lock_state(info.guard).holder == origin) {
          ++stats_.handoff_spec_drops;
        }
        sim::log_debug("root g", gid_, " drops speculative write of ",
                       info.name, "=", value, " from n", origin);
        if (auto* j = sys_->journal()) {
          record(*j, JournalKind::kRootDropSpec, v, 0, value, origin,
                 var_kind_name(info.kind));
        }
        return;
      }
      multicast(v, value, origin);
      return;

    case VarKind::kData:
      multicast(v, value, origin);
      return;
  }
}

void GroupRoot::handle_lock_write(NodeId origin, VarId v, Word value,
                                  telemetry::SpanContext ctx) {
  const RootCore::Decision d = core_.on_lock_word(v, origin, value);
  if (d.slot >= waiter_meta_.size()) waiter_meta_.resize(d.slot + 1);
  util::Ring<WaiterMeta>& meta = waiter_meta_[d.slot];
  switch (d.verdict) {
    case RootCore::Verdict::kQueued:
      meta.push_back(WaiterMeta{ctx, sys_->scheduler().now()});
      return;
    case RootCore::Verdict::kHandoff: {
      // The grant is appended right after the releaser's data (§2).
      const WaiterMeta waiter = meta.take_front();
      ctx = waiter.ctx;
      if (auto* trc = sys_->tracer(); trc != nullptr && ctx.valid()) {
        // The queue-wait leg of the waiter's trace ends here: the grant
        // is being sequenced into the releaser's frame right now.
        trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kRootQueue,
                         sys_->group(gid_).root(), waiter.enqueued_at,
                         sys_->scheduler().now());
      }
      break;
    }
    case RootCore::Verdict::kGrant:
    case RootCore::Verdict::kFree:
      break;
  }
  multicast(v, d.word(), sys_->group(gid_).root(), ctx);
}

void GroupRoot::multicast(VarId v, Word value, NodeId origin,
                          telemetry::SpanContext ctx) {
  const std::uint64_t seq = next_seq_++;
  ++stats_.sequenced;
  const VarKind kind = sys_->var(v).kind;
  if (auto* j = sys_->journal()) {
    record(*j, JournalKind::kRootSequence, v, seq, value, origin,
           var_kind_name(kind));
  }

  // Coalescing: append into the open frame; ship when the size cap fills it
  // or the coalesce timer expires. Sequencing order IS frame order, so a
  // grant emitted right after a release (handle_lock_write) lands in the
  // same frame as the releasing holder's final data writes (§2). At
  // coalesce_max_writes == 1 the size cap fires on every write and this is
  // exactly the old ship-immediately path. The knobs are per-root members
  // (seeded from DsmConfig) so the adaptive controller can tune one shard
  // without touching its neighbours.
  pending_.writes.push_back(
      SequencedWrite{seq, v, value, origin, ctx, sys_->scheduler().now()});
  // Lock cut-through: a lock word is a grant or release on some waiter's
  // critical path, and parking it until the frame fills would serialize
  // every lock hand-off behind the batch (at cap 64 a hand-off could wait
  // for 63 more writes to arrive). Ship the frame the moment a lock word
  // lands: the grant still rides with the data writes sequenced before it
  // (§2), and only pure data traffic coalesces to full depth.
  if (pending_.writes.size() >= coalesce_writes_ || kind == VarKind::kLock) {
    flush_pending(/*timer_fired=*/false);
    return;
  }
  if (flush_timer_ == 0) {
    flush_timer_ = sys_->scheduler().after(coalesce_ns_, [this] {
      flush_timer_ = 0;
      flush_pending(/*timer_fired=*/true);
    });
  }
}

void GroupRoot::flush() { flush_pending(/*timer_fired=*/false); }

void GroupRoot::begin_quiesce() {
  OPTSYNC_EXPECT(!quiesced_);
  // Ship the open frame from the outgoing root before the cut: the frame
  // carries everything already sequenced, so the successor starts with an
  // empty coalesce buffer and next_seq_ pointing one past the last shipped
  // write.
  flush_pending(/*timer_fired=*/false);
  quiesced_ = true;
}

void GroupRoot::end_quiesce() {
  OPTSYNC_EXPECT(quiesced_);
  quiesced_ = false;
  // Replay in arrival order. Replayed writes may themselves flush frames
  // (size cap, lock cut-through) — those multicasts now originate at the
  // new root. Swap the log out first: a replayed write cannot re-enter the
  // log (quiesced_ is false), but keep the loop robust anyway.
  std::vector<HeldArrival> log;
  log.swap(handoff_log_);
  for (const HeldArrival& h : log) {
    on_arrival(h.origin, h.var, h.value, h.ctx, h.speculative);
  }
}

void GroupRoot::flush_pending(bool timer_fired) {
  if (flush_timer_ != 0) {
    sys_->scheduler().cancel(flush_timer_);
    flush_timer_ = 0;
  }
  if (pending_.writes.empty()) return;
  ++stats_.frames;
  if (timer_fired) {
    ++stats_.timer_flushes;
  } else {
    ++stats_.size_flushes;
  }
  stats_.max_frame_writes =
      std::max(stats_.max_frame_writes, pending_.writes.size());
  if (auto* j = sys_->journal()) {
    record(*j, JournalKind::kFrameFlush, 0, pending_.first_seq(),
           static_cast<Word>(pending_.writes.size()), kNoNode,
           timer_fired ? "timer" : "size");
  }
  if (auto* trc = sys_->tracer()) {
    // Close the coalesce leg of every traced write that sat in the open
    // frame: sequenced-at -> this flush.
    const sim::Time now = sys_->scheduler().now();
    for (const SequencedWrite& w : pending_.writes) {
      if (w.ctx.valid() && now > w.sequenced_at) {
        trc->record_span(w.ctx.trace, w.ctx.span,
                         telemetry::SpanKind::kCoalesce,
                         sys_->group(gid_).root(), w.sequenced_at, now);
      }
    }
  }
  // The observer sees the frame at its commit point, before the writes
  // vector is swapped out into the pooled payload below.
  if (observer_) observer_(pending_);
  // Hands the writes vector to the pooled payload and gets a recycled
  // (empty, warm-capacity) vector back — no allocation either way.
  sys_->multicast_frame(gid_, pending_);
}

}  // namespace optsync::dsm
