// The group root: sequencing arbiter and lock manager (paper §1.2, §2, §4).
//
// Every eagershared write of the group funnels to the root, which assigns a
// group-wide sequence number and multicasts it down the spanning tree. The
// root doubles as the lock manager for all lock variables of the group: lock
// requests and releases are consumed here and turned into sequenced grant /
// free writes. For optimistic synchronization the root additionally filters
// mutex-data writes from nodes that do not hold the guard lock ("the group
// root can suppress propagation of improper data changes", §4).
#pragma once

#include <cstdint>
#include <functional>

#include "dsm/frame.hpp"
#include "dsm/root_core.hpp"
#include "dsm/types.hpp"
#include "simkern/scheduler.hpp"
#include "telemetry/journal.hpp"
#include "util/ring.hpp"

namespace optsync::dsm {

class DsmSystem;

class GroupRoot {
 public:
  GroupRoot(DsmSystem& sys, GroupId gid);
  GroupRoot(const GroupRoot&) = delete;
  GroupRoot& operator=(const GroupRoot&) = delete;

  /// An eagershared write from `origin` arrives at the root. `ctx` is the
  /// causal context the message carried (invalid for untraced traffic);
  /// lock requests park it in the waiter queue so the eventual grant can
  /// be attributed to the requester's trace. `speculative` marks a
  /// mutex-data write its origin issued while speculating on the guard
  /// (RootCore::admits).
  void on_arrival(NodeId origin, VarId v, Word value,
                  telemetry::SpanContext ctx = {}, bool speculative = false);

  /// Lock decisions are taken by the shared core (dsm/root_core.hpp).
  [[nodiscard]] const RootCore::LockState& lock_state(VarId lock) const {
    return core_.lock_state(lock);
  }

  struct Stats {
    std::uint64_t sequenced = 0;
    std::uint64_t speculative_drops = 0;  ///< filtered non-holder writes (§4)
    /// Of those, speculative writes refused from a hand-off holder.
    std::uint64_t handoff_spec_drops = 0;
    std::uint64_t frames = 0;             ///< multicast frames flushed
    std::uint64_t size_flushes = 0;       ///< frames closed by the size cap
    std::uint64_t timer_flushes = 0;      ///< frames closed by coalesce_max_ns
    std::size_t max_frame_writes = 0;     ///< largest frame shipped
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Flushes the pending frame now, if any (tests and shutdown barriers;
  /// normal operation flushes on the size cap or the coalesce timer).
  void flush();

  /// Writes sequenced but not yet multicast (the open frame's size).
  [[nodiscard]] std::size_t pending_writes() const {
    return pending_.writes.size();
  }

  // --- per-root coalescing override -------------------------------------
  /// Overrides the system-wide coalescing knobs for THIS root only. The
  /// adaptive per-shard controller (shard/coalesce_controller.hpp) drives
  /// these from live telemetry: a backlogged root batches aggressively, an
  /// idle one ships every write immediately. Roots start at the DsmConfig
  /// values. A cap of 0 is clamped to 1. Takes effect from the next
  /// sequenced write; an open frame keeps its armed deadline.
  void set_coalesce(std::uint32_t max_writes, sim::Duration max_ns);
  [[nodiscard]] std::uint32_t coalesce_max_writes() const {
    return coalesce_writes_;
  }

  // --- frame observation -------------------------------------------------
  /// Hook invoked on every frame flush, after the flush is sequenced but
  /// before the frame is multicast (the writes vector is swapped into the
  /// payload pool by multicast_frame, so this is the last point the frame
  /// is observable in place). The lease directory taps flushes here: the
  /// flush instant is when a frame's writes become the group's committed
  /// order, so lease epochs revoked inside the observer are revoked at
  /// exactly the GWC commit point. One observer per root (last set wins).
  using FrameObserver = std::function<void(const Frame&)>;
  void set_frame_observer(FrameObserver fn) { observer_ = std::move(fn); }

  [[nodiscard]] GroupId group() const { return gid_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  // --- online root migration (elastic::RootMigrator) ---------------------
  /// Quiesces the sequencer for a root handoff: the open coalesce frame is
  /// flushed (so the outgoing root's last frame is on the wire), and from
  /// this call every arriving write — lock words included — is parked in a
  /// bounded handoff log instead of being admitted. The sequencer state
  /// (next_seq_, lock table, waiter queues) is frozen at the cut.
  void begin_quiesce();

  /// Ends the quiesce after the group has been re-rooted: replays the
  /// handoff log through on_arrival() in original arrival order, so writes
  /// that raced the handoff are sequenced by the new root with no gap and
  /// no reordering. GWC order is one uninterrupted stream across the cut.
  void end_quiesce();

  [[nodiscard]] std::size_t handoff_log_size() const {
    return handoff_log_.size();
  }

  /// Total queued waiters across all lock variables — the waiter-queue
  /// portion of the state a migration must transfer to the successor.
  [[nodiscard]] std::size_t waiter_queue_depth() const {
    return core_.waiter_queue_depth();
  }

 private:
  void handle_lock_write(NodeId origin, VarId v, Word value,
                         telemetry::SpanContext ctx);
  void multicast(VarId v, Word value, NodeId origin,
                 telemetry::SpanContext ctx = {});
  void flush_pending(bool timer_fired);

  void record(telemetry::Journal& j, telemetry::Journal::Kind kind, VarId v,
              std::uint64_t seq, Word value, NodeId origin,
              std::string_view label) const;

  /// Trace metadata for queued lock waiters, kept in lockstep with the
  /// core's waiter queue of the same lock slot (only handle_lock_write
  /// pushes/pops either). A side table so the core stays trace-free.
  struct WaiterMeta {
    telemetry::SpanContext ctx{};
    sim::Time enqueued_at = 0;
  };

  /// One write parked while the root is quiesced for migration.
  struct HeldArrival {
    NodeId origin;
    VarId var;
    Word value;
    telemetry::SpanContext ctx;
    bool speculative;
  };

  DsmSystem* sys_;
  GroupId gid_;
  std::uint64_t next_seq_ = 1;
  RootCore core_;
  std::vector<util::Ring<WaiterMeta>> waiter_meta_;  ///< by lock slot
  Frame pending_;                 ///< open frame awaiting flush
  FrameObserver observer_;        ///< flush tap (lease directory)
  sim::EventId flush_timer_ = 0;  ///< 0 = not armed
  std::uint32_t coalesce_writes_;
  sim::Duration coalesce_ns_;
  bool quiesced_ = false;
  std::vector<HeldArrival> handoff_log_;
  Stats stats_;
};

}  // namespace optsync::dsm
