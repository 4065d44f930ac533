// The one event stream: a bounded, pooled store of flat records saying what
// the protocol did and why the speculative layers decided what they did.
//
// Protocol records are the paper's mechanism as it happens (§4, Figs. 4-7):
// network deliveries, root sequencing and speculative-write drops, member
// application and echo drops, frame flushes, and the optimistic mutex's
// request, acquire, release, speculation, rollback and history veto.
// Decision records explain the service layers: txn aborts with a reason
// taxonomy and the conflicting orec stripe + owner, lease grant/
// invalidation/expiry with epoch deltas, and every elastic-controller
// ladder step with the exact inputs that triggered it.
//
// Every record goes to the sinks first (the GWC checker streams off them),
// then into a preallocated pool that keeps the first `capacity` records
// and counts the rest in dropped() — forensics must never perturb the run
// it is explaining. A journal retains protocol records only when built
// for a trace export (`keep_protocol`); a decision-only journal still hands
// them to its sinks. The simulation is single-threaded; no locking.
//
// Consumers: `write_json` emits the decision records as the
// "optsync-journal/1" document tools/dsm_inspect reads (schema in
// PROTOCOL.md), trace/chrome_export renders the whole stream for Perfetto,
// and trace/gwc_checker replays the protocol records.
//
//   {
//     "schema": "optsync-journal/1",
//     "dropped": <n>,
//     "events": [ {"kind": "txn_abort", "t": ..., ...}, ... ]
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "simkern/time.hpp"

namespace optsync::stats {
class JsonWriter;
}

namespace optsync::telemetry {

/// Why a transaction attempt died. The first three partition the abort
/// counter exactly (read_clobber + validation + dir_epoch == txn_aborts);
/// fallback escalation is journaled as its own record kind and counted
/// separately (it ends the *optimistic* phase, not an attempt mid-flight).
enum class AbortReason : std::uint8_t {
  kReadSetClobber = 0,   // doomed by a clobber interrupt before commit
  kCommitValidation,     // orec version moved under a plain read
  kDirectoryEpoch,       // elastic directory stripe changed (stale routing)
  kFallbackEscalation,   // contention manager gave up on speculation
};

[[nodiscard]] const char* abort_reason_name(AbortReason r);

class Journal {
 public:
  enum class Kind : std::uint8_t {
    // Decision records (the optsync-journal/1 document).
    kTxnAbort = 0,
    kLeaseGrant,
    kLeaseInvalidation,
    kLeaseExpiry,
    kElasticDecision,
    // Protocol records.
    kNetDeliver,       ///< network delivered (or dropped/expired) a message
    kRootSequence,     ///< root stamped a group write with a sequence number
    kRootDropSpec,     ///< root filtered a speculative mutex-data write
    kNodeApply,        ///< member applied a sequenced write to its replica
    kEchoDrop,         ///< member hardware-blocked its own mutex-data echo
    kLockRequest,      ///< mutex issued a lock-request write
    kLockAcquire,      ///< mutex confirmed ownership (section entry)
    kLockRelease,      ///< mutex issued the release write
    kSpeculateBegin,   ///< optimistic path entered the section speculatively
    kSpeculateCommit,  ///< speculation survived: writes are legitimate
    kRollback,         ///< interrupt proved another holder: state restored
    kHistoryVeto,      ///< EWMA history predicted contention; regular path
    kFrameFlush,       ///< root shipped a multicast frame (seq = first seq,
                       ///< value = writes in the frame, label = flush cause)
  };
  static constexpr Kind kLastKind = Kind::kFrameFlush;

  [[nodiscard]] static constexpr bool is_protocol(Kind k) {
    return k >= Kind::kNetDeliver;
  }

  /// One flat record; which fields are meaningful depends on `kind` (the
  /// exports only emit the relevant subset). Kept POD so the pool is a
  /// single allocation.
  struct Event {
    Kind kind = Kind::kTxnAbort;
    sim::Time t = 0;
    /// Acting node: member, mutex owner, delivery destination, aborting
    /// txn's node, or lease holder.
    std::uint32_t node = 0;
    // protocol records
    std::uint32_t group = 0;   ///< DSM group id
    std::uint32_t var = 0;     ///< DSM variable id
    std::uint64_t seq = 0;     ///< root sequence number; delivery kind for
                               ///< kNetDeliver
    std::int64_t value = 0;    ///< written word; message bytes for kNetDeliver
    std::uint32_t origin = ~0u;  ///< node whose write/message this is
    /// Static string: var kind or message tag ("lock", "mutex-data",
    /// "lock-down", ...), frame flush cause, or an elastic decision's step
    /// ("promote", "split", ...). Call sites pass literals or interned
    /// names, so it outlives the journal.
    std::string_view label;
    // txn abort
    AbortReason reason = AbortReason::kReadSetClobber;
    std::uint32_t shard = 0;   // conflict shard / lease shard / ladder shard
    std::uint32_t stripe = 0;  // conflicting orec stripe / lease slot
    std::uint32_t owner = 0;   // conflicting writer (or root) node
    std::uint32_t attempt = 0; // abort count for this op so far
    // lease (epoch delta at grant/invalidation/expiry)
    std::uint64_t epoch_old = 0;
    std::uint64_t epoch_new = 0;
    // elastic ladder step (in `label`) + triggering inputs
    std::uint32_t target = 0;    // destination shard / stripe / group
    double slope_per_s = 0.0;
    double peak_backlog = 0.0;
    double backlog = 0.0;
    std::uint64_t top_key = 0;
    double top_share = 0.0;
    std::uint32_t streak = 0;
    std::uint32_t cooldown = 0;
  };

  using Sink = std::function<void(const Event&)>;

  /// `keep_protocol` retains protocol records in the pool too; only a trace
  /// export needs them.
  explicit Journal(std::size_t capacity = 1 << 16, bool keep_protocol = false)
      : capacity_(capacity), keep_protocol_(keep_protocol) {
    events_.reserve(capacity_);
  }

  /// Registers a streaming consumer (e.g. the GWC checker) and returns the
  /// id remove_sink takes. Sinks see every record, retained or not.
  std::uint64_t add_sink(Sink sink) {
    sinks_.emplace_back(next_sink_id_, std::move(sink));
    return next_sink_id_++;
  }
  void remove_sink(std::uint64_t id) {
    std::erase_if(sinks_, [id](const auto& s) { return s.first == id; });
  }

  /// Appends one record: every sink sees it, then the pool keeps it while
  /// there is room.
  void record(const Event& e) {
    for (const auto& [id, sink] : sinks_) sink(e);
    if (is_protocol(e.kind) && !keep_protocol_) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  // -- typed append helpers ----------------------------------------------

  /// A protocol record; see Event for what each field holds per kind.
  void protocol(Kind kind, sim::Time t, std::uint32_t node,
                std::uint32_t group, std::uint32_t var, std::uint64_t seq,
                std::int64_t value, std::uint32_t origin,
                std::string_view label) {
    Event e;
    e.kind = kind;
    e.t = t;
    e.node = node;
    e.group = group;
    e.var = var;
    e.seq = seq;
    e.value = value;
    e.origin = origin;
    e.label = label;
    record(e);
  }

  void txn_abort(sim::Time t, AbortReason reason, std::uint32_t node,
                 std::uint32_t shard, std::uint32_t stripe,
                 std::uint32_t owner, std::uint32_t attempt) {
    Event e;
    e.kind = Kind::kTxnAbort;
    e.t = t;
    e.reason = reason;
    e.node = node;
    e.shard = shard;
    e.stripe = stripe;
    e.owner = owner;
    e.attempt = attempt;
    record(e);
  }

  void lease_grant(sim::Time t, std::uint32_t node, std::uint32_t shard,
                   std::uint32_t slot, std::uint64_t epoch_old,
                   std::uint64_t epoch_new) {
    record(lease_event(Kind::kLeaseGrant, t, node, shard, slot, epoch_old,
                       epoch_new));
  }

  void lease_invalidation(sim::Time t, std::uint32_t node, std::uint32_t shard,
                          std::uint32_t slot, std::uint64_t epoch_old,
                          std::uint64_t epoch_new) {
    record(lease_event(Kind::kLeaseInvalidation, t, node, shard, slot,
                       epoch_old, epoch_new));
  }

  void lease_expiry(sim::Time t, std::uint32_t node, std::uint32_t shard,
                    std::uint32_t slot, std::uint64_t epoch) {
    record(lease_event(Kind::kLeaseExpiry, t, node, shard, slot, epoch, epoch));
  }

  /// `step` must point at a string with static storage duration.
  void elastic_decision(sim::Time t, const char* step, std::uint32_t shard,
                        std::uint32_t target, double slope_per_s,
                        double peak_backlog, double backlog,
                        std::uint64_t top_key, double top_share,
                        std::uint32_t streak, std::uint32_t cooldown) {
    Event e;
    e.kind = Kind::kElasticDecision;
    e.t = t;
    e.label = step;
    e.shard = shard;
    e.target = target;
    e.slope_per_s = slope_per_s;
    e.peak_backlog = peak_backlog;
    e.backlog = backlog;
    e.top_key = top_key;
    e.top_share = top_share;
    e.streak = streak;
    e.cooldown = cooldown;
    record(e);
  }

  // -- inspection ---------------------------------------------------------

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t count(Kind k) const;

  /// Emits the optsync-journal/1 document (see header comment): decision
  /// records only. Returns how many records it wrote.
  std::size_t write_json(std::ostream& out) const;

  /// Writes `e`'s kind-specific fields into the open JSON object; shared by
  /// write_json and the Chrome trace export.
  static void write_fields(stats::JsonWriter& w, const Event& e);

  [[nodiscard]] static const char* kind_name(Kind k);

 private:
  static Event lease_event(Kind kind, sim::Time t, std::uint32_t node,
                           std::uint32_t shard, std::uint32_t slot,
                           std::uint64_t epoch_old, std::uint64_t epoch_new) {
    Event e;
    e.kind = kind;
    e.t = t;
    e.node = node;
    e.shard = shard;
    e.stripe = slot;
    e.epoch_old = epoch_old;
    e.epoch_new = epoch_new;
    return e;
  }

  std::size_t capacity_;
  bool keep_protocol_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  std::vector<std::pair<std::uint64_t, Sink>> sinks_;
  std::uint64_t next_sink_id_ = 0;
};

}  // namespace optsync::telemetry
