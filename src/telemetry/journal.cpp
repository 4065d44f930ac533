#include "telemetry/journal.hpp"

#include <iterator>

#include "stats/json.hpp"

namespace optsync::telemetry {

const char* abort_reason_name(AbortReason r) {
  switch (r) {
    case AbortReason::kReadSetClobber:
      return "read_set_clobber";
    case AbortReason::kCommitValidation:
      return "commit_validation";
    case AbortReason::kDirectoryEpoch:
      return "directory_epoch";
    case AbortReason::kFallbackEscalation:
      return "fallback_escalation";
  }
  return "unknown";
}

namespace {

// Indexed by Journal::Kind, in declaration order.
constexpr const char* kKindNames[] = {
    "txn_abort",
    "lease_grant",
    "lease_invalidation",
    "lease_expiry",
    "elastic_decision",
    "net_deliver",
    "root_sequence",
    "root_drop_spec",
    "node_apply",
    "echo_drop",
    "lock_request",
    "lock_acquire",
    "lock_release",
    "speculate_begin",
    "speculate_commit",
    "rollback",
    "history_veto",
    "frame_flush",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(Journal::kLastKind) + 1);

}  // namespace

const char* Journal::kind_name(Kind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kKindNames) ? kKindNames[i] : "unknown";
}

std::uint64_t Journal::count(Kind k) const {
  std::uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == k) ++n;
  }
  return n;
}

void Journal::write_fields(stats::JsonWriter& w, const Event& e) {
  switch (e.kind) {
    case Kind::kTxnAbort:
      w.value("reason", abort_reason_name(e.reason));
      w.value("node", e.node);
      w.value("shard", e.shard);
      w.value("stripe", e.stripe);
      w.value("owner", e.owner);
      w.value("attempt", e.attempt);
      return;
    case Kind::kLeaseGrant:
    case Kind::kLeaseInvalidation:
    case Kind::kLeaseExpiry:
      w.value("node", e.node);
      w.value("shard", e.shard);
      w.value("slot", e.stripe);
      w.value("epoch_old", e.epoch_old);
      w.value("epoch_new", e.epoch_new);
      return;
    case Kind::kElasticDecision:
      w.value("step", e.label.empty() ? "unknown" : e.label);
      w.value("shard", e.shard);
      w.value("target", e.target);
      w.value("slope_per_s", e.slope_per_s);
      w.value("peak_backlog", e.peak_backlog);
      w.value("backlog", e.backlog);
      w.value("top_key", e.top_key);
      w.value("top_share", e.top_share);
      w.value("streak", e.streak);
      w.value("cooldown", e.cooldown);
      return;
    default:  // protocol records
      w.value("label", e.label);
      w.value("group", e.group);
      w.value("var", e.var);
      w.value("seq", e.seq);
      w.value("value", e.value);
      if (e.origin != ~0u) w.value("origin", e.origin);
      return;
  }
}

std::size_t Journal::write_json(std::ostream& out) const {
  std::size_t written = 0;
  stats::JsonWriter w(out, /*pretty=*/true);
  w.begin_object();
  w.value("schema", "optsync-journal/1");
  w.value("capacity", static_cast<std::uint64_t>(capacity_));
  w.value("dropped", dropped_);
  w.begin_array("events");
  for (const auto& e : events_) {
    if (is_protocol(e.kind)) continue;
    w.begin_object();
    w.value("kind", kind_name(e.kind));
    w.value("t", e.t);
    write_fields(w, e);
    w.end_object();
    ++written;
  }
  w.end_array();
  w.end_object();
  out << "\n";
  return written;
}

}  // namespace optsync::telemetry
