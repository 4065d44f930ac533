// Group Write Consistency invariant checker over the trace stream.
//
// GWC's contract (paper §2.2): every member of a group observes all writes
// to the group's variables in one total order — the root's sequence — and
// speculative writes by non-holders never become visible. The checker
// replays the protocol records of the event stream (telemetry::Journal) and
// proves both properties for a run:
//
//   1. Total order: each member applies sequenced writes in strictly
//      increasing sequence order, and what it applies (variable, value)
//      is exactly what the root stamped with that sequence number.
//   2. No invented writes: a member never applies a sequence number the
//      root did not issue.
//   3. Gaps are only echoes: a member may skip a sequence number only when
//      hardware blocking dropped its own mutex-data echo — i.e. the skipped
//      write is mutex-data originated by that very member.
//   4. No speculative visibility: every sequenced mutex-data write was
//      originated by the node holding the guard lock at sequencing time
//      (tracked from the sequenced lock-word values themselves).
//
// Attach with install(): the checker registers a streaming sink on the
// journal, so it sees every record whether or not the pool retains it.
// GwcAudit below is the one way a run wires a checker to its DsmConfig.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/journal.hpp"

namespace optsync::dsm {
struct DsmConfig;
}

namespace optsync::trace {

class GwcChecker {
 public:
  using Event = telemetry::Journal::Event;

  /// Registers this checker as a sink on `journal`. The checker must
  /// outlive the journal's use.
  void install(telemetry::Journal& journal);

  /// Feeds one record (install() wires this up automatically).
  void on_event(const Event& e);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Violations joined for a test failure message; "GWC ok" when clean.
  [[nodiscard]] std::string report() const;

  [[nodiscard]] std::uint64_t writes_checked() const {
    return writes_checked_;
  }

 private:
  struct Sequenced {
    std::uint32_t var = 0;
    std::int64_t value = 0;
    std::uint32_t origin = ~0u;
    bool is_lock = false;
    bool is_mutex_data = false;
  };
  struct GroupState {
    std::map<std::uint64_t, Sequenced> by_seq;
    std::map<std::uint32_t, std::uint64_t> last_applied;  // node -> seq
    bool lock_held = false;
    std::uint32_t holder = ~0u;
  };

  void violation(std::string msg);

  std::map<std::uint32_t, GroupState> groups_;
  std::vector<std::string> violations_;
  std::uint64_t writes_checked_ = 0;
};

/// A GwcChecker riding on a run's event stream: the one way a run attaches
/// one. Installs the checker as a sink on the journal `cfg` already
/// carries, so a --journal-out or --trace-out journal keeps its records;
/// when none is attached it attaches a sink-only journal of its own.
/// Construct after everything else that sets `cfg.journal` and before the
/// DsmSystem it audits; destruction removes the sink, so a journal shared
/// by several runs feeds each run's audit only.
class GwcAudit {
 public:
  explicit GwcAudit(dsm::DsmConfig& cfg);
  ~GwcAudit();
  GwcAudit(const GwcAudit&) = delete;
  GwcAudit& operator=(const GwcAudit&) = delete;

  [[nodiscard]] const GwcChecker& checker() const { return checker_; }

 private:
  telemetry::Journal local_{0};
  telemetry::Journal* journal_;
  GwcChecker checker_;
  std::uint64_t sink_;
};

}  // namespace optsync::trace
