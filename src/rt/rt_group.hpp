// Threaded runtime: the Sesame group protocol under real concurrency.
//
// The simulated substrate (dsm/) proves the timing story; this runtime
// proves the *protocol* story with actual threads racing each other:
//   * every node has an applier thread that applies root-sequenced updates
//     in order (GWC delivery);
//   * one sequencer thread plays the group root: it orders all writes and
//     drives dsm::RootCore for the lock queues and the speculative-write
//     filter, the same core dsm::GroupRoot drives;
//   * insharing suspension pauses the applier; interrupts run on the
//     applier thread exactly where the sharing hardware would raise them;
//   * hardware blocking (dsm::echo_blocked) drops self-echoed mutex data
//     at the applier.
//
// User code (one thread per node, typically) talks to the runtime through
// read/write/atomic_exchange/wait_until, mirroring the DsmNode API.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dsm/root_core.hpp"
#include "rt/channel.hpp"

namespace optsync::rt {

using dsm::kLockFree;
using dsm::NodeId;
using dsm::VarId;
using dsm::VarKind;
using dsm::Word;

class RtSystem {
 public:
  struct Config {
    std::size_t nodes = 4;
    /// Artificial per-message delay injected in the sequencer (widens race
    /// windows for the stress tests). 0 = full speed.
    std::uint32_t link_delay_us = 0;
  };

  /// Origin of the lock words the sequencer emits (grants and FREE): like
  /// the simulator's group root, it sequences them as its own writes. It
  /// is not one of the nodes.
  static constexpr NodeId kSequencer = dsm::kNoNode;

  explicit RtSystem(Config cfg);
  ~RtSystem();
  RtSystem(const RtSystem&) = delete;
  RtSystem& operator=(const RtSystem&) = delete;

  // --- variable definition (call before starting user threads) ----------
  VarId define_data(std::string name);
  VarId define_lock(std::string name);
  VarId define_mutex_data(std::string name, VarId lock);

  // --- node-side operations (thread-safe) --------------------------------
  [[nodiscard]] Word read(NodeId n, VarId v) const;
  void write(NodeId n, VarId v, Word value) { atomic_exchange(n, v, value); }
  Word atomic_exchange(NodeId n, VarId v, Word value);
  /// Restores a local value without sharing (rollback); returns the old one.
  Word poke(NodeId n, VarId v, Word value);

  /// Brackets node `n`'s speculation on lock `guard`: its mutex-data
  /// writes of `guard` in between reach the sequencer tagged speculative
  /// (dsm::RootCore::admits), as in the simulator's DsmNode. One guard
  /// per node at a time: a node is one instruction stream.
  void begin_speculation(NodeId n, VarId guard);
  void end_speculation(NodeId n, VarId guard);

  /// Blocks the calling thread until pred(local value of v) holds.
  void wait_until(NodeId n, VarId v, const std::function<bool(Word)>& pred);

  // --- insharing + interrupts (the Fig. 5 machinery) ---------------------
  void suspend_insharing(NodeId n);
  void resume_insharing(NodeId n);

  /// Handler runs on the applier thread with insharing suspended; it (or
  /// the thread it wakes) must eventually resume_insharing().
  using InterruptHandler = std::function<void(VarId, Word, NodeId origin)>;
  void arm_interrupt(NodeId n, VarId v, InterruptHandler h);
  void disarm_interrupt(NodeId n, VarId v);

  struct Stats {
    std::atomic<std::uint64_t> sequenced{0};
    std::atomic<std::uint64_t> speculative_drops{0};
    std::atomic<std::uint64_t> echoes_dropped{0};
    std::atomic<std::uint64_t> interrupts{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Blocks until every queue is drained and appliers are idle — the
  /// threaded analog of running the simulator dry. Call only when no user
  /// thread is issuing writes. Rethrows the first ContractViolation the
  /// sequencer rejected a write with since the last call (a release by a
  /// non-holder, a nested request), as the simulator's run() would.
  void quiesce();

 private:
  struct Update {
    std::uint64_t seq;
    VarId var;
    Word value;
    NodeId origin;
  };
  struct OutMsg {
    NodeId origin;
    VarId var;
    Word value;
    bool speculative;
  };
  struct Node {
    mutable std::mutex mem_mu;
    std::condition_variable mem_cv;
    std::vector<Word> memory;
    bool suspended = false;
    std::condition_variable suspend_cv;
    std::vector<InterruptHandler> interrupts;  ///< by VarId; empty = disarmed
    VarId spec_guard = dsm::kNoVar;  ///< speculated-on lock; by mem_mu
    Channel<Update> inbox;
    std::thread applier;
  };
  VarId add_var(dsm::VarInfo info, Word initial);
  void sequencer_main();
  void applier_main(NodeId n);
  void apply_update(Node& node, NodeId id, const Update& u);
  void sequence(const OutMsg& m);
  void multicast(VarId v, Word value, NodeId origin);

  Config cfg_;
  std::vector<dsm::VarInfo> vars_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Channel<OutMsg> to_root_;
  std::thread sequencer_;
  std::uint64_t next_seq_ = 1;  // sequencer thread only
  dsm::RootCore core_;           // sequencer thread only
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first rejected write, for quiesce()
  std::atomic<std::int64_t> inflight_{0};  ///< undelivered messages
  Stats stats_;
  std::atomic<bool> shutting_down_{false};
};

}  // namespace optsync::rt
