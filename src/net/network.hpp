// Message delivery engine: topology + link model + scheduler.
//
// By default the network is connectionless and reliable (Sesame's tree
// protocol handles retransmission in hardware; we model the common case of
// loss-free fiber, as the paper's simulations do). Delivery order between a
// fixed (src, dst) pair is FIFO because delays are deterministic per message
// size and the scheduler breaks ties by insertion order.
//
// That happy path can be attacked: a fault hook (installed by
// faults::FaultInjector) inspects every send and may drop it, duplicate it,
// or add per-message delay — which breaks the FIFO property on purpose.
// Protocols that must survive that run on top of net::ReliableChannel, the
// explicit software model of the "reliable, root-sequenced" delivery the
// paper attributes to hardware retransmission.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/link_model.hpp"
#include "net/topology.hpp"
#include "simkern/scheduler.hpp"

namespace optsync::net {

/// Delivery callbacks ride scheduler events; the small-buffer type keeps
/// per-message sends allocation-free. Must be copy-constructible closures —
/// the fault injector duplicates messages by copying the callback.
using DeliveryFn = sim::Scheduler::Callback;

/// Counters exposed for benches and the EXPERIMENTS tables.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hop_bytes = 0;  ///< bytes weighted by hops travelled
  // Fault-injection counters (zero unless a fault hook is installed).
  std::uint64_t drops_injected = 0;   ///< messages destroyed by the injector
  std::uint64_t dups_injected = 0;    ///< extra copies created by the injector
  std::uint64_t delays_injected = 0;  ///< messages given extra delay
  sim::Duration max_extra_delay_ns = 0;  ///< largest injected delay
};

/// What kind of delivery a trace record describes. kNormal covers the
/// loss-free fast path; the other kinds only occur under fault injection
/// and/or the reliable-channel layer.
enum class DeliveryKind : std::uint8_t {
  kNormal = 0,
  kRetransmit,     ///< a ReliableChannel retransmission arriving
  kDuplicate,      ///< an injector-created extra copy arriving
  kDupSuppressed,  ///< arrival discarded by ReliableChannel dedup
  kInjectedDrop,   ///< message destroyed in flight by the injector
  kExpired,        ///< packet abandoned at the retransmit cap
  kRevived,        ///< abandoned packet retransmitted after an ack proved
                   ///< the receiver is still waiting on it
};

/// Short label for trace output ("normal", "rexmit", ...).
[[nodiscard]] std::string_view delivery_kind_name(DeliveryKind k);

/// One observed message; emitted to the trace hook when installed.
struct MessageTrace {
  sim::Time sent_at;
  sim::Time delivered_at;  ///< for kInjectedDrop: when it would have arrived
  NodeId src;
  NodeId dst;
  std::uint32_t bytes;
  std::string_view tag;  ///< protocol-level label, e.g. "lock-req"
  DeliveryKind kind = DeliveryKind::kNormal;
};

/// What a fault hook sees about a message at send time.
struct MessageMeta {
  NodeId src;
  NodeId dst;
  unsigned hops;
  std::uint32_t bytes;
  std::string_view tag;
  sim::Time sent_at;
  sim::Duration base_delay;  ///< fault-free end-to-end latency
  DeliveryKind kind;         ///< kNormal or kRetransmit
};

/// What the fault hook decided for one message. Defaults mean "deliver
/// normally". A duplicate delivers the same payload a second time at
/// base_delay + extra_delay + dup_extra_delay.
struct FaultAction {
  bool drop = false;
  unsigned duplicates = 0;
  sim::Duration extra_delay = 0;
  sim::Duration dup_extra_delay = 0;
};

class Network {
 public:
  Network(sim::Scheduler& sched, const Topology& topo, LinkModel link)
      : sched_(&sched), topo_(&topo), link_(link) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const LinkModel& link() const { return link_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// End-to-end latency from src to dst for a message of `bytes`.
  [[nodiscard]] sim::Duration latency(NodeId src, NodeId dst,
                                      std::uint32_t bytes) const {
    return link_.delay(topo_->hop_count(src, dst), bytes);
  }

  /// Latency across a pre-computed number of hops (tree-edge delivery).
  [[nodiscard]] sim::Duration latency_hops(unsigned hops,
                                           std::uint32_t bytes) const {
    return link_.delay(hops, bytes);
  }

  /// Sends a message; `on_delivery` runs at the arrival time.
  /// `tag` labels the message for tracing (must outlive the delivery —
  /// callers pass string literals).
  void send(NodeId src, NodeId dst, std::uint32_t bytes, std::string_view tag,
            DeliveryFn on_delivery);

  /// Sends across an explicit hop count (used for tree edges whose physical
  /// length differs from the src-dst shortest path). `kind` distinguishes
  /// retransmissions for tracing; fresh sends leave it kNormal.
  void send_hops(NodeId src, NodeId dst, unsigned hops, std::uint32_t bytes,
                 std::string_view tag, DeliveryFn on_delivery,
                 DeliveryKind kind = DeliveryKind::kNormal);

  /// Accounts `n` equal-size messages fanned out across `hops` each (one
  /// multicast hop-class) without scheduling anything. The caller owns the
  /// delivery event and per-member trace emission — see the hop-class fast
  /// path in DsmSystem::multicast_frame, which schedules one scheduler
  /// event per hop-class instead of one per member.
  void account_sends(std::size_t n, unsigned hops, std::uint32_t bytes) {
    stats_.messages += n;
    stats_.bytes += static_cast<std::uint64_t>(bytes) * n;
    stats_.hop_bytes += static_cast<std::uint64_t>(bytes) * hops * n;
  }

  /// True when some observer wants a record of every delivery.
  [[nodiscard]] bool observing() const { return !observers_.empty(); }

  /// Adds an observer of every delivery; observers run in the order they
  /// were added. The event stream (DsmConfig::journal) taps the network
  /// this way, alongside any a test or workload adds.
  using TraceHook = std::function<void(const MessageTrace&)>;
  void add_trace_observer(TraceHook hook) {
    observers_.push_back(std::move(hook));
  }

  /// Emits a record straight to the observers. Used by layered protocols
  /// to report events the raw network cannot see (duplicate suppression).
  void emit_trace(const MessageTrace& t) {
    for (const auto& obs : observers_) obs(t);
  }

  /// Installs the fault hook consulted on every send (nullptr removes it).
  /// Owned by faults::FaultInjector; plain callers never touch this.
  using FaultHook = std::function<FaultAction(const MessageMeta&)>;
  void set_fault_hook(FaultHook hook) { fault_ = std::move(hook); }
  [[nodiscard]] bool fault_hook_installed() const { return fault_ != nullptr; }

 private:
  void deliver_at(sim::Duration delay, MessageTrace trace,
                  DeliveryFn on_delivery);

  sim::Scheduler* sched_;
  const Topology* topo_;
  LinkModel link_;
  NetworkStats stats_;
  std::vector<TraceHook> observers_;
  FaultHook fault_;
};

}  // namespace optsync::net
