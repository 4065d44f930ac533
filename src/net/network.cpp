#include "net/network.hpp"

#include <algorithm>

#include "simkern/assert.hpp"

namespace optsync::net {

std::string_view delivery_kind_name(DeliveryKind k) {
  switch (k) {
    case DeliveryKind::kNormal:
      return "normal";
    case DeliveryKind::kRetransmit:
      return "rexmit";
    case DeliveryKind::kDuplicate:
      return "dup";
    case DeliveryKind::kDupSuppressed:
      return "dup-suppressed";
    case DeliveryKind::kInjectedDrop:
      return "dropped";
    case DeliveryKind::kExpired:
      return "expired";
    case DeliveryKind::kRevived:
      return "revived";
  }
  return "?";
}

void Network::send(NodeId src, NodeId dst, std::uint32_t bytes,
                   std::string_view tag, DeliveryFn on_delivery) {
  send_hops(src, dst, topo_->hop_count(src, dst), bytes, tag,
            std::move(on_delivery));
}

void Network::deliver_at(sim::Duration delay, MessageTrace trace,
                         DeliveryFn on_delivery) {
  if (observing()) {
    // Capture trace data now; emit at delivery so lines appear in arrival
    // order, which is what the Fig. 7 trace bench wants to show.
    sched_->after(delay, [this, trace, cb = std::move(on_delivery)]() mutable {
      trace.delivered_at = sched_->now();
      emit_trace(trace);
      cb();
    });
  } else {
    sched_->after(delay, std::move(on_delivery));
  }
}

void Network::send_hops(NodeId src, NodeId dst, unsigned hops,
                        std::uint32_t bytes, std::string_view tag,
                        DeliveryFn on_delivery, DeliveryKind kind) {
  OPTSYNC_EXPECT(on_delivery != nullptr);
  stats_.messages += 1;
  stats_.bytes += bytes;
  stats_.hop_bytes += static_cast<std::uint64_t>(bytes) * hops;
  const sim::Time sent_at = sched_->now();
  const sim::Duration d = link_.delay(hops, bytes);

  FaultAction act;
  if (fault_) {
    act = fault_(MessageMeta{src, dst, hops, bytes, tag, sent_at, d, kind});
  }
  if (act.drop) {
    stats_.drops_injected += 1;
    emit_trace(MessageTrace{sent_at, sent_at + d, src, dst, bytes, tag,
                            DeliveryKind::kInjectedDrop});
    return;
  }
  if (act.extra_delay > 0) {
    stats_.delays_injected += 1;
    stats_.max_extra_delay_ns =
        std::max(stats_.max_extra_delay_ns, act.extra_delay);
  }
  const MessageTrace trace{sent_at, 0, src, dst, bytes, tag, kind};
  for (unsigned i = 0; i < act.duplicates; ++i) {
    stats_.dups_injected += 1;
    MessageTrace dup_trace = trace;
    dup_trace.kind = DeliveryKind::kDuplicate;
    deliver_at(d + act.extra_delay + act.dup_extra_delay, dup_trace,
               on_delivery);  // copies the callback; the payload arrives twice
  }
  deliver_at(d + act.extra_delay, trace, std::move(on_delivery));
}

}  // namespace optsync::net
