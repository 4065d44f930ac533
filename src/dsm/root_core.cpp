#include "dsm/root_core.hpp"

#include <algorithm>

#include "simkern/assert.hpp"

namespace optsync::dsm {

RootCore::Decision RootCore::on_lock_word(VarId lock, NodeId origin,
                                          Word value) {
  auto it = std::find_if(locks_.begin(), locks_.end(),
                         [lock](const auto& e) { return e.first == lock; });
  if (it == locks_.end()) {
    locks_.emplace_back(lock, LockState{});
    it = locks_.end() - 1;
  }
  LockState& ls = it->second;
  const auto slot = static_cast<std::uint32_t>(it - locks_.begin());

  if (value == kLockFree) {
    // Release. The paper assumes correct bracketing; enforce it.
    OPTSYNC_EXPECT(ls.holder == origin);
    ++ls.releases;
    if (ls.queue.empty()) {
      ls.holder = kNoNode;
      ls.handed_off = false;
      return {Verdict::kFree, kNoNode, slot};
    }
    // "The root checks whether any nodes are queued awaiting exclusive
    // access. If so, the next queued number is written as the new lock
    // value."
    ls.holder = ls.queue.take_front();
    ls.handed_off = true;
    ++ls.queued_grants;
    return {Verdict::kHandoff, ls.holder, slot};
  }

  OPTSYNC_EXPECT(value < 0);  // a request: -(id + 1)
  const auto requester = static_cast<NodeId>(-value - 1);
  OPTSYNC_EXPECT(requester == origin);
  OPTSYNC_EXPECT(ls.holder != requester);  // no nested acquisition (Fig. 4)
  ++ls.requests;
  if (ls.holder == kNoNode) {
    ls.holder = requester;
    ls.handed_off = false;
    ++ls.immediate_grants;
    return {Verdict::kGrant, requester, slot};
  }
  // Busy: queue the processor id; requests are consumed by the root and
  // never propagate to other members.
  ls.queue.push_back(requester);
  ls.max_queue_depth = std::max(ls.max_queue_depth, ls.queue.size());
  return {Verdict::kQueued, ls.holder, slot};
}

const RootCore::LockState& RootCore::lock_state(VarId lock) const {
  static const LockState kIdle;
  for (const auto& [var, state] : locks_) {
    if (var == lock) return state;
  }
  return kIdle;
}

std::size_t RootCore::waiter_queue_depth() const {
  std::size_t depth = 0;
  for (const auto& [var, state] : locks_) depth += state.queue.size();
  return depth;
}

}  // namespace optsync::dsm
