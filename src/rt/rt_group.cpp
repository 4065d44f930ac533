#include "rt/rt_group.hpp"

#include <chrono>
#include <utility>

#include "simkern/assert.hpp"

namespace optsync::rt {

RtSystem::RtSystem(Config cfg) : cfg_(cfg) {
  OPTSYNC_EXPECT(cfg.nodes >= 1);
  nodes_.reserve(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>());
  }
  sequencer_ = std::thread([this] { sequencer_main(); });
  for (NodeId i = 0; i < cfg.nodes; ++i) {
    nodes_[i]->applier = std::thread([this, i] { applier_main(i); });
  }
}

RtSystem::~RtSystem() {
  shutting_down_.store(true, std::memory_order_release);
  to_root_.close();
  if (sequencer_.joinable()) sequencer_.join();
  for (auto& node : nodes_) {
    // Unstick a suspended applier, then let it drain and exit.
    {
      std::lock_guard lk(node->mem_mu);
      node->suspended = false;
    }
    node->suspend_cv.notify_all();
    node->inbox.close();
  }
  for (auto& node : nodes_) {
    if (node->applier.joinable()) node->applier.join();
  }
}

VarId RtSystem::add_var(dsm::VarInfo info, Word initial) {
  const auto v = static_cast<VarId>(vars_.size());
  vars_.push_back(std::move(info));
  for (auto& node : nodes_) {
    std::lock_guard lk(node->mem_mu);
    node->memory.push_back(initial);
    node->interrupts.emplace_back();
  }
  return v;
}

VarId RtSystem::define_data(std::string name) {
  return add_var({std::move(name), 0, VarKind::kData, dsm::kNoVar, 0}, 0);
}

VarId RtSystem::define_lock(std::string name) {
  return add_var({std::move(name), 0, VarKind::kLock, dsm::kNoVar, 0},
                 kLockFree);
}

VarId RtSystem::define_mutex_data(std::string name, VarId lock) {
  OPTSYNC_EXPECT(lock < vars_.size());
  OPTSYNC_EXPECT(vars_[lock].kind == VarKind::kLock);
  return add_var({std::move(name), 0, VarKind::kMutexData, lock, 0}, 0);
}

Word RtSystem::read(NodeId n, VarId v) const {
  OPTSYNC_EXPECT(n < nodes_.size() && v < vars_.size());
  std::lock_guard lk(nodes_[n]->mem_mu);
  return nodes_[n]->memory[v];
}

Word RtSystem::atomic_exchange(NodeId n, VarId v, Word value) {
  OPTSYNC_EXPECT(n < nodes_.size() && v < vars_.size());
  auto& node = *nodes_[n];
  const dsm::VarInfo& info = vars_[v];
  Word old;
  bool speculative = false;
  {
    std::lock_guard lk(node.mem_mu);
    old = std::exchange(node.memory[v], value);
    speculative =
        info.kind == VarKind::kMutexData && info.guard == node.spec_guard;
  }
  node.mem_cv.notify_all();
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  to_root_.push(OutMsg{n, v, value, speculative});
  return old;
}

void RtSystem::begin_speculation(NodeId n, VarId guard) {
  OPTSYNC_EXPECT(n < nodes_.size());
  auto& node = *nodes_[n];
  std::lock_guard lk(node.mem_mu);
  node.spec_guard = guard;
}

void RtSystem::end_speculation(NodeId n, VarId guard) {
  OPTSYNC_EXPECT(n < nodes_.size());
  auto& node = *nodes_[n];
  std::lock_guard lk(node.mem_mu);
  if (node.spec_guard == guard) node.spec_guard = dsm::kNoVar;
}

Word RtSystem::poke(NodeId n, VarId v, Word value) {
  OPTSYNC_EXPECT(n < nodes_.size() && v < vars_.size());
  auto& node = *nodes_[n];
  Word old;
  {
    std::lock_guard lk(node.mem_mu);
    old = std::exchange(node.memory[v], value);
  }
  node.mem_cv.notify_all();
  return old;
}

void RtSystem::wait_until(NodeId n, VarId v,
                          const std::function<bool(Word)>& pred) {
  OPTSYNC_EXPECT(n < nodes_.size() && v < vars_.size());
  auto& node = *nodes_[n];
  std::unique_lock lk(node.mem_mu);
  node.mem_cv.wait(lk, [&] { return pred(node.memory[v]); });
}

void RtSystem::suspend_insharing(NodeId n) {
  auto& node = *nodes_[n];
  std::lock_guard lk(node.mem_mu);
  node.suspended = true;
}

void RtSystem::resume_insharing(NodeId n) {
  auto& node = *nodes_[n];
  {
    std::lock_guard lk(node.mem_mu);
    node.suspended = false;
  }
  node.suspend_cv.notify_all();
}

void RtSystem::arm_interrupt(NodeId n, VarId v, InterruptHandler h) {
  OPTSYNC_EXPECT(h != nullptr && n < nodes_.size() && v < vars_.size());
  auto& node = *nodes_[n];
  std::lock_guard lk(node.mem_mu);
  node.interrupts[v] = std::move(h);
}

void RtSystem::disarm_interrupt(NodeId n, VarId v) {
  OPTSYNC_EXPECT(n < nodes_.size() && v < vars_.size());
  auto& node = *nodes_[n];
  std::lock_guard lk(node.mem_mu);
  node.interrupts[v] = nullptr;
}

void RtSystem::sequencer_main() {
  while (auto msg = to_root_.pop()) {
    if (cfg_.link_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(cfg_.link_delay_us));
    }
    try {
      sequence(*msg);
    } catch (const ContractViolation&) {
      // The write is rejected; the sequencer keeps serving the others.
      std::lock_guard lk(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void RtSystem::sequence(const OutMsg& m) {
  const dsm::VarInfo& info = vars_[m.var];
  switch (info.kind) {
    case VarKind::kLock: {
      const dsm::RootCore::Decision d =
          core_.on_lock_word(m.var, m.origin, m.value);
      if (d.verdict != dsm::RootCore::Verdict::kQueued) {
        multicast(m.var, d.word(), kSequencer);
      }
      return;
    }
    case VarKind::kMutexData:
      if (!core_.admits(info.guard, m.origin, m.speculative)) {
        stats_.speculative_drops.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      [[fallthrough]];
    case VarKind::kData:
      multicast(m.var, m.value, m.origin);
      return;
  }
}

void RtSystem::multicast(VarId v, Word value, NodeId origin) {
  const std::uint64_t seq = next_seq_++;
  stats_.sequenced.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(static_cast<std::int64_t>(nodes_.size()),
                      std::memory_order_acq_rel);
  for (auto& node : nodes_) {
    node->inbox.push(Update{seq, v, value, origin});
  }
}

void RtSystem::applier_main(NodeId id) {
  auto& node = *nodes_[id];
  while (auto u = node.inbox.pop()) {
    // Honor insharing suspension before touching memory.
    {
      std::unique_lock lk(node.mem_mu);
      node.suspend_cv.wait(lk, [&] {
        return !node.suspended || shutting_down_.load(std::memory_order_acquire);
      });
    }
    apply_update(node, id, *u);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void RtSystem::apply_update(Node& node, NodeId id, const Update& u) {
  const dsm::VarInfo& info = vars_[u.var];
  InterruptHandler handler;
  {
    std::lock_guard lk(node.mem_mu);
    if (dsm::echo_blocked(info.kind, u.origin, id)) {
      stats_.echoes_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    node.memory[u.var] = u.value;
    if (node.interrupts[u.var]) {
      // Interrupt is atomically coupled with insharing suspension: set the
      // flag while still holding the memory lock, then run the handler
      // outside it (handlers call back into the runtime).
      node.suspended = true;
      stats_.interrupts.fetch_add(1, std::memory_order_relaxed);
      handler = node.interrupts[u.var];
    }
  }
  // Run the handler before notifying memory waiters so a thread observing
  // the new value can rely on the interrupt logic having executed.
  if (handler) handler(u.var, u.value, u.origin);
  node.mem_cv.notify_all();
}

void RtSystem::quiesce() {
  using namespace std::chrono_literals;
  int stable = 0;
  while (stable < 3) {
    if (inflight_.load(std::memory_order_acquire) == 0) {
      ++stable;
    } else {
      stable = 0;
    }
    std::this_thread::sleep_for(200us);
  }
  std::exception_ptr err;
  {
    std::lock_guard lk(error_mu_);
    std::swap(err, error_);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace optsync::rt
