#include "txn/txn.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "sync/gwc_lock.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::txn {

TxnManager::TxnManager(dsm::DsmSystem& sys, TxnConfig cfg)
    : sys_(&sys),
      cfg_(cfg),
      orecs_(sys, cfg.orec_stripes),
      cm_(sys, cfg.contention),
      active_(sys.node_count(), nullptr),
      buffers_(sys.node_count()) {}

SiteId TxnManager::add_site(const std::string& name, dsm::GroupId g,
                            dsm::VarId lock, dsm::VarId version) {
  OPTSYNC_EXPECT(sys_->var(lock).kind == dsm::VarKind::kLock);
  const SiteId id = orecs_.add_site(name, g, lock);
  Site site;
  site.group = g;
  site.lock = lock;
  site.version = version;
  sites_.push_back(site);
  OPTSYNC_ENSURE(static_cast<SiteId>(sites_.size() - 1) == id);
  return id;
}

void TxnManager::begin(Txn& t, dsm::NodeId n) {
  // One transaction per node: the node is one instruction stream, and the
  // clobber handler resolves its target through the per-node slot.
  OPTSYNC_EXPECT(n < active_.size() && active_[n] == nullptr);
  OPTSYNC_EXPECT(!t.active);
  // Borrow the node's buffers: empty, with the capacity earlier
  // transactions grew. (The doom attribution is read only once
  // doom_known is set.)
  swap_buffers(t, buffers_[n]);
  t.node = n;
  t.active = true;
  t.doomed = false;
  t.doom_known = false;
  t.began = sys_->scheduler().now();
  active_[n] = &t;
  ++begun_;
}

void TxnManager::swap_buffers(Txn& t, Buffers& b) {
  t.reads.swap(b.reads);
  t.undo.swap(b.undo);
  t.write_stripes.swap(b.write_stripes);
  t.write_sites.swap(b.write_sites);
}

void TxnManager::observe(Txn& t, SiteId site, std::uint32_t stripe) {
  OPTSYNC_EXPECT(t.active);
  for (const auto& r : t.reads) {
    if (r.site == site && r.stripe == stripe) return;
  }
  t.reads.push_back(Txn::ReadEntry{site, stripe,
                                   orecs_.version(t.node, site, stripe)});
}

dsm::Word TxnManager::read_word(Txn& t, SiteId site, std::uint32_t stripe,
                                dsm::VarId v) {
  observe(t, site, stripe);
  // Read-your-own-writes: a pending speculative value shadows the local
  // replica (which a tolerated write-write clobber may have overwritten).
  for (const auto& u : t.undo) {
    if (u.var == v) return u.after;
  }
  return sys_->node(t.node).read(v);
}

void TxnManager::arm_clobber(Txn& t, SiteId site, std::uint32_t stripe,
                             dsm::VarId v) {
  sys_->node(t.node).arm_interrupt(
      v, [this, n = t.node, site, stripe](dsm::VarId var, dsm::Word value,
                                          dsm::NodeId origin) {
        // A sequenced foreign write landed in our write-set: some other
        // transaction committed a conflicting update. The applied value is
        // the group's authoritative state — record it as the entry's new
        // restore image (an abort must converge on it, not on the stale
        // pre-image). Whether the clobber KILLS us depends on what we did
        // with the variable: a blind write survives (our publish will
        // overwrite it under the site locks — strict two-phase locking at
        // commit keeps write-write races serializable), but a clobber on a
        // stripe this transaction READ dooms it — the speculation is built
        // on a value that is no longer the group's state. (Self-echoes
        // never reach here: hardware blocking drops them before the
        // interrupt.)
        if (Txn* active = active_[n]; active != nullptr && origin != n) {
          Txn& txn = *active;
          for (auto& u : txn.undo) {
            if (u.var == var) {
              u.clobbered = true;
              u.before = value;
              break;
            }
          }
          for (const auto& r : txn.reads) {
            if (r.site == site && r.stripe == stripe) {
              txn.doomed = true;
              if (!txn.doom_known) {
                // First doom wins: this is the conflict that killed us.
                txn.doom_known = true;
                txn.doom_site = site;
                txn.doom_stripe = stripe;
                txn.doom_origin = origin;
              }
              break;
            }
          }
          ++clobbers_;
        }
        sys_->node(n).resume_insharing();
      });
}

void TxnManager::write_word(Txn& t, SiteId site, std::uint32_t stripe,
                            dsm::VarId v, dsm::Word value) {
  OPTSYNC_EXPECT(t.active);
  // A doomed transaction stops speculating: it is headed for abort, and
  // every further poke is work the rollback would just undo.
  if (t.doomed) return;
  auto& node = sys_->node(t.node);
  for (auto& u : t.undo) {
    if (u.var == v) {
      u.after = value;
      node.poke(v, value);
      return;
    }
  }
  t.undo.push_back(Txn::UndoEntry{v, node.read(v), value, false});
  arm_clobber(t, site, stripe, v);
  node.poke(v, value);
  if (std::find(t.write_stripes.begin(), t.write_stripes.end(),
                std::make_pair(site, stripe)) == t.write_stripes.end()) {
    t.write_stripes.emplace_back(site, stripe);
  }
  if (std::find(t.write_sites.begin(), t.write_sites.end(), site) ==
      t.write_sites.end()) {
    t.write_sites.push_back(site);
  }
}

void TxnManager::note_doom_conflict(const Txn& t, CommitResult* out) {
  if (!t.doom_known) return;
  out->has_conflict = true;
  out->conflict_site = t.doom_site;
  out->conflict_stripe = t.doom_stripe;
  out->conflict_origin = t.doom_origin;
}

void TxnManager::finish(Txn& t) {
  auto& node = sys_->node(t.node);
  for (const auto& u : t.undo) node.disarm_interrupt(u.var);
  active_[t.node] = nullptr;
  t.active = false;
  // Hand the buffers back cleared; t gets back the empty ones it held.
  t.reads.clear();
  t.undo.clear();
  t.write_stripes.clear();
  t.write_sites.clear();
  swap_buffers(t, buffers_[t.node]);
}

sim::Process TxnManager::commit(Txn& t, CommitResult* out) {
  OPTSYNC_EXPECT(t.active);
  OPTSYNC_EXPECT(out != nullptr);
  *out = CommitResult{};
  auto& sched = sys_->scheduler();
  auto& node = sys_->node(t.node);
  auto* trc = sys_->tracer();

  // Fast abort: a clobber interrupt already doomed this transaction, so
  // validation cannot succeed. Abort before touching any lock — a doomed
  // transaction must not add hold time to the very locks it lost the
  // race on.
  if (t.doomed) {
    out->doomed_at_commit = true;
    note_doom_conflict(t, out);
    ++aborts_;
    co_await abort_impl(t).join();
    co_return;
  }

  // The write-site locks, taken through the one ordered acquisition the
  // irrevocable fallback uses too, so the two paths can never deadlock
  // against each other. A read-only commit takes no locks.
  std::vector<dsm::VarId>& locks = buffers_[t.node].locks;
  locks.clear();
  for (const SiteId s : t.write_sites) locks.push_back(sites_[s].lock);
  if (!locks.empty()) {
    co_await sync::acquire_ordered(*sys_, &locks, t.node).join();
    out->locks_acquired_at = sched.now();
  }

  // Validate. Grant-follows-data: with every write lock held, all orec
  // bumps sequenced before our grants have applied locally, so the local
  // orec replica is the owning roots' view for the locked sites.
  const sim::Time validate_began = sched.now();
  const auto entries = t.reads.size() + t.write_stripes.size();
  if (entries > 0) {
    co_await sim::delay(sched, cfg_.validate_ns_per_entry *
                                   static_cast<sim::Duration>(entries));
  }
  bool ok = !t.doomed;
  if (!ok) {
    out->doomed_at_commit = true;
    note_doom_conflict(t, out);
  }
  if (ok) {
    for (const auto& r : t.reads) {
      if (orecs_.version(t.node, r.site, r.stripe) != r.observed) {
        ok = false;
        out->validation_failed = true;
        // The moved orec is the conflict; the committer that bumped it is
        // anonymous here (only the version is replicated).
        out->has_conflict = true;
        out->conflict_site = r.site;
        out->conflict_stripe = r.stripe;
        ++validation_failures_;
        break;
      }
    }
  }
  if (trc != nullptr) {
    if (const auto ctx = trc->node_ctx(t.node); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kValidate,
                       t.node, validate_began, sched.now());
    }
  }

  if (ok) {
    // Publish through the normal sequenced path: we hold every involved
    // site lock, so the roots accept the writes and GWC carries them (and
    // the orec/ledger bumps behind them) to every member in one order.
    for (const auto& u : t.undo) node.write(u.var, u.after);
    for (const auto& [site, stripe] : t.write_stripes) {
      orecs_.bump(t.node, site, stripe);
    }
    for (const SiteId s : t.write_sites) {
      const dsm::VarId ver = sites_[s].version;
      if (ver != dsm::kNoVar) node.write(ver, node.read(ver) + 1);
    }
  }
  sync::release_ordered(*sys_, locks, t.node);

  if (ok) {
    finish(t);  // disarms the write set; nothing to restore
    ++commits_;
    out->committed = true;
  } else {
    ++aborts_;
    co_await abort_impl(t).join();
  }
}

sim::Process TxnManager::abort(Txn& t) {
  OPTSYNC_EXPECT(t.active);
  ++aborts_;
  return abort_impl(t);
}

sim::Process TxnManager::abort_impl(Txn& t) {
  auto& sched = sys_->scheduler();
  auto& node = sys_->node(t.node);
  const sim::Time began = sched.now();
  if (!t.undo.empty()) {
    co_await sim::delay(sched, cfg_.restore_ns_per_var *
                                   static_cast<sim::Duration>(t.undo.size()));
  }
  // Restore in reverse journal order. For clobbered entries `before` is
  // the latest foreign sequenced value (authoritative — the clobber
  // handler keeps it current), so restoring converges every entry whether
  // or not a conflicting commit overwrote it; the interrupts stay armed
  // through the delay above so a commit landing mid-abort still refreshes
  // its entry before we restore it.
  for (auto it = t.undo.rbegin(); it != t.undo.rend(); ++it) {
    node.poke(it->var, it->before);
  }
  if (auto* trc = sys_->tracer()) {
    if (const auto ctx = trc->node_ctx(t.node); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kRollback,
                       t.node, began, sched.now());
    }
  }
  finish(t);
}

}  // namespace optsync::txn
