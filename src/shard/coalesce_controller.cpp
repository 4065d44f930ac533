#include "shard/coalesce_controller.hpp"

#include <algorithm>
#include <string>

#include "dsm/root.hpp"
#include "dsm/system.hpp"
#include "shard/sharded_store.hpp"

namespace optsync::shard {

CoalesceController::CoalesceController(ShardedStore& store,
                                       const stats::ServiceReport& live,
                                       CoalesceControllerConfig cfg)
    : store_(&store), live_(&live), cfg_(cfg) {
  if (cfg_.interval_ns <= 0) cfg_.interval_ns = 50'000;
  cfg_.min_writes = std::max(1u, cfg_.min_writes);
  cfg_.max_writes = std::max(cfg_.min_writes, cfg_.max_writes);
  ctl_.resize(store.shards());
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    auto& root = store.system().root_of(store.group_of(s));
    ctl_[s].cap = std::max(cfg_.min_writes, root.coalesce_max_writes());
    ctl_[s].peak = ctl_[s].cap;
  }
}

void CoalesceController::start() {
  pending_ = store_->system().scheduler().after_housekeeping(
      cfg_.interval_ns, [this] { tick(); });
}

void CoalesceController::stop() {
  if (pending_ != 0) {
    store_->system().scheduler().cancel_housekeeping(pending_);
    pending_ = 0;
  }
}

void CoalesceController::register_telemetry(telemetry::Sampler& sampler) {
  sampler.set_help("optsync_coalesce_cap",
                   "Current write-coalescing batch cap, per shard");
  for (std::uint32_t s = 0; s < ctl_.size(); ++s) {
    sampler.add_gauge("optsync_coalesce_cap",
                      {{"shard", std::to_string(s)}},
                      [this, s] { return static_cast<double>(ctl_[s].cap); });
  }
}

void CoalesceController::apply_cap(ShardId s, std::uint32_t cap) {
  ShardCtl& c = ctl_[s];
  if (cap == c.cap) return;
  if (cap > c.cap) {
    ++c.raises;
  } else {
    ++c.lowers;
  }
  c.cap = cap;
  c.peak = std::max(c.peak, cap);
  auto& root = store_->system().root_of(store_->group_of(s));
  // At the floor the deadline is irrelevant (every flush is size-triggered);
  // while batching, use the short deadline so an arrival lull cannot hold a
  // parked grant past batch_deadline_ns.
  root.set_coalesce(cap, cfg_.batch_deadline_ns);
}

void CoalesceController::tick() {
  pending_ = 0;
  ++ticks_;
  for (std::uint32_t s = 0; s < ctl_.size(); ++s) {
    ShardCtl& c = ctl_[s];
    const auto& root_stats =
        store_->system().root_of(store_->group_of(s)).stats();
    const std::uint64_t d_frames = root_stats.frames - c.last_frames;
    const std::uint64_t d_timer =
        root_stats.timer_flushes - c.last_timer_flushes;
    c.last_frames = root_stats.frames;
    c.last_timer_flushes = root_stats.timer_flushes;

    const double b = live_->backlog(s);
    std::uint32_t next = c.cap;
    if (b >= cfg_.backlog_high) {
      // Root-bound: writes are queueing faster than they complete, so
      // frames fill from the queue — batching is latency-free here and
      // halves the message count per doubling.
      next = std::min(cfg_.max_writes, std::max(2u, c.cap * 2));
    } else if (b <= cfg_.backlog_low) {
      next = std::max(cfg_.min_writes, c.cap / 2);
    } else if (c.cap > cfg_.min_writes && d_frames > 0 &&
               static_cast<double>(d_timer) >
                   cfg_.timer_share_high * static_cast<double>(d_frames)) {
      // Mid-band but frames mostly close on the deadline: the cap outruns
      // the arrival rate and only adds latency. Back off one step.
      next = std::max(cfg_.min_writes, c.cap / 2);
    }
    apply_cap(s, next);
  }
  // Re-arm only while the simulation is still doing real work, so the run
  // can drain (telemetry::Sampler's idiom). busy(), not !idle(): the
  // sampler's own armed tick must not count as work, or the two
  // housekeeping loops keep each other alive and run() never returns.
  if (store_->system().scheduler().busy()) {
    pending_ = store_->system().scheduler().after_housekeeping(
        cfg_.interval_ns, [this] { tick(); });
  }
}

}  // namespace optsync::shard
