#include "elastic/controller.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "dsm/system.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/assert.hpp"
#include "telemetry/journal.hpp"

namespace optsync::elastic {

using shard::Key;
using shard::ShardId;
using shard::ShardMap;

ElasticController::ElasticController(shard::ShardedStore& store,
                                     const stats::ServiceReport& live,
                                     const telemetry::SeriesSet& series,
                                     ElasticControllerConfig cfg)
    : store_(&store),
      live_(&live),
      series_(&series),
      cfg_(cfg),
      migrator_(store),
      dir_(store) {
  OPTSYNC_EXPECT(store.elastic());
  if (cfg_.interval_ns <= 0) cfg_.interval_ns = 100'000;
  sketches_.assign(store.shards(), KeySketch(cfg_.sketch_capacity));
  streak_.assign(store.base_shards(), 0);
  verdict_.assign(store.base_shards(), telemetry::OverloadVerdict{});
}

void ElasticController::start() {
  store_->set_access_observer([this](ShardId s, Key k) {
    if (s < sketches_.size()) sketches_[s].record(k);
  });
  pending_ = store_->system().scheduler().after_housekeeping(
      cfg_.interval_ns, [this] { tick(); });
}

void ElasticController::stop() {
  if (pending_ != 0) {
    store_->system().scheduler().cancel_housekeeping(pending_);
    pending_ = 0;
  }
}

void ElasticController::register_telemetry(telemetry::Sampler& sampler) {
  sampler.set_help("optsync_hot_key_share",
                   "Traffic share of the hottest key in the shard's sketch");
  sampler.set_help("optsync_dir_epoch",
                   "Directory epoch (bumps on every elastic reconfiguration)");
  for (ShardId s = 0; s < store_->base_shards(); ++s) {
    sampler.add_gauge("optsync_hot_key_share",
                      {{"shard", std::to_string(s)}}, [this, s] {
                        const auto top = sketches_[s].top();
                        return top.empty()
                                   ? 0.0
                                   : sketches_[s].share(top.front().key);
                      });
  }
  sampler.add_gauge("optsync_dir_epoch", {}, [this] {
    return static_cast<double>(store_->dir_epoch());
  });
}

ShardId ElasticController::pick_hot_group() const {
  const ShardId base = store_->base_shards();
  const ShardId total = store_->shards();
  ShardId best = total;
  std::uint32_t best_pins = cfg_.max_pins_per_hot;
  for (ShardId h = base; h < total; ++h) {
    std::uint32_t pins = 0;
    for (const auto& p : dir_.pins()) {
      if (p.hot == h) ++pins;
    }
    if (pins < best_pins) {
      best_pins = pins;
      best = h;
    }
  }
  return best;
}

ShardId ElasticController::pick_split_target(ShardId s) const {
  const ShardId base = store_->base_shards();
  ShardId best = base;
  double best_b = std::numeric_limits<double>::infinity();
  for (ShardId d = 0; d < base; ++d) {
    if (d == s || streak_[d] != 0) continue;
    const double b = live_->backlog(d);
    if (b < best_b) {
      best_b = b;
      best = d;
    }
  }
  return best;
}

dsm::NodeId ElasticController::pick_migration_target(ShardId s) const {
  auto& sys = store_->system();
  const auto& members = sys.group(store_->group_of(s)).members();
  std::vector<std::uint32_t> roots(sys.node_count(), 0);
  for (ShardId t = 0; t < store_->shards(); ++t) {
    ++roots[store_->root_of(t)];
  }
  const dsm::NodeId cur = store_->root_of(s);
  dsm::NodeId best = dsm::kNoNode;
  // The move must strictly reduce the hottest involved node's root count:
  // after it, the target hosts roots[m] + 1 — require that to still be
  // below the current node's load.
  std::uint32_t best_load = roots[cur];
  for (const dsm::NodeId m : members) {
    if (m == cur || m == store_->control_node()) continue;
    if (roots[m] + 1 < best_load) {
      best_load = roots[m] + 1;
      best = m;
    }
  }
  return best;
}

sim::Process ElasticController::run_action(
    std::function<sim::Process()> thunk) {
  action_busy_ = true;
  co_await thunk().join();
  action_busy_ = false;
}

sim::Process ElasticController::swap_pin(Key victim, Key cand) {
  co_await dir_.demote(victim).join();
  // Re-pick AFTER the demote: that is the slot the eviction freed.
  const ShardId hot = pick_hot_group();
  if (hot < store_->shards()) {
    co_await dir_.promote(cand, hot).join();
  }
}

void ElasticController::launch(std::function<sim::Process()> thunk) {
  ++actions_;
  cooldown_ = cfg_.cooldown_ticks;
  (void)run_action(std::move(thunk));
}

void ElasticController::journal_step(const char* step, ShardId s,
                                     std::uint32_t target,
                                     std::uint32_t streak) {
  auto* j = store_->system().journal();
  if (j == nullptr) return;
  const telemetry::OverloadVerdict v =
      s < verdict_.size() ? verdict_[s] : telemetry::OverloadVerdict{};
  std::uint64_t top_key = 0;
  double top_share = 0.0;
  if (s < sketches_.size()) {
    const auto top = sketches_[s].top();
    if (!top.empty()) {
      top_key = top.front().key;
      top_share = sketches_[s].share(top.front().key);
    }
  }
  j->elastic_decision(store_->system().scheduler().now(), step, s, target,
                      v.slope_per_s, v.peak_backlog, live_->backlog(s), top_key,
                      top_share, streak, cooldown_);
}

void ElasticController::act_on(ShardId s) {
  // 1. A dominant single key: route it to a dedicated one-stripe group.
  const auto top = sketches_[s].top();
  if (!top.empty() &&
      sketches_[s].share(top.front().key) >= cfg_.hot_key_share) {
    const ShardId hot = pick_hot_group();
    if (hot < store_->shards()) {
      const Key key = top.front().key;
      journal_step("promote", s, hot, streak_[s]);
      streak_[s] = 0;
      pin_cold_[key] = 0;
      launch([this, key, hot] { return dir_.promote(key, hot); });
      return;
    }
    // Hot groups full. After a hotspot shift the slots are held by the
    // OLD head — evict the coldest pin, but only when the candidate sees
    // at least 3x its traffic: near the decayed sketch's noise floor
    // tail ranks reorder every window, and without the margin the loop
    // thrashes pins between keys of indistinguishable heat.
    const std::uint64_t cand = sketches_[s].count(top.front().key);
    Key victim = 0;
    std::uint64_t victim_count = cand / 3;
    for (const auto& p : dir_.pins()) {
      const std::uint64_t c = sketches_[p.hot].count(p.key);
      if (c < victim_count) {
        victim_count = c;
        victim = p.key;
      }
    }
    if (victim != 0) {
      const Key cand_key = top.front().key;
      journal_step("swap_pin", s, /*target=*/0, streak_[s]);
      streak_[s] = 0;
      pin_cold_.erase(victim);
      pin_cold_[cand_key] = 0;
      launch([this, victim, cand_key] { return swap_pin(victim, cand_key); });
      return;
    }
  }
  // 2. Diffuse range pressure: donate the upper half of the stripe.
  if (store_->map().policy() == ShardMap::Policy::kRange) {
    const ShardId dst = pick_split_target(s);
    if (dst < store_->base_shards()) {
      journal_step("split", s, dst, streak_[s]);
      streak_[s] = 0;
      launch([this, s, dst] { return dir_.split(s, dst); });
      return;
    }
  }
  // 3. Sequencer-node pressure: move the root to a less loaded member.
  if (cfg_.migrate_roots) {
    const dsm::NodeId to = pick_migration_target(s);
    if (to != dsm::kNoNode) {
      journal_step("migrate", s, to, streak_[s]);
      streak_[s] = 0;
      launch([this, s, to] { return migrator_.migrate(s, to); });
      return;
    }
  }
}

void ElasticController::maybe_relax() {
  // Demote pins whose keys went cold for cold_ticks consecutive windows.
  for (const auto& pin : dir_.pins()) {
    const std::uint64_t seen = sketches_[pin.hot].count(pin.key);
    std::uint32_t& cold = pin_cold_[pin.key];
    cold = seen < cfg_.min_hot_accesses ? cold + 1 : 0;
    if (cold >= cfg_.cold_ticks) {
      const Key key = pin.key;
      journal_step("demote", pin.hot, /*target=*/0, cold);
      pin_cold_.erase(key);
      launch([this, key] { return dir_.demote(key); });
      return;
    }
  }
  // Merge donations back once BOTH ends are demonstrably cold.
  for (const auto& d : dir_.donations()) {
    const bool src_cold =
        streak_[d.src] == 0 && live_->backlog(d.src) <= cfg_.merge_backlog_max;
    const bool dst_cold =
        (d.dst >= streak_.size() || streak_[d.dst] == 0) &&
        live_->backlog(d.dst) <= cfg_.merge_backlog_max;
    if (src_cold && dst_cold) {
      const ShardId src = d.src;
      journal_step("merge", src, d.dst, streak_[src]);
      launch([this, src] { return dir_.merge_back(src); });
      return;
    }
  }
}

void ElasticController::tick() {
  pending_ = 0;
  ++ticks_;
  const ShardId base = store_->base_shards();
  for (ShardId s = 0; s < base; ++s) {
    const telemetry::Series* ser = series_->find(
        "optsync_shard_backlog", {{"shard", std::to_string(s)}});
    verdict_[s] = ser != nullptr
                      ? telemetry::assess_backlog(*ser, cfg_.overload)
                      : telemetry::OverloadVerdict{};
    // Live recovery overlay (telemetry::live_drowning): assess_backlog
    // pins its fit window to the series PEAK (the right call for
    // end-of-run verdicts, where the final drain would mask a
    // structurally-behind shard), so mid-run it never un-flags a shard
    // whose hotspot moved away. A shard whose queue is no longer material
    // is not drowning NOW, whatever its history says.
    const bool drowning =
        telemetry::live_drowning(verdict_[s], live_->backlog(s), cfg_.overload);
    streak_[s] = drowning ? streak_[s] + 1 : 0;
  }
  if (cooldown_ > 0) {
    --cooldown_;
  } else if (!action_busy_ && !migrator_.in_flight()) {
    // Among streak-qualified shards, act on the deepest CURRENT queue —
    // after a hotspot shift the newly hot shard outranks one still
    // working off an old backlog, even though the latter has the longer
    // streak.
    ShardId worst = base;
    double worst_backlog = -1.0;
    for (ShardId s = 0; s < base; ++s) {
      if (streak_[s] < cfg_.drowning_ticks) continue;
      const double b = live_->backlog(s);
      if (b > worst_backlog) {
        worst = s;
        worst_backlog = b;
      }
    }
    if (worst < base) {
      act_on(worst);
    } else {
      maybe_relax();
    }
  }
  // Slide the access window: shares answer "hot NOW", not "hot ever".
  for (auto& sk : sketches_) sk.decay();
  // Re-arm only while the simulation still does real work (the Sampler
  // idiom), so a finished run can drain and return.
  if (store_->system().scheduler().busy()) {
    pending_ = store_->system().scheduler().after_housekeeping(
        cfg_.interval_ns, [this] { tick(); });
  }
}

}  // namespace optsync::elastic
