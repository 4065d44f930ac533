// Adaptive per-shard coalescing: the telemetry-driven control loop that
// closes ROADMAP's "per-shard coalesce tuning" item.
//
// One global --coalesce-max-writes is the wrong knob for a sharded service:
// batching amortizes the root's per-message work (a 4x message reduction at
// cap 4 under saturation), but a lock grant parked in an open frame is
// invisible to the waiter until the flush, so an IDLE shard pays the full
// coalesce deadline in op latency for nothing. The measured numbers behind
// the policy (bench/kernel_overhead, EXPERIMENTS.md): cap 4 with a sub-µs
// deadline is goodput-neutral at saturation while cutting wire messages
// ~4x; a fixed 10 µs deadline at low load collapses goodput by stalling
// grants.
//
// The controller therefore watches, per shard and per control tick, the
// live signals the telemetry layer already maintains:
//   * arrival backlog (issued - completed, from the generator's live
//     ServiceReport — the same series the overload detector's drowning
//     verdict is computed from), and
//   * the root's frame-close mix (size-cap vs. deadline flushes,
//     GroupRoot::Stats) — a frame closed by the timer proves the arrival
//     rate is too low to fill the cap before the deadline.
// A backlogged shard has its cap doubled (toward max_writes) with a short
// flush deadline: when writes queue at the root, batching is free — the
// frame fills from the queue, not from waiting. A drained shard (low
// backlog, or frames mostly closing on the timer) has its cap halved back
// toward 1, restoring the grant-latency-optimal unbatched path. Hysteresis
// between the high/low water marks keeps the cap stable under noise.
//
// Determinism: the controller runs as ordinary sim events off the same
// scheduler, reads only deterministic state, and re-arms only while the
// simulation is live (the Sampler idiom) — a controlled run with a fixed
// seed reproduces bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "shard/shard_map.hpp"
#include "simkern/time.hpp"
#include "stats/service_report.hpp"
#include "telemetry/sampler.hpp"

namespace optsync::shard {

class ShardedStore;

struct CoalesceControllerConfig {
  /// Control tick period. Default matches the telemetry sampler so cap
  /// decisions line up with the exported series.
  sim::Duration interval_ns = 50'000;

  std::uint32_t min_writes = 1;  ///< cap floor (unbatched)
  std::uint32_t max_writes = 64;  ///< cap ceiling while backlogged

  /// Flush deadline applied while a shard is batching (cap > min). Short on
  /// purpose: at saturation frames fill from the root's queue within one
  /// dispatch, and an idle interval must not hold a grant hostage.
  sim::Duration batch_deadline_ns = 500;

  /// Backlog (issued - completed) at which a shard engages batching, and
  /// below which it disengages. The gap is the hysteresis band.
  double backlog_high = 16.0;
  double backlog_low = 2.0;

  /// While batching, if more than this share of the tick's frames closed on
  /// the deadline rather than the size cap, the cap is too big for the
  /// arrival rate — halve it.
  double timer_share_high = 0.5;
};

class CoalesceController {
 public:
  /// `store` and `live` must outlive the controller; `live` is the report
  /// the load generator updates during the run (the same object passed to
  /// ShardedStore::register_telemetry).
  CoalesceController(ShardedStore& store, const stats::ServiceReport& live,
                     CoalesceControllerConfig cfg = {});

  CoalesceController(const CoalesceController&) = delete;
  CoalesceController& operator=(const CoalesceController&) = delete;

  /// Arms the periodic control tick (first decision one interval from now).
  void start();
  /// Cancels any pending tick.
  void stop();

  /// Registers the per-shard cap as a live gauge series
  /// ("optsync_coalesce_cap") so timeseries exports show the control loop
  /// acting.
  void register_telemetry(telemetry::Sampler& sampler);

  // --- introspection (benches, tests, the service CLI) ------------------
  [[nodiscard]] std::uint32_t cap(ShardId s) const { return ctl_[s].cap; }
  [[nodiscard]] std::uint64_t raises(ShardId s) const {
    return ctl_[s].raises;
  }
  [[nodiscard]] std::uint64_t lowers(ShardId s) const {
    return ctl_[s].lowers;
  }
  /// Largest cap the shard reached during the run.
  [[nodiscard]] std::uint32_t peak_cap(ShardId s) const {
    return ctl_[s].peak;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] const CoalesceControllerConfig& config() const { return cfg_; }

 private:
  struct ShardCtl {
    std::uint32_t cap = 1;
    std::uint32_t peak = 1;
    std::uint64_t raises = 0;
    std::uint64_t lowers = 0;
    // Frame-stat snapshot at the previous tick (delta = this tick's frames).
    std::uint64_t last_frames = 0;
    std::uint64_t last_timer_flushes = 0;
  };

  void tick();
  void apply_cap(ShardId s, std::uint32_t cap);

  ShardedStore* store_;
  const stats::ServiceReport* live_;
  CoalesceControllerConfig cfg_;
  std::vector<ShardCtl> ctl_;
  sim::EventId pending_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace optsync::shard
