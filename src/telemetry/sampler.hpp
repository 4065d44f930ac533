// Sim-clock telemetry sampler: periodic gauge snapshots into a SeriesSet.
//
// start() arms a periodic tick on the scheduler. Each tick evaluates every
// registered probe and appends one sample per probe at the current sim
// time. The tick re-arms itself only while other simulation events are
// pending: a discrete-event run ends when the queue drains, so a sampler
// that rescheduled unconditionally would keep the simulation alive
// forever. The final partial interval is captured by calling sample_now()
// once after the scheduler returns.
//
// Two probe flavors (telemetry::Probe, shared with RtSampler): add_gauge,
// whose callback is the sample, and add_rate, whose callback is a monotone
// counter sampled as its per-second increase since the previous tick.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simkern/scheduler.hpp"
#include "telemetry/series.hpp"

namespace optsync::telemetry {

struct SamplerConfig {
  sim::Duration interval_ns = 50'000;  ///< 50 sim-µs between snapshots
  std::size_t capacity = 8192;         ///< retained samples per series
};

class Sampler {
 public:
  explicit Sampler(SamplerConfig cfg = {});

  /// Registers a gauge probe. Register before or after start(); new probes
  /// simply join the next tick.
  void add_gauge(std::string name, Labels labels, std::function<double()> fn);

  /// Registers a rate probe over a monotone counter (per-second units).
  void add_rate(std::string name, Labels labels,
                std::function<double()> counter);

  /// Attaches a Prometheus HELP string to a metric family (see
  /// SeriesSet::set_help).
  void set_help(const std::string& name, std::string help) {
    set_.set_help(name, std::move(help));
  }

  /// Arms the periodic tick (first snapshot one interval from now).
  void start(sim::Scheduler& sched);
  /// Cancels any pending tick.
  void stop();

  /// Takes one snapshot immediately (used for the final partial interval,
  /// and by tests).
  void sample_now(sim::Time now);

  [[nodiscard]] const SeriesSet& series() const { return set_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] sim::Duration interval_ns() const { return cfg_.interval_ns; }

 private:
  void tick();

  SamplerConfig cfg_;
  SeriesSet set_;
  std::vector<Probe> probes_;
  sim::Scheduler* sched_ = nullptr;
  sim::EventId pending_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace optsync::telemetry
