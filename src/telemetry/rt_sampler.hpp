// Wall-clock telemetry sampler for the threaded-rt substrate (rt/).
//
// Same Probe/SeriesSet model as the sim-clock Sampler, driven by a real
// sampling thread instead of scheduler events: rt/ runs on genuine OS
// threads with no discrete-event clock to hang ticks off. Timestamps are
// nanoseconds since start() on the steady clock, so the exported series
// line up with the sim sampler's schema ("optsync-timeseries/1").
//
// Thread-safety contract: probes are registered before start(); the
// sampling thread is the only writer of the SeriesSet between start() and
// stop(); readers call series()/write after stop() returns (stop joins).
// Probe callbacks run on the sampling thread and must themselves be safe
// against the threads they observe (atomic counters are the expected
// shape, matching rt/'s stats).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/series.hpp"

namespace optsync::telemetry {

class RtSampler {
 public:
  explicit RtSampler(std::chrono::microseconds interval =
                         std::chrono::microseconds(1000),
                     std::size_t capacity = 8192);
  ~RtSampler();

  RtSampler(const RtSampler&) = delete;
  RtSampler& operator=(const RtSampler&) = delete;

  /// Register before start(). Callback runs on the sampling thread.
  void add_gauge(std::string name, Labels labels, std::function<double()> fn);

  /// Rate probe over a monotone counter, mirroring Sampler::add_rate: the
  /// sample is the counter's per-second increase since the previous tick
  /// (wall-clock ns). The first tick primes the counter and records 0.
  void add_rate(std::string name, Labels labels,
                std::function<double()> counter);

  /// Attaches a Prometheus HELP string to a metric family (see
  /// SeriesSet::set_help). Register before start().
  void set_help(const std::string& name, std::string help) {
    set_.set_help(name, std::move(help));
  }

  void start();
  /// Idempotent; joins the sampling thread. One final sample is taken on
  /// the way out so short runs never export empty series.
  void stop();

  /// Valid after stop() (or before start()).
  [[nodiscard]] const SeriesSet& series() const { return set_; }
  [[nodiscard]] std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void sample_once(std::chrono::steady_clock::time_point t0);

  std::chrono::microseconds interval_;
  SeriesSet set_;
  std::vector<Probe> probes_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::atomic<std::uint64_t> ticks_{0};
};

}  // namespace optsync::telemetry
