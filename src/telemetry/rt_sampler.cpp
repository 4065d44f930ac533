#include "telemetry/rt_sampler.hpp"

#include <utility>

namespace optsync::telemetry {

RtSampler::RtSampler(std::chrono::microseconds interval, std::size_t capacity)
    : interval_(interval), set_(capacity) {}

RtSampler::~RtSampler() { stop(); }

void RtSampler::add_gauge(std::string name, Labels labels,
                          std::function<double()> fn) {
  probes_.push_back(
      Probe{set_.series(std::move(name), std::move(labels)), std::move(fn)});
}

void RtSampler::add_rate(std::string name, Labels labels,
                         std::function<double()> counter) {
  probes_.push_back(Probe{set_.series(std::move(name), std::move(labels)),
                          std::move(counter), /*rate=*/true});
}

void RtSampler::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void RtSampler::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  running_ = false;
}

void RtSampler::sample_once(std::chrono::steady_clock::time_point t0) {
  const auto now = std::chrono::steady_clock::now();
  const auto t = static_cast<sim::Time>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0).count());
  for (Probe& p : probes_) p.sample(set_, t);
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

void RtSampler::run() {
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    // Wait releases the mutex, so stop() can always get in; sampling runs
    // under the lock, which is the whole thread-safety story of set_.
    cv_.wait_for(lk, interval_, [this] { return stop_requested_; });
    sample_once(t0);
  }
}

}  // namespace optsync::telemetry
