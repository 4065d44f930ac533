// The discrete-event simulation kernel.
#pragma once

#include <cstdint>

#include "simkern/event_queue.hpp"
#include "simkern/time.hpp"

namespace optsync::sim {

/// Single-threaded deterministic discrete-event scheduler.
///
/// Everything in the simulated world (network message arrivals, CPU compute
/// completions, interrupt deliveries) is an event. Events at equal times fire
/// in scheduling order, so simulations are reproducible.
///
/// The scheduler is deliberately not thread-safe: the whole point of the
/// simulated substrate is determinism. The threaded runtime under rt/ covers
/// real concurrency.
class Scheduler {
 public:
  /// Small-buffer callable (util::SmallFn): every substrate closure fits the
  /// inline buffer, so scheduling an event allocates nothing.
  using Callback = EventQueue::Callback;

  Scheduler() = default;
  /// Also returns the thread's pooled coroutine memory to the heap
  /// (release_pooled_memory in simkern/coro.hpp).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when`.
  /// Precondition: when >= now() (the simulation cannot affect its past).
  EventId at(Time when, Callback cb);

  /// Schedules `cb` to run `delay` from now.
  EventId after(Duration delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Schedules a housekeeping event: one that observes the simulation
  /// (telemetry samplers, control loops) rather than being part of it.
  /// Housekeeping loops re-arm themselves only while the simulation still
  /// has real work — but they must not count themselves, or EACH OTHER, as
  /// that work: two loops each re-arming "while !idle()" keep the queue
  /// non-empty forever and run() never returns. Arm through this method
  /// and test busy() instead of !idle().
  template <typename F>
  EventId after_housekeeping(Duration delay, F&& f) {
    ++housekeeping_armed_;
    return after(delay, [this, f = std::forward<F>(f)]() mutable {
      --housekeeping_armed_;
      f();
    });
  }

  /// Cancels an event armed with after_housekeeping().
  bool cancel_housekeeping(EventId id) {
    const bool live = queue_.cancel(id);
    if (live) --housekeeping_armed_;
    return live;
  }

  /// True while any non-housekeeping event is pending.
  [[nodiscard]] bool busy() const {
    return queue_.size() > housekeeping_armed_;
  }

  /// Runs a single event if one is pending. Returns false when idle.
  bool step();

  /// Runs until the event queue drains or stop() is called.
  /// Returns the number of events executed by this call.
  std::uint64_t run();

  /// Runs events with time <= deadline; leaves later events pending.
  /// Afterwards now() == deadline if no event at or before the deadline is
  /// left pending (the queue drained or only later events remain). If stop()
  /// ended the loop early, now() stays at the last event run.
  std::uint64_t run_until(Time deadline);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// True when no events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Total events executed over the scheduler's lifetime.
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  std::size_t housekeeping_armed_ = 0;
};

}  // namespace optsync::sim
