#include "simkern/scheduler.hpp"

#include "simkern/assert.hpp"
#include "simkern/coro.hpp"

namespace optsync::sim {

Scheduler::~Scheduler() { release_pooled_memory(); }

EventId Scheduler::at(Time when, Callback cb) {
  OPTSYNC_EXPECT(when >= now_);
  return queue_.push(when, std::move(cb));
}

bool Scheduler::step() {
  if (queue_.empty()) return false;
  auto [time, id, callback] = queue_.pop();
  now_ = time;
  ++processed_;
  callback();
  return true;
}

std::uint64_t Scheduler::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::uint64_t Scheduler::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_) {
    const Time next = queue_.next_time();
    if (next == kNever) break;
    if (next > deadline) break;
    step();
    ++n;
  }
  // Park the clock at the deadline only when nothing pending lies at or
  // before it: after stop() earlier events may remain, and moving past them
  // would make the next run() go back in time.
  const Time next = queue_.next_time();
  if (now_ < deadline && (next == kNever || next > deadline)) now_ = deadline;
  return n;
}

}  // namespace optsync::sim
