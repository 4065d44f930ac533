#include "simkern/event_queue.hpp"

#include <algorithm>

#include "simkern/assert.hpp"

namespace optsync::sim {

EventId EventQueue::push(Time when, Callback cb) {
  OPTSYNC_EXPECT(cb != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  // Sequence numbers only grow, so the new entry is never before the run's
  // tail unless its time is: an in-order push appends in O(1).
  const Entry e{when, next_seq_++, slot, s.gen};
  if (run_.empty() || run_.back().time <= when) {
    run_.push_back(e);
  } else {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
  ++live_;
  return make_id(slot, s.gen);
}

void EventQueue::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  if (++s.gen == 0) s.gen = 1;  // ids are never 0; see EventId docs
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffull);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;  // already fired, already cancelled, or never existed
  }
  // O(1): drop the callback and invalidate the slot now; the entry (in the
  // heap or the run) becomes dead and is reclaimed lazily (at the front or
  // by compaction).
  free_slot(slot);
  --live_;
  ++dead_;
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  // Compact when dead entries dominate: bounds memory at ~2x the live count
  // under arm/cancel storms while keeping the amortized cost O(1) per
  // cancel (each compaction halves the stores, paid for by the cancels that
  // created the dead entries).
  if (dead_ < 64 || dead_ * 2 <= heap_.size() + run_.size() - run_head_) {
    return;
  }
  const auto dead = [this](const Entry& e) { return !entry_live(e); };
  std::erase_if(heap_, dead);
  // Bottom-up heapify from the last parent: O(n), and n just halved.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  // remove_if is stable, so the run stays sorted; the consumed prefix goes.
  const auto head = run_.begin() + static_cast<std::ptrdiff_t>(run_head_);
  run_.erase(std::remove_if(head, run_.end(), dead), run_.end());
  run_.erase(run_.begin(), head);
  run_head_ = 0;
  dead_ = 0;
}

void EventQueue::drop_dead_fronts() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    --dead_;
  }
  while (run_head_ < run_.size() && !entry_live(run_[run_head_])) {
    ++run_head_;
    --dead_;
  }
  trim_run();
}

void EventQueue::trim_run() {
  if (run_head_ == run_.size()) {
    // Drained: restart empty, keeping the capacity.
    run_.clear();
    run_head_ = 0;
  } else if (run_head_ >= kMinRunTrim && run_head_ * 2 >= run_.size()) {
    // A run that keeps being appended to never drains; drop the consumed
    // prefix once it is half the store (amortized O(1) per pop).
    run_.erase(run_.begin(),
               run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
    run_head_ = 0;
  }
}

bool EventQueue::run_first() const {
  if (run_head_ == run_.size()) return false;
  return heap_.empty() || before(run_[run_head_], heap_.front());
}

Time EventQueue::next_time() {
  if (live_ == 0) return kNever;
  drop_dead_fronts();
  return run_first() ? run_[run_head_].time : heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  OPTSYNC_EXPECT(live_ > 0);
  drop_dead_fronts();
  Entry e;
  if (run_first()) {
    e = run_[run_head_++];
    trim_run();
  } else {
    e = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
  Popped out{e.time, make_id(e.slot, e.gen), std::move(slots_[e.slot].cb)};
  free_slot(e.slot);
  --live_;
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  run_.clear();
  run_head_ = 0;
  free_slots_.clear();
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.cb = nullptr;
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(i);
  }
  live_ = 0;
  dead_ = 0;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace optsync::sim
