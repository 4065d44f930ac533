// C++20 coroutine processes for the discrete-event kernel.
//
// A simulated CPU program is written as a coroutine returning Process:
//
//   sim::Process worker(sim::Scheduler& sched, ...) {
//     co_await sim::delay(sched, 500);     // compute for 500 ns
//     co_await queue_not_empty.wait();     // block on a Signal
//     ...
//   }
//
// Processes start eagerly (they run until their first suspension when
// created) and are resumed by scheduler events, never recursively, so the
// event-at-a-time determinism of the kernel is preserved.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>
#include <vector>

#include "simkern/assert.hpp"
#include "simkern/scheduler.hpp"

namespace optsync::sim {

namespace detail {

/// Size-class freelist for coroutine frames. Every simulated operation
/// spawns a handful of short-lived coroutines (lock bodies, commits, lock
/// acquisitions); their frames come from here instead of the global heap.
/// A freed frame goes onto its class's freelist and is handed to the next
/// frame of that class, so the steady state allocates nothing. Frames
/// larger than the biggest class go straight to the heap. Per thread (the
/// kernel is single-threaded). Free blocks go back to the heap when a
/// Scheduler is destroyed (release_pooled_memory), so runs made one after
/// another in a process do not carry one run's peak into the next.
class FramePool {
 public:
  static void* allocate(std::size_t n) {
    const std::size_t c = size_class(n);
    if (c >= kClasses) return ::operator new(n);
    Block*& head = free_[c];
    if (head == nullptr) return ::operator new(c * kGranule);
    Block* b = head;
    head = b->next;
    return b;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = size_class(n);
    if (c >= kClasses) {
      ::operator delete(p);
      return;
    }
    auto* b = static_cast<Block*>(p);
    b->next = free_[c];
    free_[c] = b;
  }

  static void trim() noexcept {
    for (Block*& head : free_) {
      while (head != nullptr) {
        Block* b = head;
        head = b->next;
        ::operator delete(b);
      }
    }
  }

 private:
  struct Block {
    Block* next;
  };
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 64;  ///< frames under 4 KiB

  static constexpr std::size_t size_class(std::size_t n) {
    return (n + kGranule - 1) / kGranule;
  }

  static inline thread_local Block* free_[kClasses] = {};
};

/// Completion record shared by a coroutine and its Process handles: lets
/// handles outlive the frame and lets other coroutines join on completion.
/// Intrusively counted and pooled (per thread, like FramePool), with one
/// inline joiner slot: nearly every process has at most one joiner, so a
/// join neither allocates a record nor grows a vector.
struct ProcessState {
  std::uint32_t refs = 0;
  bool done = false;
  std::exception_ptr error;
  std::coroutine_handle<> joiner;             ///< the first joiner
  std::vector<std::coroutine_handle<>> more;  ///< any further joiners
  ProcessState* next_free = nullptr;

  static ProcessState* acquire() {
    ProcessState* s = free_list;
    if (s == nullptr) {
      s = new ProcessState;
    } else {
      free_list = s->next_free;
    }
    s->refs = 1;
    return s;
  }

  void add_joiner(std::coroutine_handle<> h) {
    if (!joiner) {
      joiner = h;
    } else {
      more.push_back(h);
    }
  }

  static void trim() noexcept {
    while (free_list != nullptr) {
      ProcessState* s = free_list;
      free_list = s->next_free;
      delete s;
    }
  }

  void retain() { ++refs; }
  void release() {
    if (--refs != 0) return;
    // Back to the freelist, reset; `more` keeps its capacity.
    done = false;
    error = nullptr;
    joiner = {};
    more.clear();
    next_free = free_list;
    free_list = this;
  }

 private:
  static inline thread_local ProcessState* free_list = nullptr;
};

/// Owning reference to a ProcessState (an intrusive shared pointer).
class StateRef {
 public:
  StateRef() = default;
  explicit StateRef(ProcessState* s) : s_(s) {}  // adopts one reference
  StateRef(const StateRef& o) : s_(o.s_) {
    if (s_ != nullptr) s_->retain();
  }
  StateRef(StateRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  StateRef& operator=(StateRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr) s_->release();
  }

  ProcessState* operator->() const { return s_; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  ProcessState* s_ = nullptr;
};

}  // namespace detail

/// Returns the calling thread's free coroutine frames and completion
/// records to the heap. Live processes are untouched.
inline void release_pooled_memory() noexcept {
  detail::FramePool::trim();
  detail::ProcessState::trim();
}

/// Handle to a running simulated process.
///
/// The coroutine frame owns itself (it is destroyed when the coroutine runs
/// to completion); Process only holds the shared completion record. Dropping
/// a Process handle therefore does NOT cancel the process — simulated
/// programs run to completion like real ones.
class [[nodiscard]] Process {
 public:
  struct promise_type {
    detail::StateRef state{detail::ProcessState::acquire()};

    static void* operator new(std::size_t n) {
      return detail::FramePool::allocate(n);
    }
    static void operator delete(void* p, std::size_t n) noexcept {
      detail::FramePool::deallocate(p, n);
    }

    Process get_return_object() { return Process(state); }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        detail::StateRef state = std::move(h.promise().state);
        state->done = true;
        h.destroy();
        // Resume joiners after destroying the frame: a joiner may itself
        // complete and release resources the finished process referenced.
        // A done record takes no new joiners, so the list is stable here.
        if (state->joiner) state->joiner.resume();
        for (std::size_t i = 0; i < state->more.size(); ++i) {
          state->more[i].resume();
        }
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { state->error = std::current_exception(); }
  };

  Process() = default;

  /// True once the coroutine has run to completion (normally or by throwing).
  [[nodiscard]] bool done() const { return state_ && state_->done; }

  /// Rethrows the exception that terminated the process, if any.
  void rethrow_if_failed() const {
    if (state_ && state_->error) std::rethrow_exception(state_->error);
  }

  [[nodiscard]] bool failed() const {
    return state_ && state_->error != nullptr;
  }

  /// Awaitable that suspends the caller until this process completes.
  /// Propagates the process's exception to the joiner.
  auto join() {
    struct Awaiter {
      detail::StateRef state;
      bool await_ready() const { return state->done; }
      void await_suspend(std::coroutine_handle<> h) { state->add_joiner(h); }
      void await_resume() const {
        if (state->error) std::rethrow_exception(state->error);
      }
    };
    OPTSYNC_EXPECT(state_);
    return Awaiter{state_};
  }

 private:
  explicit Process(detail::StateRef s) : state_(std::move(s)) {}
  detail::StateRef state_;
};

/// Awaitable that resumes the coroutine after `d` simulated nanoseconds.
inline auto delay(Scheduler& sched, Duration d) {
  struct Awaiter {
    Scheduler& sched;
    Duration d;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sched.after(d, [h] { h.resume(); });
    }
    void await_resume() const {}
  };
  return Awaiter{sched, d};
}

/// Broadcast wake-up point for coroutines (a condition variable analog).
///
/// notify_all() resumes every current waiter *via scheduler events at the
/// current time*, never inline, so a notifier's own state updates complete
/// before any waiter observes them and wake order is deterministic.
class Signal {
 public:
  explicit Signal(Scheduler& sched) : sched_(&sched) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Awaitable: suspends until the next notify_all().
  auto wait() {
    struct Awaiter {
      Signal& sig;
      bool await_ready() const { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sig.waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

  /// Wakes all coroutines currently waiting. Waiters that arrive during the
  /// notification are not woken (standard condvar semantics).
  void notify_all() {
    // after() never runs a callback inline, so no waiter can join the list
    // while it is walked; clearing it in place keeps its capacity.
    for (auto h : waiters_) {
      sched_->after(0, [h] { h.resume(); });
    }
    waiters_.clear();
  }

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Scheduler* sched_;
  std::vector<std::coroutine_handle<>> waiters_;
};

// NOTE: "wait until predicate" is written at call sites as the standard
// condition-variable idiom, which works verbatim with Signal:
//
//   while (!pred()) co_await sig.wait();

}  // namespace optsync::sim
