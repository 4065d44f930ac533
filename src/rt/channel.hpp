// Blocking MPMC channel for the threaded runtime.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace optsync::rt {

/// Unbounded multi-producer multi-consumer queue with shutdown.
/// pop() blocks until an item arrives or the channel is closed; after
/// close(), remaining items still drain (graceful shutdown).
template <class T>
class Channel {
 public:
  void push(T item) {
    {
      std::lock_guard lk(mu_);
      if (closed_) return;  // dropping on closed channel is a benign race
                            // during shutdown
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Blocks for the next item; nullopt means closed-and-drained.
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace optsync::rt
