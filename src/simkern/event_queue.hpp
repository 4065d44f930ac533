// Priority queue of timed events with stable FIFO ordering and cancellation.
#pragma once

#include <cstdint>
#include <vector>

#include "simkern/time.hpp"
#include "util/small_fn.hpp"

namespace optsync::sim {

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Encodes (generation << 32 | slot); generations start at 1, so a valid id
/// is never 0 — callers use 0 as their "no timer armed" sentinel.
using EventId = std::uint64_t;

/// Events ordered by (time, insertion sequence).
///
/// The sequence tie-break makes the kernel fully deterministic: two events
/// scheduled for the same instant always fire in scheduling order, so a given
/// seed reproduces a simulation bit-for-bit.
///
/// Two stores hold the entries: a 4-ary min-heap and a sorted run, an
/// append-only vector consumed from its head. A push whose (time, seq) key
/// is not before the run's tail is appended to the run in O(1); any other
/// push enters the heap. Since seq only grows, that is every push at or
/// after the tail's time. pop() and next_time() take the earlier of the heap
/// top and the run head, so events fire in exactly the (time, seq) order a
/// single heap would give. The point is the open-loop load generator: it
/// pre-schedules one arrival per request in ascending time, so all of them
/// land in the run and the heap holds only the in-flight protocol events —
/// a few hundred entries instead of the whole plan, which keeps each pop's
/// sift-down shallow.
///
/// Layout: entries are 24-byte PODs carrying only (time, seq, slot,
/// generation); callbacks live in a parallel slot table recycled through a
/// freelist. push and cancel are allocation-free O(1)/O(log n) — the
/// reliable channel arms one retransmit timer per transmission and cancels
/// one per ack, so both sit on the per-message hot path. cancel() frees the
/// slot (and destroys the callback) immediately; the stale entry is dropped
/// lazily at the heap top or run head, and both stores are compacted in
/// place whenever dead entries outnumber live ones, so arm/cancel storms
/// cannot grow memory without bound (the old tombstone-set design leaked
/// every cancelled id that never reached the top). The run's consumed
/// prefix is dropped once it is half the run, and a drained run restarts
/// empty with its capacity kept.
class EventQueue {
 public:
  using Callback = util::SmallFn<void()>;

  /// Reserves the heap's working size up front (the perfbench workloads
  /// peak at 117-209 in-flight entries), so it does not regrow in small
  /// steps in the middle of a run. Those mid-run reallocations shifted the
  /// allocator's layout enough that glibc returned ~30 MB to the OS after
  /// every scheduler and the next one re-faulted it (lease_read seed 4:
  /// +50% setup time).
  EventQueue() { heap_.reserve(kHeapReserve); }

  /// Inserts an event; returns an id usable with cancel().
  EventId push(Time when, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNever when empty.
  /// Amortized O(log n): lazily discards dead entries at the fronts.
  [[nodiscard]] Time next_time();

  /// Removes and returns the earliest live event.
  /// Precondition: !empty().
  struct Popped {
    Time time;
    EventId id;
    Callback callback;
  };
  Popped pop();

  /// Drops all events. Slot capacity is retained; every outstanding id is
  /// invalidated (its generation is bumped), so a stale id from before the
  /// clear can never cancel an event armed after it.
  void clear();

  // --- introspection (bounded-memory regression tests, kernel bench) ----
  /// Entries physically held by the heap and the run, including dead ones
  /// awaiting compaction and the run's consumed prefix awaiting trim.
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + run_.size();
  }
  /// Callback slots ever created (the table's high-water mark).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Cancelled entries still physically in the heap or the run.
  [[nodiscard]] std::size_t dead_entries() const { return dead_; }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// a fires strictly before b.
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // 4-ary min-heap. Pops dominate the kernel (a same-time multicast burst
  // pushes with one comparison each — the parent's smaller seq stops the
  // sift immediately — but a pop from the heap sifts its back entry down
  // from the root), and a 4-ary sift-down halves the depth of a binary one
  // while reading its four 24-byte children from at most two cache lines.
  // Measured on the pop-heavy dispatch mix: ~25% cheaper per event at 32k
  // pending. The run keeps pre-scheduled arrivals out of the heap, so that
  // depth tracks the in-flight events, not the plan length.
  static constexpr std::size_t kArity = 4;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }

  /// Bumps the slot's generation (invalidating its current id), destroys
  /// the callback, and returns the slot to the freelist.
  void free_slot(std::uint32_t slot);

  /// Drops dead entries at the heap top and the run head.
  void drop_dead_fronts();
  /// Restarts a drained run; drops a consumed prefix that is half the run.
  void trim_run();
  /// True when the run is non-empty and its head fires before the heap top.
  /// Call after drop_dead_fronts(), so both fronts are live.
  [[nodiscard]] bool run_first() const;
  void maybe_compact();

  static constexpr std::size_t kHeapReserve = 256;
  // Below this many consumed entries the run's prefix is not worth moving.
  static constexpr std::size_t kMinRunTrim = 1024;

  std::vector<Entry> heap_;
  std::vector<Entry> run_;      // sorted by (time, seq); live from run_head_
  std::size_t run_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;  // cancelled entries in the heap or the run
  std::uint64_t next_seq_ = 0;
};

}  // namespace optsync::sim
