#include "simkern/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "simkern/assert.hpp"
#include "simkern/random.hpp"

namespace optsync::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    q.push(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(7, [] {});
  auto popped = q.pop();
  EXPECT_EQ(popped.time, 7u);
  EXPECT_EQ(popped.id, id);
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(5, [&] { fired = true; });
  q.push(6, [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(5, [] {});
  q.push(9, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(5, [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(9, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 9u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(1, nullptr), ContractViolation);
}

// Regression: cancel used to scan the heap linearly, so retransmit-timer
// churn (every reliable-channel packet arms a timer that is almost always
// cancelled by its ack) was quadratic in pending timers. With the live-id
// set, cancelling most of a 10k+ backlog is effectively instant; the
// wall-clock bound below is ~100x slack for the O(1) implementation and
// hopeless for a linear scan (~10^10 comparisons).
TEST(EventQueue, CancelStormOverLargeBacklogIsFast) {
  constexpr int kBatches = 10;
  constexpr int kPerBatch = 10'000;
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(kPerBatch);
  int fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    ids.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      // Far-future "timers"; one in a hundred survives its batch.
      ids.push_back(q.push(1'000'000 + b, [&fired] { ++fired; }));
    }
    for (int i = 0; i < kPerBatch; ++i) {
      if (i % 100 != 0) {
        EXPECT_TRUE(q.cancel(ids[static_cast<size_t>(i)]));
      }
    }
  }
  const auto cancel_done = std::chrono::steady_clock::now();
  EXPECT_EQ(q.size(), static_cast<size_t>(kBatches * kPerBatch / 100));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, kBatches * kPerBatch / 100);
  // Double-cancel after the drain: all ids are dead, none fire again.
  for (const EventId id : ids) EXPECT_FALSE(q.cancel(id));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      cancel_done - start);
  EXPECT_LT(elapsed.count(), 2'000) << "cancel looks superlinear";
}

TEST(EventQueue, CancelledBacklogDoesNotLeakIntoPopOrder) {
  Rng rng(7);
  EventQueue q;
  std::vector<EventId> live;
  std::vector<Time> expected;
  for (int i = 0; i < 20'000; ++i) {
    const Time t = rng.below(1'000);
    const EventId id = q.push(t, [] {});
    if (rng.below(4) == 0) {
      live.push_back(id);
      expected.push_back(t);
    } else {
      ASSERT_TRUE(q.cancel(id));
    }
  }
  EXPECT_EQ(q.size(), live.size());
  std::sort(expected.begin(), expected.end());
  for (const Time t : expected) {
    auto popped = q.pop();
    EXPECT_EQ(popped.time, t);
  }
  EXPECT_TRUE(q.empty());
}

// Regression: the old dual-hash-set queue kept every cancelled id in a
// tombstone set until its heap entry surfaced, so a long-running arm/cancel
// storm (retransmit timers over days of sim time) grew without bound even
// though the LIVE population stayed tiny. The slot-table queue destroys the
// callback at cancel and compacts the heap when dead entries outnumber live
// ones: after a million arm/cancel ops with <= 1024 live, every internal
// structure must still be sized by the live count, not the op count.
TEST(EventQueue, MillionOpArmCancelStormStaysBounded) {
  constexpr std::uint64_t kOps = 1'000'000;
  constexpr std::size_t kLive = 1024;
  EventQueue q;
  std::vector<EventId> live(kLive, 0);
  std::size_t peak_heap = 0;
  std::size_t peak_slots = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::size_t k = i % kLive;
    if (live[k] != 0) {
      ASSERT_TRUE(q.cancel(live[k]));
    }
    live[k] = q.push(static_cast<Time>(kOps + i), [] {});
    peak_heap = std::max(peak_heap, q.heap_entries());
    peak_slots = std::max(peak_slots, q.slot_count());
  }
  EXPECT_EQ(q.size(), kLive);
  // Slots are recycled through the freelist; the heap holds at most ~2x
  // live before compaction kicks in (plus the compaction threshold).
  EXPECT_LE(peak_slots, 4 * kLive);
  EXPECT_LE(peak_heap, 8 * kLive);
  // The survivors still pop in time order with their callbacks intact.
  int fired = 0;
  while (!q.empty()) {
    auto popped = q.pop();
    popped.callback();
    ++fired;
  }
  EXPECT_EQ(fired, static_cast<int>(kLive));
}

// Regression: clear() used to leave the cancelled-id bookkeeping behind, so
// an id armed BEFORE the clear could alias (and cancel) an unrelated event
// armed after it once the slot was reused. clear() now bumps every slot's
// generation: stale ids are dead forever.
TEST(EventQueue, StaleIdsFromBeforeClearCannotCancelNewEvents) {
  EventQueue q;
  std::vector<EventId> stale;
  for (int i = 0; i < 64; ++i) stale.push_back(q.push(10 + i, [] {}));
  q.clear();
  EXPECT_TRUE(q.empty());
  // Re-arm into the same (recycled) slots.
  bool fired[64] = {};
  std::vector<EventId> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(q.push(10 + i, [&fired, i] { fired[i] = true; }));
  }
  for (const EventId id : stale) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 64u);
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(fired[i]) << i;
  // The fresh ids are spent now, and the stale ones still dead.
  for (const EventId id : fresh) EXPECT_FALSE(q.cancel(id));
  for (const EventId id : stale) EXPECT_FALSE(q.cancel(id));
}

// Ids never collide across slot reuse within a generation epoch: a slot
// freed by pop/cancel comes back with a new generation, so the old id's
// cancel misses even when the slot number matches.
TEST(EventQueue, RecycledSlotGetsFreshGeneration) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.pop().callback();          // slot freed by firing
  const EventId b = q.push(2, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));   // stale id: dead
  EXPECT_TRUE(q.cancel(b));    // fresh id: live
}

TEST(EventQueue, RandomizedOrderMatchesStableSort) {
  Rng rng(2024);
  EventQueue q;
  struct Expect {
    Time t;
    int tag;
  };
  std::vector<Expect> expected;
  for (int i = 0; i < 500; ++i) {
    const Time t = rng.below(50);  // many ties
    expected.push_back({t, i});
    q.push(t, [] {});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expect& a, const Expect& b) { return a.t < b.t; });
  for (const auto& e : expected) {
    auto popped = q.pop();
    EXPECT_EQ(popped.time, e.t);
  }
  EXPECT_TRUE(q.empty());
}

// The queue keeps two stores — a heap and an append-only sorted run — and
// must still behave exactly like one priority queue keyed by (time, seq).
// This drives it against a reference ordered set through every store
// transition: cancels that compact while the heap is empty, in-order runs
// (some pushes at the run tail's own instant), out-of-order pushes into the
// heap, cancels in both stores, a clear(), and a run appended to as fast as
// it is consumed (its consumed prefix must be trimmed).
TEST(EventQueue, TwoStoreModelMatchesSortedReference) {
  Rng rng(19);
  EventQueue q;
  // (time, seq, id): seq is push order, the queue's own tie-break.
  std::set<std::tuple<Time, std::uint64_t, EventId>> ref;
  std::unordered_map<EventId, std::tuple<Time, std::uint64_t, EventId>> by_id;
  std::vector<EventId> ids;  // may hold fired or cancelled ids
  std::uint64_t seq = 0;
  Time now = 0;   // time of the last pop; pushes never go before it
  Time tail = 0;  // latest time pushed in order

  const auto check = [&] {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.next_time(), ref.empty() ? kNever : std::get<0>(*ref.begin()));
    // Dead entries stay below ~the live count and a consumed run prefix
    // below max(live + dead, trim threshold): memory tracks the live set.
    ASSERT_LE(q.heap_entries(), 4 * q.size() + 1200);
  };
  const auto push = [&](Time t) {
    const EventId id = q.push(t, [] {});
    const auto key = std::make_tuple(t, seq++, id);
    ref.insert(key);
    by_id.emplace(id, key);
    ids.push_back(id);
  };
  const auto push_in_order = [&] {
    tail = std::max(tail, now) + rng.below(3);  // 1 in 3 at the tail's instant
    push(tail);
  };
  const auto push_random = [&] { push(now + rng.below(2'000)); };
  const auto pop = [&] {
    ASSERT_FALSE(ref.empty());
    const auto want = *ref.begin();
    auto got = q.pop();
    ASSERT_EQ(got.time, std::get<0>(want));
    ASSERT_EQ(got.id, std::get<2>(want));
    ASSERT_TRUE(got.callback != nullptr);
    ref.erase(ref.begin());
    by_id.erase(got.id);
    now = got.time;
  };
  const auto cancel_random = [&] {
    if (ids.empty()) return;
    const EventId id = ids[rng.below(ids.size())];
    const auto it = by_id.find(id);
    ASSERT_EQ(q.cancel(id), it != by_id.end());
    if (it != by_id.end()) {
      ref.erase(it->second);
      by_id.erase(it);
    }
  };

  // Phase 1, on the fresh queue: the heap has never held an entry and every
  // live entry sits in the run; cancels pile up until compaction runs with
  // nothing in the heap. Then the heap fills alongside the run.
  for (int i = 0; i < 500; ++i) push_in_order();
  for (int i = 0; i < 450; ++i) {
    const auto k = rng.below(ids.size());
    std::swap(ids[k], ids.back());
    const EventId id = ids.back();
    ids.pop_back();
    ASSERT_TRUE(q.cancel(id));
    ref.erase(by_id.at(id));
    by_id.erase(id);
    check();
  }
  EXPECT_LT(q.dead_entries(), 64u);  // compaction ran
  for (int i = 0; i < 20; ++i) push_random();
  check();
  for (int i = 0; i < 40; ++i) pop();
  check();

  // Phase 2: interleaved in-order runs, random pushes, pops and cancels.
  for (int step = 0; step < 60'000; ++step) {
    const auto dice = rng.below(100);
    // Pushes and removals balance, so both stores drain now and then.
    if (dice < 20) {
      const auto burst = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < burst; ++i) push_in_order();
    } else if (dice < 35) {
      push_random();
    } else if (dice < 85) {
      if (!ref.empty()) pop();
    } else {
      cancel_random();
    }
    check();
    if (step == 30'000) {
      // A clear() mid-stream: everything goes, and no old id survives it.
      q.clear();
      ref.clear();
      by_id.clear();
      check();
      for (const EventId id : ids) ASSERT_FALSE(q.cancel(id));
      ids.clear();
    }
  }
  while (!ref.empty()) pop();
  check();

  // Phase 3: a run appended to as fast as it drains never empties; its
  // consumed prefix must not accumulate.
  ids.clear();
  for (int i = 0; i < 64; ++i) push_in_order();
  for (int step = 0; step < 50'000; ++step) {
    pop();
    push_in_order();
    check();
  }
  while (!ref.empty()) {
    pop();
    check();
  }
  EXPECT_EQ(q.heap_entries(), 0u);
}

}  // namespace
}  // namespace optsync::sim
