// Unit tests: event queue determinism, the pooled/inline-callable substrate
// and the Joiner completion helper.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/joiner.hpp"

using namespace tdn;
using namespace tdn::sim;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(30, [&] { order.push_back(3); });
  eq.schedule_at(10, [&] { order.push_back(1); });
  eq.schedule_at(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30u);
  EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameCycleFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.schedule_at(5, [&, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsScheduleEvents) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(1, [&] {
    eq.schedule_in(5, [&] { ++fired; });
  });
  eq.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, CannotScheduleInThePast) {
  EventQueue eq;
  eq.schedule_at(10, [&] {
    EXPECT_THROW(eq.schedule_at(5, [] {}), RequireError);
  });
  eq.run();
}

TEST(EventQueue, RunUntilThrowsOnOverrun) {
  EventQueue eq;
  eq.schedule_at(100, [] {});
  EXPECT_THROW(eq.run_until(50), RequireError);
}

TEST(EventQueue, ResumeAfterCaughtLimitOverrun) {
  // Regression: the deadlock guard used to pop the over-limit event before
  // throwing, so catching the overrun lost an event. The guard now peeks, so
  // a caught overrun leaves the queue resumable with a higher limit. An
  // in-limit observer runs before the overrun fires; one past the first
  // limit stays queued (not dropped) and runs on resume.
  EventQueue eq;
  std::vector<Cycle> ran;
  eq.schedule_at(10, [&] { ran.push_back(eq.now()); });
  eq.schedule_at(100, [&] { ran.push_back(eq.now()); });
  eq.schedule_observer_at(40, [&] { ran.push_back(eq.now()); });
  eq.schedule_observer_at(150, [&] { ran.push_back(eq.now()); });
  EXPECT_THROW(eq.run_until(50), RequireError);
  EXPECT_EQ(ran, (std::vector<Cycle>{10, 40}));
  EXPECT_EQ(eq.now(), 40u);
  EXPECT_EQ(eq.executed(), 1u);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_EQ(eq.observer_pending(), 1u);
  EXPECT_EQ(eq.observer_dropped(), 0u);
  // Resume: the previously over-limit event must still fire.
  EXPECT_EQ(eq.run_until(200), 150u);
  EXPECT_EQ(ran, (std::vector<Cycle>{10, 40, 100, 150}));
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_EQ(eq.observer_dropped(), 0u);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ThrowingActionIsConsumedButNotCounted) {
  // An action that throws cannot be un-run, so its event is consumed (and
  // its pool slot recycled), but it is not counted in executed(). The rest
  // of the queue stays intact and runnable.
  EventQueue eq;
  bool later_ran = false;
  eq.schedule_at(5, [] { throw std::runtime_error("boom"); });
  eq.schedule_at(10, [&] { later_ran = true; });
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(eq.executed(), 0u);
  EXPECT_EQ(eq.pending(), 1u);
  eq.run();
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, PoolRecyclesSlotsAcrossWaves) {
  // Thousands of sequential events must reuse a handful of pooled slots:
  // the pool high-water mark tracks peak *pending* events, not total count.
  EventQueue eq;
  std::uint64_t fired = 0;
  for (int wave = 0; wave < 100; ++wave) {
    for (int i = 0; i < 8; ++i) {
      eq.schedule_in(static_cast<Cycle>(i + 1), [&] { ++fired; });
    }
    eq.run();
  }
  EXPECT_EQ(fired, 800u);
  EXPECT_EQ(eq.executed(), 800u);
  // 8 concurrent events fit comfortably in the first 256-slot chunk.
  EXPECT_LE(eq.pool_slots(), 256u);
}

TEST(EventQueue, PoolChurnPastOneChunkKeepsRecycleCapacity) {
  // Regression: recycle() is noexcept (it runs in destructors during
  // unwind) but free_.push_back could allocate once the pool grew past one
  // chunk — grow_pool reserved only the new chunk's worth. The invariant is
  // now free_capacity() >= pool_slots() at every growth step, so a recycle
  // can never allocate no matter how the pool churns.
  EventQueue eq;
  std::uint64_t fired = 0;
  for (int wave = 0; wave < 4; ++wave) {
    // 600 concurrent events force the pool well past the first 256-slot
    // chunk; draining them returns every slot through recycle().
    for (int i = 0; i < 600; ++i) {
      eq.schedule_in(static_cast<Cycle>(i % 7) + 1, [&] { ++fired; });
    }
    eq.run();
    EXPECT_GE(eq.free_capacity(), eq.pool_slots());
  }
  EXPECT_EQ(fired, 2400u);
  EXPECT_GE(eq.pool_slots(), 512u);
}

namespace {
// Copying throws, moving does not — the only failure InlineFunction::emplace
// admits (captures must be nothrow-move-constructible), so this is the
// exception-safety injection vector for the schedule paths.
struct ThrowOnCopy {
  bool* ran;
  explicit ThrowOnCopy(bool* r) : ran(r) {}
  ThrowOnCopy(const ThrowOnCopy& other) : ran(other.ran) {
    throw std::runtime_error("capture copy failed");
  }
  ThrowOnCopy(ThrowOnCopy&&) noexcept = default;
  void operator()() const { *ran = true; }
};
}  // namespace

TEST(EventQueue, ThrowingCaptureLeaksNoEventOrSeq) {
  // Strong guarantee on schedule_at: a capture constructor that throws must
  // leave the queue exactly as it was — no pending event, no consumed pool
  // slot, and no skipped sequence number (same-cycle FIFO stays gapless).
  EventQueue eq;
  std::vector<int> order;
  bool bad_ran = false;
  eq.schedule_at(5, [&] { order.push_back(1); });
  const std::size_t slots = eq.pool_slots();
  ThrowOnCopy bad{&bad_ran};
  EXPECT_THROW(eq.schedule_at(5, bad), std::runtime_error);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_EQ(eq.pool_slots(), slots);
  eq.schedule_at(5, [&] { order.push_back(2); });
  eq.run();
  EXPECT_FALSE(bad_ran);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, ThrowingObserverCaptureLeavesCensusUntouched) {
  // Regression: schedule_observer_at bumped observer_pending_ before the
  // push that could throw, so a failed emplace skewed the observer census
  // (real_pending() and the ckpt quiescence check read it) and leaked a
  // stamped seq. The counter now moves only after the event is in the heap.
  EventQueue eq;
  bool bad_ran = false;
  eq.schedule_at(10, [] {});
  eq.schedule_observer_at(5, [] {});
  ThrowOnCopy bad{&bad_ran};
  EXPECT_THROW(eq.schedule_observer_at(7, bad), std::runtime_error);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_EQ(eq.observer_pending(), 1u);
  EXPECT_EQ(eq.real_pending(), 1u);
  // The queue stays fully usable: both surviving events run normally.
  eq.run();
  EXPECT_FALSE(bad_ran);
  EXPECT_EQ(eq.executed(), 1u);
  EXPECT_EQ(eq.observer_pending(), 0u);
}

TEST(InlineFunction, CallsAndReturnsThroughTheInlineBuffer) {
  InlineFunction<int(int), 64> f = [](int x) { return x * 2; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(21), 42);
}

TEST(InlineFunction, MoveTransfersStateAndEmptiesSource) {
  int calls = 0;
  InlineFunction<void(), 64> a = [&calls] { ++calls; };
  InlineFunction<void(), 64> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InlineFunction<void(), 64> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, DestroysCaptureOnResetAndDestruction) {
  auto token = std::make_shared<int>(7);
  {
    InlineFunction<void(), 64> f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    f.reset();
    EXPECT_EQ(token.use_count(), 1);
    f.emplace([token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, HoldsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(5);
  InlineFunction<int(), 64> f = [p = std::move(owned)] { return *p; };
  EXPECT_EQ(f(), 5);
}

TEST(InlineFunction, NearCapacityCaptureFitsInline) {
  // A capture filling (almost) the whole Action budget still compiles and
  // round-trips through the event queue — the compile-time contract that
  // real coherence continuations rely on.
  struct Big {
    unsigned char bytes[kActionCapacity - 8];
  };
  Big big{};
  std::memset(big.bytes, 0x5a, sizeof big.bytes);
  unsigned char seen = 0;
  EventQueue eq;
  eq.schedule_at(1, [big, &seen] { seen = big.bytes[sizeof(Big::bytes) - 1]; });
  eq.run();
  EXPECT_EQ(seen, 0x5a);
}

TEST(EventQueue, ZeroDelaySameCycle) {
  EventQueue eq;
  bool ran = false;
  eq.schedule_at(7, [&] { eq.schedule_in(0, [&] { ran = true; }); });
  eq.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, ObserverEventsExcludedFromAccounting) {
  EventQueue eq;
  int real = 0;
  int observed = 0;
  eq.schedule_at(10, [&] { ++real; });
  eq.schedule_observer_at(5, [&] { ++observed; });
  eq.schedule_observer_in(20, [&] { ++observed; });
  EXPECT_EQ(eq.pending(), 3u);
  EXPECT_EQ(eq.real_pending(), 1u);
  eq.run();
  EXPECT_EQ(real, 1);
  EXPECT_EQ(observed, 2);
  // Observer callbacks run but never count as executed events.
  EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, ObserverBeyondLimitIsDroppedNotFatal) {
  EventQueue eq;
  bool observed = false;
  eq.schedule_at(10, [] {});
  eq.schedule_at(20, [] {});
  eq.schedule_observer_at(100, [&] { observed = true; });
  // A real event past the limit throws; a pending observer tick must not.
  // The drop is counted so a periodic observer's scheduler can re-arm.
  EXPECT_EQ(eq.run_until(50), 20u);
  EXPECT_FALSE(observed);
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_EQ(eq.observer_dropped(), 1u);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ObserverInterleavesAtCorrectCycles) {
  EventQueue eq;
  std::vector<Cycle> at;
  eq.schedule_at(10, [&] { at.push_back(eq.now()); });
  eq.schedule_observer_at(15, [&] { at.push_back(eq.now()); });
  eq.schedule_at(20, [&] { at.push_back(eq.now()); });
  eq.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], 10u);
  EXPECT_EQ(at[1], 15u);
  EXPECT_EQ(at[2], 20u);
}

namespace {

// Differential model for EventQueue.MatchesReferenceOrder: a plain
// std::priority_queue keyed on (when, seq) with run_until's documented
// semantics (peeked real overrun, dropped late observers) on top.
struct RefEvent {
  Cycle when;
  std::uint64_t seq;
  bool observer;
  int id;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};

struct Child {
  Cycle delay;
  bool observer;
};

/// Absolute cycle for an event @p delay cycles after @p now. Longer delays
/// land on a 32-cycle grid so that overflow, wheel and observer events
/// often share a cycle, which is where (when, seq) ties are decided.
Cycle target(Cycle now, Cycle delay) {
  return delay < 64 ? now + delay : (now + delay + 31) / 32 * 32;
}

/// The events an event spawns when it runs: a pure function of its id, so
/// the real queue and the model schedule the same things. The delays mix
/// same-cycle, in-wheel, wheel-edge and beyond-wheel events.
std::vector<Child> children_of(int id) {
  SplitMix64 rng(static_cast<std::uint64_t>(id) * 7919 + 17);
  constexpr Cycle kWheel = EventQueue::kWheelSlots;
  std::vector<Child> out;
  const unsigned n = static_cast<unsigned>(rng.next_below(4));
  for (unsigned i = 0; i < (n == 3 ? 2u : n == 0 ? 0u : 1u); ++i) {
    Cycle d = 0;
    switch (rng.next_below(8)) {
      case 0: case 1: d = 0; break;
      case 2: case 3: d = 1 + rng.next_below(64); break;
      case 4: d = 1 + rng.next_below(kWheel - 1); break;
      case 5: d = kWheel - 1 + rng.next_below(3); break;  // the horizon edge
      default: d = kWheel + rng.next_below(12 * kWheel); break;
    }
    out.push_back({d, rng.next_below(6) == 0});
  }
  return out;
}

/// One side of the comparison: either the EventQueue or the model, with a
/// log of (id, cycle) for every event that ran.
struct RefQueue {
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> pq;
  Cycle now = 0;
  std::uint64_t seq = 0, executed = 0, dropped = 0;
  std::size_t observers = 0;
  int next_id = 0;
  std::vector<std::pair<int, Cycle>> log;

  void schedule(Cycle when, bool observer) {
    pq.push({when, seq++, observer, next_id++});
    if (observer) ++observers;
  }
  /// Returns true on a (peeked) real-event overrun.
  bool run_until(Cycle limit, int max_id) {
    while (!pq.empty()) {
      const RefEvent top = pq.top();
      if (!top.observer && top.when > limit) return true;
      pq.pop();
      if (top.observer) {
        --observers;
        if (top.when > limit) {
          ++dropped;
          continue;
        }
        now = top.when;
        log.emplace_back(top.id, now);
        if (next_id < max_id)
          for (const Child& c : children_of(top.id))
            schedule(target(now, c.delay), /*observer=*/true);
        continue;
      }
      now = top.when;
      log.emplace_back(top.id, now);
      if (next_id < max_id)
        for (const Child& c : children_of(top.id))
          schedule(target(now, c.delay), c.observer);
      ++executed;
    }
    return false;
  }
};

}  // namespace

TEST(EventQueue, MatchesReferenceOrder) {
  // The timing wheel + overflow heap must reproduce exact (when, seq) order
  // against a reference priority queue: same-cycle, in-wheel and
  // beyond-wheel events, observers (including ones dropped past a limit),
  // caught overruns followed by resumes, a fast_forwarded start that is
  // not wheel-aligned, and many wheel wraps.
  constexpr int kMaxId = 30000;
  EventQueue q;
  RefQueue ref;
  std::vector<std::pair<int, Cycle>> log;
  int next_id = 0;
  std::function<void(Cycle, bool)> schedule = [&](Cycle when, bool observer) {
    const int id = next_id++;
    if (observer) {
      // Observers re-arm only observers, like the epoch sampler.
      q.schedule_observer_at(when, [&, id] {
        log.emplace_back(id, q.now());
        if (next_id < kMaxId)
          for (const Child& c : children_of(id))
            schedule(target(q.now(), c.delay), /*observer=*/true);
      });
      return;
    }
    q.schedule_at(when, [&, id] {
      log.emplace_back(id, q.now());
      if (next_id < kMaxId)
        for (const Child& c : children_of(id))
          schedule(target(q.now(), c.delay), c.observer);
    });
  };

  const Cycle start = 1'000'003;  // not a multiple of the wheel size
  q.fast_forward(start);
  ref.now = start;
  SplitMix64 rng(2024);
  unsigned overruns = 0;
  for (int round = 0; round < 400; ++round) {
    const unsigned injected = 1 + static_cast<unsigned>(rng.next_below(3));
    for (unsigned i = 0; i < injected; ++i) {
      const Cycle d = rng.next_below(4) == 0
                          ? rng.next_below(20 * EventQueue::kWheelSlots)
                          : rng.next_below(300);
      const bool observer = rng.next_below(3) == 0;
      schedule(target(q.now(), d), observer);
      ref.schedule(target(ref.now, d), observer);
    }
    const Cycle limit = q.now() + rng.next_below(2 * EventQueue::kWheelSlots);
    bool threw = false;
    try {
      q.run_until(limit);
    } catch (const RequireError&) {
      threw = true;
    }
    const bool ref_threw = ref.run_until(limit, kMaxId);
    overruns += threw ? 1 : 0;
    ASSERT_EQ(threw, ref_threw) << "round " << round;
    ASSERT_EQ(log, ref.log) << "round " << round;
    ASSERT_EQ(q.now(), ref.now);
    ASSERT_EQ(q.executed(), ref.executed);
    ASSERT_EQ(q.pending(), ref.pq.size());
    ASSERT_EQ(q.observer_pending(), ref.observers);
    ASSERT_EQ(q.observer_dropped(), ref.dropped);
  }
  q.run();
  ref.run_until(kNeverCycle, kMaxId);
  EXPECT_EQ(log, ref.log);
  EXPECT_EQ(q.executed(), ref.executed);
  EXPECT_TRUE(q.empty());
  // The mix exercised what it claims to.
  EXPECT_GT(overruns, 10u);
  EXPECT_GT(ref.dropped, 0u);
  EXPECT_GT(q.now() - start, 10 * EventQueue::kWheelSlots);
}

TEST(Joiner, FiresWhenArmedAndDrained) {
  bool done = false;
  JoinerPool pool;
  Joiner* j = pool.make([&] { done = true; });
  j->add(2);
  j->arm();
  EXPECT_FALSE(done);
  j->complete();
  EXPECT_FALSE(done);
  j->complete();
  EXPECT_TRUE(done);
}

TEST(Joiner, FiresImmediatelyWhenNothingPending) {
  bool done = false;
  JoinerPool pool;
  Joiner* j = pool.make([&] { done = true; });
  j->arm();
  EXPECT_TRUE(done);
}

TEST(Joiner, CompletionBeforeArmDoesNotFireTwice) {
  int fires = 0;
  JoinerPool pool;
  Joiner* j = pool.make([&] { ++fires; });
  j->add();
  j->complete();
  j->arm();
  EXPECT_EQ(fires, 1);
}

TEST(Joiner, PoolRecyclesAFiredJoiner) {
  // A pooled joiner goes back to its pool just before its done callback
  // runs, so the callback can start the next join on the same slot.
  JoinerPool pool;
  std::vector<int> fired;
  Joiner* first = pool.make([&] { fired.push_back(1); });
  first->add(2);
  first->arm();
  first->complete();
  EXPECT_TRUE(fired.empty());
  first->complete();
  EXPECT_EQ(fired, (std::vector<int>{1}));
  Joiner* second = pool.make([&] { fired.push_back(2); });
  EXPECT_EQ(second, first);  // the same slot, reused
  EXPECT_EQ(second->pending(), 0u);
  second->arm();  // nothing pending: fires at once
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}
