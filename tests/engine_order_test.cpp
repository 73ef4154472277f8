// Edge semantics of the event kernel: (time, insertion-order) FIFO across
// every event kind, scheduling during dispatch, run_until boundaries,
// timer-slot generation checks, deferred self-destroy, the EventFn storage
// tiers, and the allocation-free steady-state contract (checked with a
// counting global operator new).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"

namespace {
// Global allocation counter. Counts every path through the replaceable
// global operator new (ASan still intercepts the underlying malloc, so the
// sanitizer jobs exercise this too).
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1)))
    return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pdc::sim {
namespace {

TEST(EngineOrder, SameTimeFifoAcrossEventKinds) {
  Engine eng;
  std::vector<std::string> order;
  // Insertion order at t=1: the process's sleep-resume is scheduled *during*
  // the t=0 dispatch of its spawn event, so it lands after A/S/B.
  eng.spawn([](Engine& e, std::vector<std::string>& ord) -> Process {
    co_await e.sleep(1.0);
    ord.push_back("resume");
  }(eng, order));
  const int slot = eng.create_timer_slot([&order] { order.push_back("slot"); });
  eng.schedule_at(1.0, [&order] { order.push_back("A"); });
  eng.arm_timer_slot(slot, 1.0);
  eng.schedule_at(1.0, [&order] { order.push_back("B"); });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A", "slot", "B", "resume"}));
  eng.destroy_timer_slot(slot);
}

TEST(EngineOrder, EventsScheduledDuringDispatchAtCurrentTimeRunLast) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(1.0, [&] {
    order.push_back(1);
    eng.post([&] { order.push_back(3); });  // same time, inserted mid-dispatch
    eng.schedule_at(0.5, [&] { order.push_back(4); });  // past: clamps to now
  });
  eng.schedule_at(1.0, [&] { order.push_back(2); });
  Time t_at_4 = -1;
  eng.schedule_at(1.0 + 1e-9, [&] { t_at_4 = eng.now(); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(t_at_4, 1.0 + 1e-9);
}

TEST(EngineOrder, RunUntilLandingExactlyOnEventTime) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(5.0, [&] { ++fired; });
  eng.schedule_at(5.0, [&] { ++fired; });
  eng.schedule_at(5.0 + 1e-12, [&] { ++fired; });
  eng.run_until(5.0);  // boundary inclusive: both t==5 events fire
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_FALSE(eng.queue_empty());
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(EngineOrder, SlotIdReuseWithStaleGenerations) {
  Engine eng;
  int old_fired = 0;
  int new_fired = 0;
  const int a = eng.create_timer_slot([&] { ++old_fired; });
  eng.arm_timer_slot(a, 1.0);
  eng.arm_timer_slot(a, 2.0);  // supersedes the first arm
  eng.destroy_timer_slot(a);   // both arms now stale
  const int b = eng.create_timer_slot([&] { ++new_fired; });
  ASSERT_EQ(b, a);  // the id was recycled
  eng.arm_timer_slot(b, 3.0);
  eng.run();
  // Neither stale arm may fire the recycled slot's callback.
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(EngineOrder, DestroyTimerSlotFromOwnCallbackIsDeferred) {
  // Regression for the engine.hpp footgun: destroying a slot from inside its
  // own callback used to be UB (the closure died mid-execution). It is now a
  // deferred destruction: the capture stays alive until the callback
  // returns, and the id recycles cleanly afterwards.
  Engine eng;
  // A capture with heap state, so ASan would catch any use-after-free of
  // the closure's storage while the tail of the callback still runs.
  auto payload = std::make_shared<std::vector<int>>(std::vector<int>{1, 2, 3});
  int observed_after_destroy = 0;
  int slot = -1;
  slot = eng.create_timer_slot([&eng, &slot, payload, &observed_after_destroy] {
    eng.destroy_timer_slot(slot);  // self-destroy, mid-callback
    // The capture must still be intact after the destroy call.
    observed_after_destroy = static_cast<int>(payload->size());
  });
  std::weak_ptr<std::vector<int>> alive = payload;
  payload.reset();
  eng.arm_timer_slot(slot, 1.0);
  eng.run();
  EXPECT_EQ(observed_after_destroy, 3);
  // The deferred destruction released the closure (and its capture).
  EXPECT_TRUE(alive.expired());
  // The id is recyclable and the stale-generation guard held.
  const int again = eng.create_timer_slot([] {});
  EXPECT_EQ(again, slot);
  eng.destroy_timer_slot(again);
}

TEST(EngineOrder, CancelHandleAfterSlotRecycledIsInert) {
  Engine eng;
  bool guard_fired = false;
  TimerHandle h = eng.schedule_cancellable(1.0, [&] { guard_fired = true; });
  eng.run();  // fires; the one-shot slot retires and its id recycles
  EXPECT_TRUE(guard_fired);
  EXPECT_FALSE(h.active());
  int new_fired = 0;
  TimerHandle h2 = eng.schedule_cancellable(1.0, [&] { ++new_fired; });
  h.cancel();  // stale generation: must not disturb the recycled slot's owner
  EXPECT_TRUE(h2.active());
  eng.run();
  EXPECT_EQ(new_fired, 1);
}

TEST(EngineOrder, OversizedClosuresTakeTheHeapPathAndStillRun) {
  Engine eng;
  std::array<char, 120> big{};  // > EventFn::kInlineSize: exact-size allocation
  big[0] = 7;
  std::array<char, 400> huge{};
  huge[0] = 9;
  int sum = 0;
  eng.schedule_at(1.0, [big, &sum] { sum += big[0]; });
  eng.schedule_at(2.0, [huge, &sum] { sum += huge[0]; });
  eng.schedule_at(3.0, [&sum] { sum += 1; });  // inline
  eng.run();
  EXPECT_EQ(sum, 17);
  EXPECT_EQ(eng.stats().closures_heap, 2u);
  EXPECT_EQ(eng.stats().closures_inline, 1u);
}

TEST(EngineOrder, CancelledLongTimeoutGuardsDoNotBloatTheQueue) {
  // 10k guard timers armed 1000s out and cancelled immediately: the dead
  // arms must be swept, not parked until their nominal fire time.
  Engine eng;
  eng.spawn([](Engine& e) -> Process {
    for (int i = 0; i < 10000; ++i) {
      TimerHandle h = e.schedule_cancellable(1000.0, [] {});
      h.cancel();
      co_await e.sleep(0.001);
    }
  }(eng));
  eng.run();
  EXPECT_LT(eng.stats().peak_queue_depth, 1000u);
  EXPECT_EQ(eng.stats().stale_slot_events, 10000u);
}

TEST(EngineOrder, SameTimeCancelledArmsStayCorrectAndBounded) {
  // Pathological sweep shape: hundreds of zero-delay arms cancelled while
  // their events sit in the *current* bucket, which the sweep cannot touch.
  // The sweep back-off must keep this linear (a hang here would time out),
  // and every dead arm must still be shed without firing.
  Engine eng;
  int fired = 0;
  eng.post([&] {
    for (int i = 0; i < 1000; ++i) {
      const int slot = eng.create_timer_slot([&fired] { ++fired; });
      eng.arm_timer_slot(slot, 0.0);  // lands in the bucket being drained
      eng.destroy_timer_slot(slot);
    }
  });
  eng.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.stats().stale_slot_events, 1000u);
  EXPECT_TRUE(eng.queue_empty());
}

Process ping(Engine& eng, Mailbox<int>& in, Mailbox<int>& out, int rounds, bool starter) {
  if (starter) out.push(0);
  for (int i = 0; i < rounds; ++i) {
    auto v = co_await in.recv_for(10.0);  // always satisfied by the push
    EXPECT_TRUE(v.has_value());  // ASSERT_* cannot `return` out of a coroutine
    if (!v) co_return;
    co_await eng.sleep(0.0005);
    out.push(*v + 1);
  }
}

TEST(EngineOrder, SteadyStatePathsAreAllocationFree) {
  // The acceptance contract made executable: once pools/buckets are warm, a
  // sleep + timed-receive + posted-callback workload performs zero heap
  // allocations per event. The same invariant is what EngineStats'
  // closures_heap == 0 reports from inside.
  Engine eng;
  Mailbox<int> a{eng}, b{eng};
  constexpr int kWarmRounds = 400;
  constexpr int kSteadyRounds = 4000;
  eng.spawn(ping(eng, a, b, kWarmRounds + kSteadyRounds, true));
  eng.spawn(ping(eng, b, a, kWarmRounds + kSteadyRounds, false));
  struct Chain {
    Engine* e;
    int remaining;
    void step() {
      if (remaining-- > 0)
        e->schedule_after(0.0013, [this] { step(); });
    }
  } chain{&eng, kWarmRounds + kSteadyRounds};
  chain.step();
  // Warm-up: pools, buckets, the time map and the coroutine frames all
  // reach steady capacity.
  eng.run_until(kWarmRounds * 0.001);
  const std::uint64_t warm_allocs = g_allocs;
  // Steady window: thousands of rounds, stopped shy of the processes'
  // completion (reaping a finished coroutine is a legitimate one-off).
  eng.run_until((kWarmRounds + kSteadyRounds) * 0.001 - 0.1);
  EXPECT_EQ(g_allocs, warm_allocs) << "steady-state event paths allocated";
  eng.run();
  EXPECT_EQ(eng.stats().closures_heap, 0u);
  EXPECT_GT(eng.stats().resumes, 2u * kSteadyRounds);
  EXPECT_GT(eng.stats().slot_arms, 2u * kSteadyRounds);
}

TEST(EngineOrder, StatsCountEachPath) {
  Engine eng;
  eng.schedule_at(1.0, [] {});
  eng.spawn([](Engine& e) -> Process { co_await e.sleep(1.0); }(eng));
  const int slot = eng.create_timer_slot([] {});
  eng.arm_timer_slot(slot, 2.0);
  eng.arm_timer_slot(slot, 1.0);  // supersedes: one stale event
  eng.run();
  const EngineStats& st = eng.stats();
  // closure + spawn resume + sleep resume + live arm + stale arm.
  EXPECT_EQ(st.events_dispatched, 5u);
  EXPECT_EQ(st.closures_inline, 2u);  // the lambda + the slot callback
  EXPECT_EQ(st.closures_heap, 0u);
  EXPECT_EQ(st.resumes, 2u);
  EXPECT_EQ(st.slot_arms, 2u);
  EXPECT_EQ(st.stale_slot_events, 1u);
  EXPECT_GE(st.peak_queue_depth, 3u);
  eng.destroy_timer_slot(slot);
}

}  // namespace
}  // namespace pdc::sim
