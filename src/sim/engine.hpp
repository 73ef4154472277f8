// The discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, insertion-order)
// sequence, so two runs with the same seed produce identical schedules. All
// higher layers (network flows, P2PSAP channels, overlay protocols, trace
// replay) are built on this kernel.
//
// The kernel is allocation-free on its steady-state paths, built around two
// ideas:
//
//  * A bucketed calendar queue. Simulation workloads are massively
//    time-coincident (same-time posts, synchronous iteration rounds, equal
//    link latencies), so the queue is a min-heap of *distinct* times plus a
//    FIFO bucket of 16-byte POD events per time (an open-addressing map
//    resolves time -> bucket). Scheduling into an existing time is an
//    append — no sift at all; the heap only works per distinct timestamp.
//    FIFO append order is insertion order, so the (time, insertion-order)
//    contract needs no per-event sequence number.
//
//  * Out-of-band payloads. Events carry an index, never a closure: closures
//    live in a recycled pool of small-buffer-optimized EventFns (EventFn's
//    inline budget fits every real capture set in src/), coroutine resumes
//    (sleep, mailbox wakeup, latch release) carry just the raw handle, and
//    timers are generation-checked slots whose arm/cancel never allocates.
//
// Stale timer arms (a guard cancelled early, a timed receive satisfied by a
// push) are shed by a deterministic amortized sweep instead of haunting the
// queue until their nominal fire time. EngineStats counts how often each
// path runs — the inline-vs-heap closure split is the regression tripwire
// for "something started allocating per event again".
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/process.hpp"
#include "support/time.hpp"

namespace pdc::sim {

class Engine;

/// Aggregate kernel counters, recorded per run next to FlowNetStats.
struct EngineStats {
  std::uint64_t events_dispatched = 0;
  /// Closures scheduled whose capture fit EventFn's inline buffer. The
  /// steady-state simulation paths (sleep, mailbox push/recv/recv_for, slot
  /// arm/cancel) schedule no closures at all, so closures_heap staying at
  /// zero *and* closures_inline growing only with genuine callback events is
  /// the allocation-free contract made observable.
  std::uint64_t closures_inline = 0;
  /// Closures that overflowed to the heap (capture > EventFn::kInlineSize).
  std::uint64_t closures_heap = 0;
  /// Raw coroutine-handle resumes scheduled (the no-closure fast path).
  std::uint64_t resumes = 0;
  /// Timer-slot arms (each is one allocation-free queue event).
  std::uint64_t slot_arms = 0;
  /// Slot events shed because their generation went stale (superseded by a
  /// re-arm, cancelled, or eagerly destroyed — e.g. a timed receive
  /// satisfied before its timeout), whether popped lazily or removed by the
  /// amortized queue sweep.
  std::uint64_t stale_slot_events = 0;
  std::uint64_t peak_queue_depth = 0;
};

/// Cancellation token for a callback scheduled via schedule_cancellable():
/// a generation-checked id into the engine's timer-slot table. Cheap to
/// copy; cancelling an already-fired, already-cancelled or empty handle is a
/// no-op (the generation went stale). cancel() frees the closure (and
/// whatever it captures) eagerly and recycles the slot. A handle must not
/// outlive its engine.
class TimerHandle {
 public:
  TimerHandle() = default;
  void cancel();
  /// True while the callback is still pending (not cancelled, not fired).
  bool active() const;

 private:
  friend class Engine;
  TimerHandle(Engine* engine, int slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}

  Engine* engine_ = nullptr;
  int slot_ = -1;
  std::uint64_t gen_ = 0;
};

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` at the current simulated time (after already-queued
  /// events at this time). Accepts any void() callable (or an EventFn); the
  /// closure is constructed directly into a recycled pool entry, so the
  /// steady state performs no allocation and exactly one capture copy.
  template <class F>
  void post(F&& fn) {
    schedule_at(now_, std::forward<F>(fn));
  }
  template <class F>
  void schedule_at(Time t, F&& fn) {
    const std::uint32_t idx = alloc_closure();
    EventFn& e = closure_pool_[idx];
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
      e = std::forward<F>(fn);
    else
      e.emplace(std::forward<F>(fn));
    count_closure(e);
    push_event(t, kClosure, idx, 0);
  }
  template <class F>
  void schedule_after(Time dt, F&& fn) {
    schedule_at(now_ + dt, std::forward<F>(fn));
  }
  /// Like schedule_after, but returns a handle whose cancel() suppresses the
  /// callback if it has not fired yet (and releases the closure eagerly).
  /// Implemented as a one-shot timer slot, so the whole arm/fire/cancel
  /// cycle is allocation-free for inline-sized captures.
  template <class F>
  TimerHandle schedule_cancellable(Time dt, F&& fn) {
    const int slot = create_timer_slot(std::forward<F>(fn), /*one_shot=*/true);
    arm_timer_slot(slot, dt);
    return TimerHandle{this, slot, timer_slots_[static_cast<std::size_t>(slot)].gen};
  }

  /// Coroutine fast path: schedules a raw handle resume — no closure, no
  /// pool entry, nothing to destroy. This is what sleep, mailbox wakeups and
  /// latch releases ride on.
  void post_resume(std::coroutine_handle<> h) { schedule_resume(0.0, h); }
  void schedule_resume(Time dt, std::coroutine_handle<> h) {
    ++stats_.resumes;
    push_event(now_ + dt, kResume, 0,
               reinterpret_cast<std::uint64_t>(h.address()));
  }

  /// Persistent timer slot: the callback is registered once, then arm/cancel
  /// are allocation-free (events carry only the slot id and a generation).
  /// Re-arming implicitly cancels the previous pending arm. Built for hot
  /// one-timer-per-component users like FlowNet's completion timer.
  /// A one_shot slot destroys itself after its callback fires — the backing
  /// for schedule_cancellable and mailbox receive timeouts.
  template <class F>
  int create_timer_slot(F&& fn, bool one_shot = false) {
    const int slot = alloc_timer_slot(one_shot);
    EventFn& e = timer_slots_[static_cast<std::size_t>(slot)].fn;
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
      e = std::forward<F>(fn);
    else
      e.emplace(std::forward<F>(fn));
    count_closure(e);
    return slot;
  }
  void arm_timer_slot(int slot, Time dt);
  void cancel_timer_slot(int slot);
  /// Frees the slot's callback and recycles the id for a later
  /// create_timer_slot. Safe to call from inside the slot's own callback:
  /// the destruction is deferred to the end of the dispatch (the pending arm
  /// still goes stale immediately), so the closure is never destroyed
  /// mid-execution.
  void destroy_timer_slot(int slot);
  bool timer_slot_armed(int slot) const {
    return timer_slots_[static_cast<std::size_t>(slot)].armed;
  }
  std::size_t timer_slot_count() const { return timer_slots_.size(); }

  /// Takes ownership of a process coroutine and schedules its first resume
  /// at the current time.
  void spawn(Process p, std::string name = {});

  /// Awaitable: suspends the calling coroutine for `dt` simulated seconds.
  struct SleepAwaiter {
    Engine* engine;
    Time dt;
    bool await_ready() const noexcept { return dt <= 0; }
    void await_suspend(std::coroutine_handle<> h) { engine->schedule_resume(dt, h); }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep(Time dt) { return SleepAwaiter{this, dt}; }

  /// Runs until the event queue drains. Rethrows the first uncaught
  /// exception escaping a process.
  void run();
  /// Runs until the queue drains or the next event lies beyond `t_end`
  /// (the clock then advances to exactly `t_end`).
  void run_until(Time t_end);
  /// Dispatches a single event. Returns false when the queue is empty.
  bool step();

  std::size_t live_processes() const { return live_processes_; }
  std::uint64_t dispatched_events() const { return stats_.events_dispatched; }
  const EngineStats& stats() const { return stats_; }
  bool queue_empty() const { return pending_events_ == 0; }

 private:
  friend struct Process::promise_type::FinalAwaiter;
  friend class TimerHandle;

  // Event kinds, packed into the top bits of the payload word. Within a
  // bucket, FIFO order *is* insertion order, so events carry no sequence
  // number at all.
  static constexpr std::uint64_t kClosure = 0;
  static constexpr std::uint64_t kResume = 1;
  static constexpr std::uint64_t kSlot = 2;
  static constexpr int kKindShift = 62;
  static constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << kKindShift) - 1;

  /// 16 bytes, trivially copyable. `a` = kind | payload (closure-pool index
  /// or slot id); `b` = slot generation or coroutine address.
  struct Event {
    std::uint64_t a;
    std::uint64_t b;
  };

  /// All events scheduled for one exact timestamp, in insertion order.
  struct Bucket {
    std::vector<Event> events;
    std::uint32_t cursor = 0;
  };

  struct TimerSlot {
    EventFn fn;
    std::uint64_t gen = 0;  // bumped on arm/cancel; stale events are skipped
    bool armed = false;
    bool one_shot = false;
    bool pending_destroy = false;  // destroy requested from inside own callback
  };

  static std::uint64_t time_key(Time t) { return std::bit_cast<std::uint64_t>(t); }
  static std::uint64_t hash_key(std::uint64_t x) {
    // splitmix64 finalizer: cheap and well-mixed for IEEE-754 bit patterns.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void push_event(Time t, std::uint64_t kind, std::uint64_t payload, std::uint64_t b) {
    if (!(t > now_)) t = now_;  // never schedule into the past
    Bucket& bkt = (current_bucket_ >= 0 && t == now_)
                      ? buckets_[static_cast<std::size_t>(current_bucket_)]
                      : bucket_at(t);
    bkt.events.push_back(Event{(kind << kKindShift) | payload, b});
    ++pending_events_;
    if (pending_events_ > stats_.peak_queue_depth)
      stats_.peak_queue_depth = pending_events_;
  }

  void count_closure(const EventFn& fn) {
    if (fn.on_heap())
      ++stats_.closures_heap;
    else
      ++stats_.closures_inline;
  }
  std::uint32_t alloc_closure() {
    if (!free_closures_.empty()) {
      const std::uint32_t idx = free_closures_.back();
      free_closures_.pop_back();
      return idx;
    }
    closure_pool_.emplace_back();
    return static_cast<std::uint32_t>(closure_pool_.size() - 1);
  }

  Bucket& bucket_at(Time t);           // find-or-create (memo, map + time heap)
  std::size_t map_slot_of(std::uint64_t key) const;
  void map_insert(std::uint64_t key, std::uint32_t bucket);
  void map_erase(std::uint64_t key);
  void map_grow();
  std::uint32_t alloc_bucket();
  void release_current_bucket();
  void activate_next_bucket();
  bool event_is_stale(const Event& ev) const;
  void sweep_stale();

  int alloc_timer_slot(bool one_shot);
  void note_dead_arm();
  void release_slot(int slot);
  void run_slot(int slot, std::uint64_t gen);
  void on_process_done(Process::Handle h);
  void reap_zombies();
  void dispatch(const Event& ev);

  // --- calendar queue ---
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<std::uint64_t> map_keys_;  // open addressing, kEmptyKey = vacant
  std::vector<std::uint32_t> map_vals_;
  std::size_t map_size_ = 0;
  std::vector<Time> time_heap_;  // min-heap of distinct pending times
  std::int32_t current_bucket_ = -1;  // bucket being drained (its time == now_)
  std::uint64_t memo_key_ = ~std::uint64_t{0};  // last bucket_at hit (kEmptyKey: none)
  std::uint32_t memo_bucket_ = 0;
  std::size_t pending_events_ = 0;    // queued events, stale arms included
  std::size_t dead_slot_events_ = 0;  // stale arms still parked in the queue
  std::uint32_t trace_advances_ = 0;  // obs sampling cadence (traced runs only)
  std::size_t sweep_leftover_ = 0;    // dead arms the last sweep could not reach
  std::vector<std::uint64_t> sweep_keys_;  // sweep scratch (kept warm)
  std::vector<std::uint32_t> sweep_vals_;

  // Closure storage: pool entries are recycled through a free list, so the
  // steady state re-uses warmed EventFns instead of allocating. Entries are
  // moved out before invocation, which keeps the pool free to grow (and the
  // freed index free to be re-used) while the callback runs.
  std::vector<EventFn> closure_pool_;
  std::vector<std::uint32_t> free_closures_;

  // deque: a slot callback may register new slots mid-dispatch; references
  // into a deque survive push_back, vector references would not.
  std::deque<TimerSlot> timer_slots_;
  std::vector<int> free_timer_slots_;  // destroyed ids awaiting reuse
  int dispatching_slot_ = -1;  // slot whose callback is on the stack, else -1

  Time now_ = 0.0;
  EngineStats stats_;
  std::size_t live_processes_ = 0;
  std::vector<Process::Handle> registered_;  // all spawned, for final cleanup
  std::vector<Process::Handle> zombies_;     // finished, to destroy
  std::exception_ptr pending_error_;
};

inline void TimerHandle::cancel() {
  if (!engine_ || slot_ < 0) return;
  auto& s = engine_->timer_slots_[static_cast<std::size_t>(slot_)];
  if (s.gen != gen_) return;  // already fired, cancelled, or slot recycled
  engine_->destroy_timer_slot(slot_);
}

inline bool TimerHandle::active() const {
  if (!engine_ || slot_ < 0) return false;
  const auto& s = engine_->timer_slots_[static_cast<std::size_t>(slot_)];
  return s.gen == gen_ && s.armed;
}

}  // namespace pdc::sim
