// Event-kernel throughput microbench, seeding the perf trajectory for the
// allocation-free engine rewrite: how many scheduled events per wall-clock
// second can sim::Engine dispatch under the capture profiles the real
// subsystems produce?
//
// Workloads:
//  * closure_light  — self-rechaining events with a pointer-sized capture
//    (FlowNet's completion posts, injector timeline events);
//  * closure_heavy  — the same chains carrying a 48-byte capture block (an
//    overlay CtrlMsg / ChurnEvent-sized payload), the case where a plain
//    std::function heap-allocates per event;
//  * sleep_storm    — K coroutines each awaiting M engine sleeps (the
//    coroutine-resume fast path);
//  * timed_recv     — mailbox ping-pong where every receive is a recv_for
//    satisfied before its timeout (the overlay heartbeat/RPC pattern: the
//    armed timeout must not linger in the heap, let alone allocate);
//  * slot_churn     — persistent timer slots re-arming from their own
//    callback with a superseded shadow arm per fire (FlowNet's completion
//    timer under reshare churn);
//  * cancellable    — schedule_cancellable batches cancelled before their
//    fire time (RPC guard timers).
//
// Emits BENCH_engine.json (pass a path as argv[1] to redirect). PDC_QUICK
// shrinks the event budget for smoke/ASan runs.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace {

using namespace pdc;
using sim::Engine;

struct Result {
  std::string name;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
};

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
};

Result finish(std::string name, std::uint64_t events, const Timer& timer) {
  Result r;
  r.name = std::move(name);
  r.events = events;
  r.wall_seconds = timer.seconds();
  r.events_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(events) / r.wall_seconds : 0;
  return r;
}

// --- closure chains ----------------------------------------------------------

struct LightChain {
  Engine* eng;
  std::uint64_t remaining;
  void step() {
    if (remaining == 0) return;
    --remaining;
    eng->schedule_after(0.001, [this] { step(); });
  }
};

Result bench_closure_light(std::uint64_t events) {
  Engine eng;
  constexpr int kChains = 16;
  std::vector<LightChain> chains(kChains);
  Timer timer;
  for (auto& c : chains) {
    c.eng = &eng;
    c.remaining = events / kChains;
    c.step();
  }
  eng.run();
  return finish("closure_light", eng.dispatched_events(), timer);
}

/// Capture block sized like the real oversized captures in src/: an overlay
/// CtrlMsg move-capture or a churn ChurnEvent by value (~40-56 bytes) — past
/// libstdc++'s 16-byte std::function SBO, inside sim::EventFn's inline
/// buffer.
struct Blob {
  double payload[6] = {1, 2, 3, 4, 5, 6};
};

struct HeavyChain {
  Engine* eng;
  std::uint64_t remaining;
  double sink = 0;
  void step(const Blob& blob) {
    sink += blob.payload[0];
    if (remaining == 0) return;
    --remaining;
    Blob next = blob;
    next.payload[0] += 1;
    eng->schedule_after(0.001, [this, next] { step(next); });
  }
};

Result bench_closure_heavy(std::uint64_t events) {
  Engine eng;
  constexpr int kChains = 16;
  std::vector<HeavyChain> chains(kChains);
  Timer timer;
  for (auto& c : chains) {
    c.eng = &eng;
    c.remaining = events / kChains;
    c.step(Blob{});
  }
  eng.run();
  return finish("closure_heavy", eng.dispatched_events(), timer);
}

// --- coroutine sleep storm ---------------------------------------------------

sim::Process sleeper(Engine& eng, std::uint64_t naps) {
  for (std::uint64_t i = 0; i < naps; ++i) co_await eng.sleep(0.001);
}

Result bench_sleep_storm(std::uint64_t events) {
  Engine eng;
  constexpr int kProcs = 64;
  Timer timer;
  for (int i = 0; i < kProcs; ++i) eng.spawn(sleeper(eng, events / kProcs));
  eng.run();
  return finish("sleep_storm", eng.dispatched_events(), timer);
}

// --- timed-receive storm -----------------------------------------------------

sim::Process timed_ponger(sim::Mailbox<int>& in, sim::Mailbox<int>& out, std::uint64_t rounds,
                          bool starts) {
  if (starts) out.push(0);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    // Generous timeout: every receive is satisfied by a push long before the
    // timer fires, so the armed timeout state is pure overhead to shed.
    auto v = co_await in.recv_for(1000.0);
    if (!v) co_return;  // timeout: broken bench
    out.push(*v + 1);
  }
}

Result bench_timed_recv(std::uint64_t events) {
  Engine eng;
  sim::Mailbox<int> a{eng}, b{eng};
  const std::uint64_t rounds = events / 2;
  Timer timer;
  eng.spawn(timed_ponger(a, b, rounds, true));
  eng.spawn(timed_ponger(b, a, rounds, false));
  eng.run();
  return finish("timed_recv", eng.dispatched_events(), timer);
}

// --- timer-slot churn --------------------------------------------------------

struct SlotChurn {
  Engine* eng;
  std::uint64_t remaining = 0;
  int slot = -1;
  void fire() {
    if (remaining == 0) return;
    --remaining;
    eng->arm_timer_slot(slot, 0.002);  // superseded shadow arm
    eng->arm_timer_slot(slot, 0.001);  // the one that fires
  }
};

Result bench_slot_churn(std::uint64_t events) {
  Engine eng;
  constexpr int kSlots = 8;
  std::vector<SlotChurn> churners(kSlots);
  Timer timer;
  for (auto& c : churners) {
    c.eng = &eng;
    c.remaining = events / (2 * kSlots);
    c.slot = eng.create_timer_slot([&c] { c.fire(); });
    c.fire();
  }
  eng.run();
  for (auto& c : churners) eng.destroy_timer_slot(c.slot);
  return finish("slot_churn", eng.dispatched_events(), timer);
}

// --- cancellable guard timers ------------------------------------------------

struct CancellableStorm {
  Engine* eng;
  std::uint64_t remaining = 0;
  std::uint64_t armed = 0;
  void step() {
    if (remaining == 0) return;
    // A batch of guard timers cancelled before their fire time — the RPC
    // timeout pattern: arm, get the reply, cancel.
    constexpr std::uint64_t kBatch = 8;
    const std::uint64_t n = remaining < kBatch ? remaining : kBatch;
    remaining -= n;
    armed += n;
    for (std::uint64_t i = 0; i < n; ++i) {
      sim::TimerHandle h = eng->schedule_cancellable(100.0, [] {});
      h.cancel();
    }
    eng->schedule_after(0.001, [this] { step(); });
  }
};

Result bench_cancellable(std::uint64_t events) {
  Engine eng;
  CancellableStorm storm{&eng, events};
  Timer timer;
  storm.step();
  eng.run();
  // Count the armed guards as the work metric: the cancelled events are what
  // this workload exists to price.
  return finish("cancellable", storm.armed + eng.dispatched_events(), timer);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = bench::out_path(argc, argv, "BENCH_engine.json");
  if (out_path == nullptr) return 2;
  const bool quick = env_flag("PDC_QUICK");
  const std::uint64_t events = quick ? 100'000 : 4'000'000;

  std::vector<Result> results;
  results.push_back(bench_closure_light(events));
  results.push_back(bench_closure_heavy(events));
  results.push_back(bench_sleep_storm(events));
  results.push_back(bench_timed_recv(events));
  results.push_back(bench_slot_churn(events));
  results.push_back(bench_cancellable(events));

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "engine_events_per_sec");
  w.kv("nproc", bench::nproc());
  w.kv("quick", quick);
  w.kv("events_per_workload", events);
  w.key("workloads").begin_array();
  for (const Result& r : results) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("events", r.events);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("events_per_sec", r.events_per_sec);
    w.end_object();
    std::printf("%-14s %10llu events  %8.3f s  %12.0f ev/s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.wall_seconds,
                r.events_per_sec);
    std::fflush(stdout);
  }
  w.end_array();
  w.end_object();
  return bench::write_json(out_path, w) ? 0 : 1;
}
