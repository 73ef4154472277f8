// Scale trajectory microbench for the dense overlay: deployment memory and
// event-kernel throughput as the peer population grows by orders of
// magnitude. The claim under test is the PR's scale contract — idle peers
// are O(1) bytes (lazy passive registration: no actor, no mailboxes, no
// idle events) and a fixed-size computation's event throughput does not
// degrade with the size of the platform it runs on.
//
// Per peer count (10^2..10^5; PDC_QUICK stops at 10^4):
//  * deploy a scale-free (Barabasi-Albert) platform with `boot lazy` and 8
//    spread trackers, measuring live heap bytes before/after (counting
//    global operator new/delete, malloc_usable_size both ways) — the
//    bytes/peer column, platform nodes and links included;
//  * run one fixed 16-rank ring computation (compute + send + recv +
//    allreduce iterations) and measure engine events dispatched per
//    wall-clock second over the run window.
//
// Sizes are measured interleaved (rep-outer, size-inner, like
// BENCH_engine) and the best rate per size is kept; bytes are taken from
// the first rep — deployment is deterministic. Emits BENCH_scale.json
// (argv[1] redirects) and exits 1 when any row exceeds the 1500 B/peer
// budget; the bench_micro_scale_budget ctest entry runs it under PDC_QUICK.
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "p2pdc/environment.hpp"
#include "scenario/runner.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace {
// Live heap bytes through the replaceable global operator new/delete.
// malloc_usable_size on both sides keeps the accounting symmetric without
// needing sized deallocation everywhere.
std::uint64_t g_live_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n)) {
    g_live_bytes += malloc_usable_size(p);
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n);
  if (p) g_live_bytes += malloc_usable_size(p);
  return p;
}
void* operator new(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    g_live_bytes += malloc_usable_size(p);
    return p;
  }
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= malloc_usable_size(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }

namespace {

using namespace pdc;

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
};

constexpr int kRanks = 16;
constexpr int kIterations = 8;
// Live heap bytes per booted peer stay under this at every size
// (BENCH_scale.json shows ~1060 B/peer at 100 peers falling to ~560 B/peer
// at 10^5; the budget has slack for allocator skew).
constexpr double kBudgetBytesPerPeer = 1500;

struct Row {
  int peers = 0;
  int hosts = 0;
  std::uint64_t deploy_bytes = 0;
  double bytes_per_peer = 0;
  double boot_seconds = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
};

/// The fixed workload replayed on every platform size: a synchronous ring
/// with a residual-style allreduce, sized so the event stream is dominated
/// by the computation, not the boot.
sim::Task<void> ring_main(p2pdc::PeerContext& ctx) {
  const int np = ctx.nprocs();
  for (int i = 0; i < kIterations; ++i) {
    co_await ctx.compute(0.01);
    co_await ctx.send((ctx.rank() + 1) % np, 1, 1024.0);
    (void)co_await ctx.recv((ctx.rank() + np - 1) % np, 1);
    (void)co_await ctx.allreduce_max(static_cast<double>(i));
  }
  ctx.set_result({static_cast<double>(ctx.rank())});
}

Row measure(int peers) {
  scenario::PlatformSpec plat = scenario::PlatformSpec::scale_free();
  scenario::RunSpec run;
  run.peers = peers;
  run.lazy_boot = true;
  run.trackers = 8;
  run.seed = 42;

  Row row;
  row.peers = peers;
  const std::uint64_t before = g_live_bytes;
  Timer boot_timer;
  std::unique_ptr<scenario::Deployment> d = scenario::deploy(plat, run);
  row.boot_seconds = boot_timer.seconds();
  row.hosts = d->platform.host_count();
  row.deploy_bytes = g_live_bytes - before;
  row.bytes_per_peer = static_cast<double>(row.deploy_bytes) / peers;

  p2pdc::TaskSpec spec;
  spec.name = "scale_ring";
  spec.peers_needed = kRanks;
  spec.subtask_bytes = 4096;
  spec.result_bytes = 1024;
  const std::uint64_t events_before = d->engine.stats().events_dispatched;
  Timer run_timer;
  const p2pdc::ComputationResult res =
      d->env->run_computation(d->submitter, spec, ring_main);
  row.wall_seconds = run_timer.seconds();
  if (!res.ok) {
    std::fprintf(stderr, "scale ring failed at %d peers: %s\n", peers,
                 res.failure.c_str());
    std::exit(1);
  }
  row.events = d->engine.stats().events_dispatched - events_before;
  row.events_per_sec =
      row.wall_seconds > 0 ? static_cast<double>(row.events) / row.wall_seconds : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdc;
  const char* out_path = bench::out_path(argc, argv, "BENCH_scale.json");
  if (out_path == nullptr) return 2;
  const bool quick = env_flag("PDC_QUICK");
  std::vector<int> sizes{100, 1'000, 10'000};
  if (!quick) sizes.push_back(100'000);
  const int reps = quick ? 1 : 3;

  std::vector<Row> rows(sizes.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const Row r = measure(sizes[i]);
      if (rep == 0 || r.events_per_sec > rows[i].events_per_sec) {
        const Row first = rows[i];
        rows[i] = r;
        if (rep > 0) {  // bytes/boot stay from the deterministic first rep
          rows[i].deploy_bytes = first.deploy_bytes;
          rows[i].bytes_per_peer = first.bytes_per_peer;
          rows[i].boot_seconds = first.boot_seconds;
        }
      }
    }
  }

  bool over_budget = false;
  JsonWriter w;
  w.begin_object();
  w.kv("bench", "scale_bytes_and_events");
  w.kv("nproc", bench::nproc());
  w.kv("quick", quick);
  w.kv("reps", reps);
  w.kv("ranks", kRanks);
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.kv("peers", r.peers);
    w.kv("hosts", r.hosts);
    w.kv("deploy_bytes", r.deploy_bytes);
    w.kv("bytes_per_peer", r.bytes_per_peer);
    w.kv("boot_seconds", r.boot_seconds);
    w.kv("events", r.events);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("events_per_sec", r.events_per_sec);
    w.end_object();
    std::printf("%7d peers  %9.1f B/peer  boot %6.3f s  %10llu events  %12.0f ev/s\n",
                r.peers, r.bytes_per_peer, r.boot_seconds,
                static_cast<unsigned long long>(r.events), r.events_per_sec);
    std::fflush(stdout);
    if (r.bytes_per_peer > kBudgetBytesPerPeer) {
      std::fprintf(stderr, "FAIL: %d peers at %.1f bytes/peer exceeds budget %.1f\n",
                   r.peers, r.bytes_per_peer, kBudgetBytesPerPeer);
      over_budget = true;
    }
  }
  w.end_array();
  w.end_object();

  return bench::write_json(out_path, w) && !over_budget ? 0 : 1;
}
