// Reshare-throughput microbench for the flow engine, seeding the perf
// trajectory: with N long-lived flows holding the network, how many
// start/complete reshares per wall-clock second can each engine sustain?
//
// Three topologies bracket the design space:
//  * pairs    — disjoint host pairs on private links: many independent
//    sharing components, the incremental engine's O(affected) best case;
//  * star     — random all-to-all over 64 hosts through one backbone: a
//    single giant component whose flows have ~O(flows) distinct contention
//    profiles, so class compression is structurally impossible and the
//    bench isolates the per-class constant factor;
//  * backbone — disjoint host pairs routed through one shared trunk: a
//    single giant component that collapses into O(1) flow classes, the
//    class solver's payoff case (and the shape of the paper's platforms).
//
// Emits BENCH_flownet.json (pass a path as argv[1] to redirect). Reference
// mode is skipped above 1000 flows (100 under PDC_QUICK): the point of the
// exercise is that the full recompute is unusable at that scale.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "net/builders.hpp"
#include "net/flow.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc;
using net::FlowNet;
using net::Platform;

struct Result {
  std::string topology;
  int flows = 0;
  const char* mode = "";
  std::uint64_t churn_reshares = 0;
  double wall_seconds = 0;
  double reshares_per_sec = 0;
  std::uint64_t reshares_partial = 0;
  std::uint64_t flows_rescanned = 0;
  std::uint64_t classes_active = 0;
  std::uint64_t class_merges = 0;
  std::uint64_t class_splits = 0;
};

Platform build_pairs(int pairs) {
  Platform p;
  for (int i = 0; i < 2 * pairs; ++i)
    p.add_host("h" + std::to_string(i), 1e9,
               Ipv4{10, static_cast<std::uint8_t>(i / 62500),
                    static_cast<std::uint8_t>(i / 250 % 250), static_cast<std::uint8_t>(i % 250 + 1)});
  for (int i = 0; i < pairs; ++i) {
    const auto l = p.add_link("l" + std::to_string(i), 1e6, 0);
    p.connect(p.host(2 * i), p.host(2 * i + 1), l);
  }
  return p;
}

/// Loads the network with `flows` never-completing base flows, then replays
/// `churn` short flows (each one start + one completion reshare) and times
/// that churn window.
Result run_case(const std::string& topology, const Platform& plat, int flows, int churn,
                FlowNet::Mode mode) {
  sim::Engine eng;
  FlowNet netw{eng, plat, mode};
  Rng rng{42};
  const int hosts = plat.host_count();
  auto pick_pair = [&](int& s, int& d) {
    if (topology == "pairs" || topology == "backbone") {
      const int pair = static_cast<int>(rng.uniform_int(0, hosts / 2 - 1));
      s = 2 * pair;
      d = 2 * pair + 1;
    } else {
      s = static_cast<int>(rng.uniform_int(0, hosts - 1));
      d = static_cast<int>(rng.uniform_int(0, hosts - 1));
      if (d == s) d = (d + 1) % hosts;
    }
  };
  for (int i = 0; i < flows; ++i) {
    int s, d;
    if (topology == "backbone") {
      // One base flow per disjoint pair: every NIC keeps a single member, so
      // the whole population shares one route signature (one class).
      const int pair = i % (hosts / 2);
      s = 2 * pair;
      d = 2 * pair + 1;
    } else {
      pick_pair(s, d);
    }
    netw.start_flow(plat.host(s), plat.host(d), 1e15, [] {});  // outlives the bench
  }
  const Time kGap = 0.05;  // leaves room for each churn flow to drain
  for (int i = 0; i < churn; ++i) {
    int s, d;
    pick_pair(s, d);  // backbone churn lands on a base pair: split + re-merge
    eng.schedule_at(1.0 + kGap * i, [&netw, &plat, s, d] {
      netw.start_flow(plat.host(s), plat.host(d), 16.0, [] {});
    });
  }
  eng.run_until(0.5);  // settle: every base flow reaches its transfer phase
  const net::FlowNetStats before = netw.stats();
  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(1.0 + kGap * (churn + 1));
  const auto t1 = std::chrono::steady_clock::now();
  const net::FlowNetStats& after = netw.stats();

  Result r;
  r.topology = topology;
  r.flows = flows;
  r.mode = mode == FlowNet::Mode::Incremental ? "incremental" : "reference";
  r.churn_reshares = after.reshares - before.reshares;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.reshares_per_sec =
      r.wall_seconds > 0 ? static_cast<double>(r.churn_reshares) / r.wall_seconds : 0;
  r.reshares_partial = after.reshares_partial - before.reshares_partial;
  r.flows_rescanned = after.flows_rescanned - before.flows_rescanned;
  r.classes_active = after.classes_active;  // peak gauge, not a delta
  r.class_merges = after.class_merges - before.class_merges;
  r.class_splits = after.class_splits - before.class_splits;
  std::printf(
      "%-8s  %5d flows  %-11s  %6llu reshares  %8.3f ms  %12.0f reshares/s  %5llu classes\n",
      topology.c_str(), flows, r.mode, static_cast<unsigned long long>(r.churn_reshares),
      r.wall_seconds * 1e3, r.reshares_per_sec,
      static_cast<unsigned long long>(r.classes_active));
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = pdc::bench::out_path(argc, argv, "BENCH_flownet.json");
  if (out_path == nullptr) return 2;
  const int ref_cap = pdc::env_flag("PDC_QUICK") ? 100 : 1000;

  const int kFlowCounts[] = {10, 100, 1000, 10000};
  std::vector<Result> results;
  for (const char* topology : {"pairs", "star", "backbone"}) {
    for (const int flows : kFlowCounts) {
      const std::string topo{topology};
      const Platform plat =
          topo == "pairs" ? build_pairs(std::max(2, flows / 8))
          : topo == "star"
              ? net::build_star(net::lan_spec(64))
              : net::build_star(net::lan_spec(std::max(4, 2 * flows)));
      const int churn = flows >= 10000 ? 50 : 200;
      results.push_back(run_case(topo, plat, flows, churn, FlowNet::Mode::Incremental));
      if (flows <= ref_cap)
        results.push_back(run_case(topo, plat, flows, churn, FlowNet::Mode::Reference));
    }
  }

  // One row per case plus the incremental-over-reference speedup at matched
  // (topology, flows), emitted through the shared support JSON writer like
  // every other BENCH_*.json / RunRecord file.
  pdc::JsonWriter w;
  w.begin_object();
  w.kv("bench", "flownet_reshare_throughput");
  w.kv("nproc", pdc::bench::nproc());
  w.key("results").begin_array();
  for (const Result& r : results) {
    w.begin_object();
    w.kv("topology", r.topology);
    w.kv("flows", r.flows);
    w.kv("mode", r.mode);
    w.kv("churn_reshares", r.churn_reshares);
    w.kv("wall_seconds", r.wall_seconds);
    w.kv("reshares_per_sec", r.reshares_per_sec);
    w.kv("reshares_partial", r.reshares_partial);
    w.kv("flows_rescanned", r.flows_rescanned);
    w.kv("classes_active", r.classes_active);
    w.kv("class_merges", r.class_merges);
    w.kv("class_splits", r.class_splits);
    w.end_object();
  }
  w.end_array();
  w.key("speedup_incremental_over_reference").begin_object();
  for (const Result& inc : results) {
    if (std::strcmp(inc.mode, "incremental") != 0) continue;
    for (const Result& ref : results) {
      if (std::strcmp(ref.mode, "reference") != 0 || ref.topology != inc.topology ||
          ref.flows != inc.flows || ref.reshares_per_sec <= 0)
        continue;
      w.kv(inc.topology + "_" + std::to_string(inc.flows),
           inc.reshares_per_sec / ref.reshares_per_sec);
    }
  }
  w.end_object();
  w.end_object();

  return pdc::bench::write_json(out_path, w) ? 0 : 1;
}
