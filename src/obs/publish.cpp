#include "obs/publish.hpp"

#include <cstdint>

#include "net/flow.hpp"
#include "net/platform.hpp"
#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "sim/engine.hpp"
#include "support/memo.hpp"

namespace pdc::obs {

namespace {

std::uint64_t u(std::uint64_t v) { return v; }  // size_t lands here on LP64
std::uint64_t u(int v) { return static_cast<std::uint64_t>(v); }

}  // namespace

void publish_flownet(Registry& reg, const net::FlowNetStats& s) {
  reg.counter("flownet", "flows_started", "flows opened").set(s.flows_started);
  reg.counter("flownet", "flows_completed", "flows drained").set(s.flows_completed);
  reg.counter("flownet", "bytes_completed", "payload bytes delivered")
      .set(s.bytes_completed);
  reg.counter("flownet", "reshares", "bandwidth re-solves").set(s.reshares);
  reg.counter("flownet", "reshares_partial", "re-solves touching a strict subset")
      .set(s.reshares_partial);
  reg.counter("flownet", "flows_rescanned", "flow rate recomputations")
      .set(s.flows_rescanned);
  reg.counter("flownet", "flows_starved", "flows stuck at rate 0")
      .set(s.flows_starved);
  reg.counter("flownet", "link_rescales", "capacity changes applied")
      .set(s.link_rescales);
  // Class-solver compression observability — appended after the historical
  // fields so pre-existing records/goldens change only additively.
  reg.gauge("flownet", "classes_active", "peak concurrent flow classes")
      .set(s.classes_active);
  reg.counter("flownet", "class_merges", "flows joining an existing class")
      .set(s.class_merges);
  reg.counter("flownet", "class_splits", "flows reclassified mid-transfer")
      .set(s.class_splits);
}

void publish_routes(Registry& reg, const net::RouteStats& s) {
  reg.counter("routes", "routes_computed", "shortest paths solved")
      .set(s.routes_computed);
  reg.counter("routes", "cache_hits", "route cache hits").set(s.cache_hits);
  reg.counter("routes", "cache_evictions", "route cache evictions")
      .set(s.cache_evictions);
  reg.gauge("routes", "cache_entries", "resident cached routes").set(s.cache_entries);
}

void publish_engine(Registry& reg, const sim::EngineStats& s) {
  reg.counter("engine", "events_dispatched", "events dispatched")
      .set(s.events_dispatched);
  reg.counter("engine", "closures_inline", "closures within the inline buffer")
      .set(s.closures_inline);
  reg.counter("engine", "closures_heap", "closures spilled to the heap")
      .set(s.closures_heap);
  reg.counter("engine", "resumes", "raw coroutine resumes").set(s.resumes);
  reg.counter("engine", "slot_arms", "timer-slot arms").set(s.slot_arms);
  reg.counter("engine", "stale_slot_events", "superseded slot events shed")
      .set(s.stale_slot_events);
  reg.gauge("engine", "peak_queue_depth", "max pending events")
      .set(s.peak_queue_depth);
}

void publish_churn(Registry& reg, const scenario::ChurnPhaseRecord& c) {
  reg.counter("churn", "events_applied", "churn events applied")
      .set(u(c.stats.events_applied));
  reg.counter("churn", "events_skipped", "churn events without a viable target")
      .set(u(c.stats.events_skipped));
  reg.counter("churn", "peer_crashes", "peers crashed").set(u(c.stats.peer_crashes));
  reg.counter("churn", "peer_joins", "replacement peers joined")
      .set(u(c.stats.peer_joins));
  reg.counter("churn", "tracker_crashes", "trackers crashed")
      .set(u(c.stats.tracker_crashes));
  reg.counter("churn", "link_degrades", "links degraded")
      .set(u(c.stats.link_degrades));
  reg.counter("churn", "link_restores", "links restored")
      .set(u(c.stats.link_restores));
  reg.counter("churn", "attempts", "submissions used").set(u(c.attempts));
  reg.counter("churn", "reallocations", "re-submissions after aborts")
      .set(u(c.reallocations()));
  reg.counter("churn", "rejoins", "peer zone failovers").set(u(c.rejoins));
}

void publish_memos(Registry& reg, const scenario::MemoStats& s) {
  reg.gauge("memos", "cost_profiles", "memoized cost profiles")
      .set(u(s.cost_profiles));
  reg.gauge("memos", "cost_profile_bytes", "cost profile footprint")
      .set(u(s.cost_profile_bytes));
  reg.gauge("memos", "trace_sets", "memoized dPerf trace sets").set(u(s.trace_sets));
  reg.gauge("memos", "trace_bytes", "dPerf trace footprint").set(u(s.trace_bytes));
}

void publish_cache(Registry& reg, const support::MemoStats& s) {
  reg.counter("cache", "hits", "memo cache hits").set(s.hits);
  reg.counter("cache", "misses", "memo cache misses").set(s.misses);
  reg.counter("cache", "evictions", "memo cache evictions").set(s.evictions);
  reg.counter("cache", "insertions", "memo cache insertions").set(s.insertions);
  reg.gauge("cache", "entries", "resident cached answers").set(u(s.entries));
  reg.gauge("cache", "bytes", "cached answer bytes").set(u(s.bytes));
  reg.gauge("cache", "budget_bytes", "cache byte budget").set(u(s.budget_bytes));
}

}  // namespace pdc::obs
