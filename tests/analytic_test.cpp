// Differential tests for the analytic planner (ROADMAP "Analytic prediction
// contract"): the no-replay critical-path plan must track the discrete-event
// trace replay the way the incremental FlowNet tracks Mode::Reference — same
// inputs, independent implementations, bounded disagreement.
#include "dperf/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "dperf/summary.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

RunSpec smoke_run(int peers) {
  RunSpec run;
  run.peers = peers;
  run.grid_n = 66;
  run.iters = 24;
  run.rcheck = 4;
  run.bench_n = 34;
  run.bench_iters = 6;
  run.bench_rcheck = 3;
  return run;
}

RunRecord both_analytic(PlatformSpec platform, ir::OptLevel level,
                        const char* name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.platform = std::move(platform);
  spec.run = smoke_run(4);
  spec.run.level = level;
  spec.run.mode = Mode::BothAnalytic;
  return Runner{spec}.run();
}

// The ISSUE gate: analytic solve time within 10% relative error of replay on
// the three paper platforms (fig. 9/10/11 scenarios at smoke sizing).
TEST(Analytic, TracksReplayOnGrid5000) {
  const RunRecord rec = both_analytic(PlatformSpec::grid5000(), ir::OptLevel::O3,
                                      "analytic-grid5000");
  ASSERT_TRUE(rec.predicted.has_value());
  ASSERT_TRUE(rec.analytic.has_value());
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

TEST(Analytic, TracksReplayOnLan) {
  const RunRecord rec =
      both_analytic(PlatformSpec::lan(), ir::OptLevel::O0, "analytic-lan");
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

TEST(Analytic, TracksReplayOnXdsl) {
  const RunRecord rec =
      both_analytic(PlatformSpec::xdsl(), ir::OptLevel::O0, "analytic-xdsl");
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10)
      << "predicted " << rec.predicted->solve_seconds << " vs analytic "
      << rec.analytic->solve_seconds;
}

// Every protocol variant must plan without deadlocking and stay within the
// bound: the async scheme exercises the latest-value receive model, flat
// allocation the sequential submitter fan-out.
TEST(Analytic, TracksReplayAsyncScheme) {
  ScenarioSpec spec;
  spec.name = "analytic-async";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.scheme = p2psap::Scheme::Asynchronous;
  spec.run.mode = Mode::BothAnalytic;
  const RunRecord rec = Runner{spec}.run();
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10);
}

TEST(Analytic, TracksReplayFlatAllocation) {
  ScenarioSpec spec;
  spec.name = "analytic-flat";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.allocation = p2pdc::AllocationMode::Flat;
  spec.run.mode = Mode::BothAnalytic;
  const RunRecord rec = Runner{spec}.run();
  ASSERT_TRUE(rec.analytic_error.has_value());
  EXPECT_LT(*rec.analytic_error, 0.10);
}

// Mode::Analytic alone runs no replay at all: the record has an analytic
// phase, no predicted/reference phases, and no error metric.
TEST(Analytic, AnalyticOnlyModeSkipsReplay) {
  ScenarioSpec spec;
  spec.name = "analytic-only";
  spec.platform = PlatformSpec::grid5000();
  spec.run = smoke_run(4);
  spec.run.mode = Mode::Analytic;
  const RunRecord rec = Runner{spec}.run();
  EXPECT_FALSE(rec.reference.has_value());
  EXPECT_FALSE(rec.predicted.has_value());
  ASSERT_TRUE(rec.analytic.has_value());
  EXPECT_FALSE(rec.analytic_error.has_value());
  EXPECT_GT(rec.analytic->solve_seconds, 0);
  EXPECT_GT(rec.analytic->total_seconds, rec.analytic->solve_seconds);
  // Planner milestones read through the usual ComputationResult accessors.
  EXPECT_GT(rec.analytic->computation.collection_time(), 0);
  EXPECT_GT(rec.analytic->computation.allocation_time(), 0);
  // The plan costs no replay: the analytic phase dispatches no engine event
  // and starts no flow.
  EXPECT_EQ(rec.analytic->engine.events_dispatched, 0u);
  EXPECT_EQ(rec.analytic->net.flows_started, 0u);
}

TEST(Analytic, RecordJsonRoundTrips) {
  const RunRecord rec = both_analytic(PlatformSpec::grid5000(), ir::OptLevel::O3,
                                      "analytic-json");
  const JsonValue doc = parse_json(rec.to_json());
  EXPECT_EQ(doc.at("run").at("mode").as_string(), "both-analytic");
  ASSERT_TRUE(doc.has("analytic"));
  EXPECT_NEAR(doc.at("analytic").at("solve_seconds").as_double(),
              rec.analytic->solve_seconds, 1e-12);
  EXPECT_NEAR(doc.at("analytic_error").as_double(), *rec.analytic_error, 1e-12);
  EXPECT_FALSE(doc.has("reference"));
}

// Specs that do not use the new modes must render byte-identically to what
// they rendered before the enum grew: canonical text is the campaign resume
// key and the serve memo key, so any drift would orphan existing records.
TEST(Analytic, PreAnalyticSpecRenderUnchanged) {
  ScenarioSpec spec;
  spec.name = "stability";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.mode = Mode::Both;
  const std::string text = render_scenario(spec);
  EXPECT_NE(text.find("mode both\n"), std::string::npos);
  EXPECT_EQ(text.find("analytic"), std::string::npos);
  // Round-trip through the parser preserves the mode.
  const ScenarioSpec back = parse_scenario(text, RunSpec{});
  EXPECT_EQ(back.run.mode, Mode::Both);
  EXPECT_EQ(render_scenario(back), text);
}

TEST(Analytic, NewModesParseAndRender) {
  for (const Mode m : {Mode::Analytic, Mode::BothAnalytic}) {
    ScenarioSpec spec;
    spec.name = "modes";
    spec.platform = PlatformSpec::lan();
    spec.run.mode = m;
    const std::string text = render_scenario(spec);
    const ScenarioSpec back = parse_scenario(text, RunSpec{});
    EXPECT_EQ(back.run.mode, m) << mode_name(m);
  }
}

// plan_on fails soft (ok = false, message) instead of throwing.
TEST(Analytic, PlannerFailsSoftOnMismatchedTraces) {
  auto d = deploy(PlatformSpec::lan(), smoke_run(4));
  dperf::Trace a;
  a.rank = 0;
  a.nprocs = 2;
  a.events.push_back({dperf::TraceEvent::Kind::Allreduce});
  dperf::Trace b = a;
  b.rank = 1;
  b.events.clear();  // rank 1 never reaches the collective
  p2pdc::TaskSpec spec;
  spec.peers_needed = 2;
  const dperf::AnalyticReport rep =
      dperf::plan_on(*d->env, d->submitter, spec, {a, b}, d->workers);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.failure.find("collective"), std::string::npos) << rep.failure;
}

TEST(Analytic, PlannerFailsSoftOnTooFewWorkers) {
  auto d = deploy(PlatformSpec::lan(), smoke_run(2));
  std::vector<dperf::Trace> traces(4);
  for (int r = 0; r < 4; ++r) {
    traces[static_cast<std::size_t>(r)].rank = r;
    traces[static_cast<std::size_t>(r)].nprocs = 4;
  }
  p2pdc::TaskSpec spec;
  spec.peers_needed = 4;
  const dperf::AnalyticReport rep =
      dperf::plan_on(*d->env, d->submitter, spec, traces, d->workers);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.failure.find("peers"), std::string::npos) << rep.failure;
}

// run_analytic plans the traces it is given. The Runner's own phases plan
// the workload's memoized trace set, but a caller's trace set must neither
// be ignored in favour of that memo nor end up in it.
TEST(Analytic, RunAnalyticPlansTheGivenTraces) {
  const auto slowed = [](std::vector<dperf::Trace> traces) {
    for (dperf::Trace& t : traces)
      for (dperf::TraceEvent& e : t.events)
        if (e.kind == dperf::TraceEvent::Kind::Compute) e.ns *= 2;
    return traces;
  };
  ScenarioSpec spec;
  spec.name = "analytic-given-traces";
  spec.platform = PlatformSpec::lan();
  spec.run = smoke_run(4);
  spec.run.mode = Mode::Analytic;

  // Planned through run() first: the memo holds this workload's traces.
  const Runner planned{spec};
  const RunRecord rec = planned.run();
  ASSERT_TRUE(rec.analytic.has_value()) << rec.error;
  EXPECT_EQ(planned.run_analytic(planned.traces()).solve_seconds,
            rec.analytic->solve_seconds);
  EXPECT_GT(planned.run_analytic(slowed(planned.traces())).solve_seconds,
            rec.analytic->solve_seconds);

  // A caller's traces first, on a workload no run has planned yet.
  spec.run.iters = 28;
  const Runner fresh{spec};
  const double slow = fresh.run_analytic(slowed(fresh.traces())).solve_seconds;
  const RunRecord after = fresh.run();
  ASSERT_TRUE(after.analytic.has_value()) << after.error;
  EXPECT_LT(after.analytic->solve_seconds, slow);
  EXPECT_EQ(after.analytic->solve_seconds,
            fresh.run_analytic(fresh.traces()).solve_seconds);
}

// The summary layer on its own: the steady body is the first of the
// longest runs of identical consecutive iteration bodies (markers stripped,
// the last body running to the end of the trace).
using K = dperf::TraceEvent::Kind;

/// A trace whose iteration bodies are `bodies`: each body is one compute
/// of the given ns followed by one send to each listed peer.
dperf::Trace trace_of(const std::vector<std::pair<std::uint64_t, std::vector<int>>>& bodies) {
  dperf::Trace t;
  t.nprocs = 8;
  t.events.push_back({K::Compute, 500});  // pre-loop setup
  long long id = 0;
  for (const auto& [ns, peers] : bodies) {
    dperf::TraceEvent mark{K::IterMark};
    mark.iter_id = id++;  // marker ids differ per iteration; bodies still match
    t.events.push_back(mark);
    t.events.push_back({K::Compute, ns});
    for (const int peer : peers) {
      dperf::TraceEvent send{K::Send};
      send.peer = peer;
      send.bytes = 64;
      t.events.push_back(send);
    }
  }
  return t;
}

TEST(TraceSummary, SteadyBodyIsTheLongestRun) {
  // Bodies A, B, B, C: the run of two B's wins.
  const dperf::TraceSummary s =
      dperf::summarize_trace(trace_of({{10, {1}}, {20, {2, 3}}, {20, {2, 3}}, {30, {4}}}));
  EXPECT_EQ(s.steady_sends, (std::vector<int>{2, 3}));
}

TEST(TraceSummary, AllDistinctBodiesPickTheFirst) {
  const dperf::TraceSummary s =
      dperf::summarize_trace(trace_of({{10, {1}}, {11, {2}}, {12, {3}}}));
  EXPECT_EQ(s.steady_sends, (std::vector<int>{1}));
}

TEST(TraceSummary, TiePicksTheEarlierRun) {
  const dperf::TraceSummary s = dperf::summarize_trace(
      trace_of({{10, {1}}, {20, {2}}, {20, {2}}, {30, {3}}, {30, {3}}}));
  EXPECT_EQ(s.steady_sends, (std::vector<int>{2}));
}

TEST(TraceSummary, PostLoopEventsBelongToTheLastBody) {
  dperf::TraceEvent post{K::Send};
  post.peer = 5;
  // Bodies B, A, A + post-loop send: the trailing send breaks the run of
  // A's, so every body is distinct and the first one wins.
  dperf::Trace t = trace_of({{20, {2}}, {10, {1}}, {10, {1}}});
  t.events.push_back(post);
  t.events.push_back({K::Allreduce});
  dperf::TraceSummary s = dperf::summarize_trace(t);
  EXPECT_EQ(s.steady_sends, (std::vector<int>{2}));
  EXPECT_EQ(s.collectives, 1u);
  // A single body carries the post-loop send.
  t = trace_of({{10, {1}}});
  t.events.push_back(post);
  s = dperf::summarize_trace(t);
  EXPECT_EQ(s.steady_sends, (std::vector<int>{1, 5}));
}

TEST(TraceSummary, MarkerFreeTraceHasNoSteadySends) {
  dperf::Trace t;
  t.nprocs = 2;
  dperf::TraceEvent send{K::Send};
  send.peer = 1;
  t.events.push_back(send);
  t.events.push_back({K::Allreduce});
  const dperf::TraceSummary s = dperf::summarize_trace(t);
  EXPECT_TRUE(s.steady_sends.empty());
  EXPECT_EQ(s.collectives, 1u);
}

}  // namespace
}  // namespace pdc::scenario
