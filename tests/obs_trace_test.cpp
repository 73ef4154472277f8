// obs::TraceRecorder and the Runner trace plumbing: the emitted document is
// valid Chrome trace-event JSON (sync spans nest, per-track timestamps are
// monotone), a tiny deterministic scenario reproduces its committed golden
// byte for byte (also under concurrency — campaign -j must not change what
// any single run records), tracing leaves the RunRecord untouched, and the
// shipped churn scenario traced through PDC_TRACE_DIR shows its failures.
//
// Regenerate the golden after an intentional format change with:
//   PDC_UPDATE_GOLDEN=1 ./build/tests/obs_trace_test
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "golden_file.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "support/json.hpp"

namespace pdc {
namespace {

/// A tiny deterministic churny scenario: every instrumented subsystem fires
/// (flows, reserve handshakes, P2PSAP phases, dPerf replay, churn events)
/// within a fraction of a second of wall clock.
scenario::ScenarioSpec tiny_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "obs-tiny";
  spec.platform = scenario::PlatformSpec::lan();
  spec.run.peers = 3;
  spec.run.grid_n = 34;
  spec.run.iters = 12;
  spec.run.rcheck = 4;
  spec.run.bench_n = 34;
  spec.run.bench_iters = 6;
  spec.run.bench_rcheck = 3;
  spec.run.churn.events = {
      {churn::ChurnEvent::Kind::LinkDegrade, 0.5, 0, 0.5},
      {churn::ChurnEvent::Kind::LinkRestore, 1.0, 0, 1.0},
  };
  return spec;
}

std::string run_traced(const std::string& path) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.run.trace_path = path;
  const scenario::RunRecord rec = scenario::Runner{std::move(spec)}.try_run();
  EXPECT_TRUE(rec.ok()) << rec.error;
  const std::string text = read_file(path).value_or("");
  EXPECT_FALSE(text.empty()) << "trace file not written: " << path;
  return text;
}

struct ParsedEvent {
  char ph = 0;
  int pid = -1, tid = -1;
  double ts = 0;
  std::string name, cat, id;
};

std::vector<ParsedEvent> parse_events(const std::string& text) {
  const JsonValue doc = parse_json(text);
  std::vector<ParsedEvent> out;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    ParsedEvent ev;
    ev.ph = e.at("ph").as_string()[0];
    if (ev.ph == 'M') continue;  // metadata carries no timestamp
    ev.pid = static_cast<int>(e.at("pid").as_double());
    ev.tid = static_cast<int>(e.at("tid").as_double());
    ev.ts = e.at("ts").as_double();
    if (e.has("name")) ev.name = e.at("name").as_string();
    if (e.has("cat")) ev.cat = e.at("cat").as_string();
    if (e.has("id")) ev.id = format_shortest(e.at("id").as_double());
    out.push_back(std::move(ev));
  }
  return out;
}

TEST(ObsTrace, RecorderEmitsWellFormedDocument) {
  obs::TraceRecorder tr;
  tr.begin_phase("reference");
  const obs::TrackId run = tr.track("run");
  const obs::TrackId flows = tr.track("flownet");
  tr.span_begin(run, "reference", 0.0, {{"peers", 3}});
  tr.async_begin(flows, "flow", "flow", 7, 0.25, {{"bytes", 1024.0}});
  tr.instant(flows, "rescale", 0.5, {{"link", 2}, {"scale", 0.5}});
  tr.counter(flows, "queue", 0.75, {{"pending", 12}});
  tr.async_end(flows, "flow", "flow", 7, 1.0);
  tr.span_end(run, 2.0);
  tr.begin_phase("predicted");
  const obs::TrackId run2 = tr.track("run");
  tr.span_begin(run2, "predicted", 2.0);
  tr.span_end(run2, 3.0);

  const std::string text = tr.to_json();
  const JsonValue doc = parse_json(text);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");

  // Metadata names both phases (processes) and every track (thread).
  int process_names = 0, thread_names = 0;
  for (const JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M") continue;
    if (e.at("name").as_string() == "process_name") ++process_names;
    if (e.at("name").as_string() == "thread_name") ++thread_names;
  }
  EXPECT_EQ(process_names, 2);
  EXPECT_EQ(thread_names, 3);  // run+flownet in phase 0, run in phase 1

  const std::vector<ParsedEvent> events = parse_events(text);
  ASSERT_EQ(events.size(), 8u);
  // Timestamps are simulated seconds rendered as microseconds.
  EXPECT_EQ(events[0].ts, 0.0);
  EXPECT_EQ(events[1].ts, 250000.0);
  EXPECT_EQ(events.back().ts, 3000000.0);
  // The two phases use distinct pids; tracks restart per phase.
  EXPECT_EQ(events[0].pid, 0);
  EXPECT_EQ(events.back().pid, 1);
}

void check_validity(const std::string& text) {
  const std::vector<ParsedEvent> events = parse_events(text);
  ASSERT_FALSE(events.empty());
  std::map<std::pair<int, int>, int> sync_depth;
  std::map<std::pair<int, int>, double> last_ts;
  std::map<std::pair<std::string, std::string>, int> async_open;  // (cat,id)
  for (const ParsedEvent& e : events) {
    const auto track = std::make_pair(e.pid, e.tid);
    // Timestamps never run backwards within one track.
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second) << e.name;
    }
    last_ts[track] = e.ts;
    switch (e.ph) {
      case 'B': ++sync_depth[track]; break;
      case 'E':
        --sync_depth[track];
        EXPECT_GE(sync_depth[track], 0) << "E without B on track " << e.tid;
        break;
      case 'b': ++async_open[std::make_pair(e.cat, e.id)]; break;
      case 'e': {
        const int open = --async_open[std::make_pair(e.cat, e.id)];
        EXPECT_GE(open, 0) << "async e without b: " << e.cat << "/" << e.id;
        break;
      }
      case 'i':
      case 'C': break;
      default: FAIL() << "unexpected ph '" << e.ph << "'";
    }
  }
  // Every sync span closed. (Async flow spans may stay open: flows starved
  // at teardown never complete.)
  for (const auto& [track, depth] : sync_depth)
    EXPECT_EQ(depth, 0) << "unclosed span on track " << track.second;
}

bool has_event(const std::vector<ParsedEvent>& events, char ph, const std::string& name) {
  for (const ParsedEvent& e : events)
    if (e.ph == ph && e.name == name) return true;
  return false;
}

TEST(ObsTrace, TracedRunIsValidAndCoversSubsystems) {
  const std::string path = "obs_trace_test_run.trace.json";
  const std::string text = run_traced(path);
  std::remove(path.c_str());
  check_validity(text);

  const std::vector<ParsedEvent> events = parse_events(text);
  auto has = [&](char ph, const std::string& name) { return has_event(events, ph, name); };
  EXPECT_TRUE(has('B', "reference"));
  EXPECT_TRUE(has('B', "predicted"));
  EXPECT_TRUE(has('B', "collection"));
  EXPECT_TRUE(has('B', "allocation"));
  EXPECT_TRUE(has('B', "computation"));
  EXPECT_TRUE(has('B', "replay"));
  EXPECT_TRUE(has('b', "flow"));
  EXPECT_TRUE(has('b', "reserve"));
  EXPECT_TRUE(has('i', "degrade-link"));
  EXPECT_TRUE(has('i', "restore-link"));
  EXPECT_TRUE(has('i', "rescale"));
  EXPECT_TRUE(has('C', "queue"));
}

TEST(ObsTrace, GoldenTraceIsByteStable) {
  const std::string path = "obs_trace_test_golden.trace.json";
  const std::string produced = run_traced(path);
  std::remove(path.c_str());
  check_against_golden(produced, "tiny.trace.json");
}

// The thread_local recorder install is what campaign -j relies on: two runs
// tracing concurrently on different threads each produce exactly the bytes a
// solo run produces.
TEST(ObsTrace, ConcurrentTracedRunsDontInterfere) {
  const std::string solo = run_traced("obs_trace_test_solo.trace.json");
  std::remove("obs_trace_test_solo.trace.json");

  std::vector<std::string> texts(2);
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([i, &texts] {
      const std::string path =
          "obs_trace_test_t" + std::to_string(i) + ".trace.json";
      texts[static_cast<std::size_t>(i)] = run_traced(path);
      std::remove(path.c_str());
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(texts[0], solo);
  EXPECT_EQ(texts[1], solo);
}

TEST(ObsTrace, TracingDoesNotChangeTheRunRecord) {
  const scenario::RunRecord plain = scenario::Runner{tiny_spec()}.try_run();
  ASSERT_TRUE(plain.ok()) << plain.error;

  scenario::ScenarioSpec traced_spec = tiny_spec();
  traced_spec.run.trace_path = "obs_trace_test_rec.trace.json";
  const scenario::RunRecord traced =
      scenario::Runner{std::move(traced_spec)}.try_run();
  std::remove("obs_trace_test_rec.trace.json");
  ASSERT_TRUE(traced.ok()) << traced.error;

  // Byte-identical records: the trace knob is not part of the run's identity
  // (the embedded spec text matches too, keeping memo keys and campaign
  // resume unaffected), and instrumentation perturbs no simulation state.
  EXPECT_EQ(traced.to_json(), plain.to_json());
}

TEST(ObsTrace, NoRecorderMeansNoFile) {
  const scenario::RunRecord rec = scenario::Runner{tiny_spec()}.try_run();
  ASSERT_TRUE(rec.ok()) << rec.error;
  EXPECT_FALSE(std::filesystem::exists("obs-tiny.trace.json"));
}

// examples/scenarios/churn_smoke.scn at quick sizing, traced the way its
// README line traces it: PDC_TRACE_DIR names a directory and the file is
// named after the scenario. The document is valid, and the simulated
// failures are instants: crash-tracker from the injector and rejoin from
// the zone failover it forces.
TEST(ObsTrace, ShippedChurnScenarioTracedThroughEnv) {
  scenario::RunSpec quick;
  quick.grid_n = 258;
  quick.iters = 100;
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario(read_example("scenarios/churn_smoke.scn"), quick);
  const std::filesystem::path dir = "obs_trace_test_env";
  std::filesystem::remove_all(dir);
  ::setenv("PDC_TRACE_DIR", dir.c_str(), 1);
  const scenario::RunRecord rec = scenario::Runner{spec}.try_run();
  ::unsetenv("PDC_TRACE_DIR");
  const std::string text = read_file(dir / (spec.name + ".trace.json")).value_or("");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(rec.ok()) << rec.error;
  ASSERT_FALSE(text.empty()) << "PDC_TRACE_DIR run wrote no trace file";
  check_validity(text);
  const std::vector<ParsedEvent> events = parse_events(text);
  EXPECT_TRUE(has_event(events, 'i', "crash-tracker"));
  EXPECT_TRUE(has_event(events, 'i', "rejoin"));
}

}  // namespace
}  // namespace pdc
