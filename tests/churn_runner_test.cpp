// Churn end-to-end: scenarios complete (or record structured errors) under
// scheduled peer/tracker/link faults, both phases replay the identical event
// stream, and a campaign sweeping churn rate is bit-for-bit deterministic
// across -j levels. The shipped churn scenario and churn-rate sweep run at
// quick sizing, as `pdc_scenario --check` and `pdc_campaign --check` would.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/executor.hpp"
#include "expect_json_equal.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

std::string read_example(const std::string& relative) {
  std::ifstream in(std::string(PDC_TEST_DATA_DIR) + "/../examples/" + relative);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The PDC_QUICK sizing the shipped examples are smoke-run at.
RunSpec quick_base() {
  RunSpec run;
  run.grid_n = 258;
  run.iters = 100;
  return run;
}

/// Small-but-real sizing (same as scenario_runner_test): a few seconds of
/// simulated work, well under a second of wall clock.
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

// The deployment warms the overlay for 12 simulated seconds before
// submitting, so t=12.05 lands inside the solve and t<12 inside bootstrap.
constexpr double kWarmup = 12.0;

TEST(ChurnRunner, MidRunPeerCrashReallocatesAndCompletes) {
  RunSpec run = smoke_run(4);
  run.mode = Mode::Both;
  run.churn.max_attempts = 3;
  run.churn.events = {
      {churn::ChurnEvent::Kind::PeerCrash, kWarmup + 0.05, 1, 1.0},
      {churn::ChurnEvent::Kind::PeerJoin, kWarmup + 1.0, -1, 1.0},
  };
  const Runner runner{{"churn-crash", PlatformSpec::lan(), run}};
  const RunRecord rec = runner.run();
  ASSERT_TRUE(rec.reference.has_value());
  ASSERT_TRUE(rec.predicted.has_value());
  ASSERT_TRUE(rec.reference->churn.has_value());
  ASSERT_TRUE(rec.predicted->churn.has_value());
  // The crash aborted the first submission; the replacement peer joined and
  // the re-allocation finished the obstacle computation.
  EXPECT_EQ(rec.reference->churn->attempts, 2);
  EXPECT_EQ(rec.reference->churn->stats.peer_crashes, 1);
  EXPECT_EQ(rec.reference->churn->stats.peer_joins, 1);
  EXPECT_GT(rec.reference->solve_seconds, 0);
  // Identical expanded event stream in the prediction phase.
  EXPECT_EQ(rec.predicted->churn->stats.peer_crashes,
            rec.reference->churn->stats.peer_crashes);
  EXPECT_EQ(rec.predicted->churn->attempts, rec.reference->churn->attempts);
  ASSERT_TRUE(rec.prediction_error.has_value());
  EXPECT_LT(*rec.prediction_error, 0.05);
}

TEST(ChurnRunner, TrackerCrashFailsOverAndIsObserved) {
  RunSpec run = smoke_run(4);
  run.mode = Mode::Reference;
  // Crash the *primary* tracker during bootstrap: its zone peers must
  // re-join the failover trackers before the computation even starts.
  run.churn.events = {{churn::ChurnEvent::Kind::TrackerCrash, 2.0, 0, 1.0}};
  const RunRecord rec = Runner{{"churn-tracker", PlatformSpec::lan(), run}}.run();
  ASSERT_TRUE(rec.reference.has_value());
  ASSERT_TRUE(rec.reference->churn.has_value());
  EXPECT_EQ(rec.reference->churn->stats.tracker_crashes, 1);
  EXPECT_GT(rec.reference->churn->rejoins, 0);
  EXPECT_GT(rec.reference->solve_seconds, 0);
}

TEST(ChurnRunner, ExhaustedAttemptsYieldStructuredErrorRecord) {
  RunSpec run = smoke_run(4);
  run.mode = Mode::Reference;
  run.churn.max_attempts = 1;  // no retry budget
  run.churn.events = {{churn::ChurnEvent::Kind::PeerCrash, kWarmup + 0.05, 1, 1.0}};
  const Runner runner{{"churn-fatal", PlatformSpec::lan(), run}};
  const RunRecord rec = runner.try_run();
  // A churn-induced mid-run failure is a record, not a dead worker.
  EXPECT_FALSE(rec.ok());
  EXPECT_NE(rec.error.find("[reference]"), std::string::npos) << rec.error;
  EXPECT_NE(rec.error.find("crashed"), std::string::npos) << rec.error;
  // The record still parses and carries its identity.
  const JsonValue doc = parse_json(rec.to_json());
  EXPECT_EQ(doc.at("scenario").as_string(), "churn-fatal");
  EXPECT_TRUE(doc.has("error"));
}

TEST(ChurnRunner, RecordJsonCarriesChurnBlock) {
  RunSpec run = smoke_run(3);
  run.mode = Mode::Reference;
  run.churn.events = {
      {churn::ChurnEvent::Kind::LinkDegrade, 1.0, 0, 0.5},
      {churn::ChurnEvent::Kind::LinkRestore, kWarmup + 0.01, 0, 1.0},
  };
  const RunRecord rec = Runner{{"churn-json", PlatformSpec::lan(), run}}.run();
  const JsonValue doc = parse_json(rec.to_json());
  const JsonValue& churn = doc.at("reference").at("churn");
  EXPECT_EQ(churn.at("link_degrades").as_double(), 1.0);
  EXPECT_EQ(churn.at("link_restores").as_double(), 1.0);
  EXPECT_EQ(churn.at("attempts").as_double(), 1.0);
  EXPECT_EQ(doc.at("reference").at("flownet").at("link_rescales").as_double(), 2.0);
  // The canonical spec text embeds the churn block, so campaign resume
  // invalidates records when any churn parameter changes.
  EXPECT_NE(doc.at("spec").as_string().find("churn event degrade"), std::string::npos);
}

// examples/scenarios/churn_smoke.scn at two seeds: the primary tracker
// crash must produce observed zone failovers and the mid-run peer crash a
// re-allocation that still completes, in both phases.
TEST(ChurnSmoke, ShippedScenarioFailsOverAndReallocatesAtTwoSeeds) {
  const std::string text = read_example("scenarios/churn_smoke.scn");
  ASSERT_NE(text.find("\nseed 42\n"), std::string::npos);
  for (const char* seed : {"42", "43"}) {
    SCOPED_TRACE(std::string("seed ") + seed);
    std::string seeded = text;
    seeded.replace(seeded.find("\nseed 42\n"), 9, std::string("\nseed ") + seed + "\n");
    const JsonValue doc =
        parse_json(Runner{parse_scenario(seeded, quick_base())}.try_run().to_json());
    ASSERT_FALSE(doc.has("error")) << doc.at("error").as_string();
    for (const char* phase : {"reference", "predicted"}) {
      SCOPED_TRACE(phase);
      const JsonValue& churn = doc.at(phase).at("churn");
      EXPECT_GT(churn.at("rejoins").as_double(), 0);
      EXPECT_GE(churn.at("attempts").as_double(), 2);
      EXPECT_EQ(churn.at("tracker_crashes").as_double(), 1);
    }
  }
}

}  // namespace
}  // namespace pdc::scenario

namespace pdc::campaign {
namespace {

// Acceptance gate for the churn subsystem: a campaign sweeping churn rate
// over >= 3 grid points runs to completion at -j1 and -j4 with field-by-field
// identical records; crashed-peer runs complete or record structured errors.
TEST(ChurnCampaign, ChurnRateSweepIsDeterministicAcrossJobs) {
  CampaignSpec spec;
  spec.name = "churn-det";
  spec.base.name = "churn-det";
  spec.base.platform = scenario::PlatformSpec::lan();
  spec.base.run = scenario::RunSpec{};
  spec.base.run.mode = scenario::Mode::Both;
  spec.base.run.grid_n = 34;
  spec.base.run.iters = 6;
  spec.base.run.bench_n = 18;
  spec.base.run.bench_iters = 3;
  spec.base.run.bench_rcheck = 2;
  spec.base.run.peers = 3;
  spec.base.run.churn.mean_downtime = 4;
  spec.base.run.churn.horizon = 14;  // faults land in bootstrap + early solve
  spec.churn_rates = {0.0, 0.01, 0.05};
  spec.churn_seeds = {1, 2};
  spec.repetitions = 1;  // 3 x 2 = 6 runs

  ExecutorOptions sequential;
  sequential.jobs = 1;
  Executor j1{spec, sequential};
  const CampaignReport r1 = j1.execute();

  ExecutorOptions parallel;
  parallel.jobs = 4;
  Executor j4{spec, parallel};
  const CampaignReport r4 = j4.execute();

  ASSERT_EQ(j1.outcomes().size(), 6u);
  ASSERT_EQ(j4.outcomes().size(), 6u);
  for (std::size_t i = 0; i < j1.outcomes().size(); ++i) {
    const Outcome& a = j1.outcomes()[i];
    const Outcome& b = j4.outcomes()[i];
    ASSERT_EQ(a.run.key, b.run.key);
    // Swept churn axes appear in the key.
    EXPECT_NE(a.run.key.find("-cr"), std::string::npos);
    EXPECT_NE(a.run.key.find("-cs"), std::string::npos);
    // Every run either completed the computation or recorded a structured
    // error; either way the two -j levels agree bit for bit.
    EXPECT_EQ(a.error, b.error) << a.run.key;
    expect_json_equal(parse_json(a.record_json), parse_json(b.record_json), a.run.key);
    EXPECT_EQ(a.record_json, b.record_json) << a.run.key;
  }
  // The churn-free grid points (rate 0) must all have completed.
  for (const Outcome& out : j1.outcomes())
    if (out.run.key.find("-cr0-") != std::string::npos)
      EXPECT_TRUE(out.ok()) << out.run.key << ": " << out.error;
  EXPECT_EQ(r1.points.size(), r4.points.size());
  EXPECT_EQ(r1.points.size(), 6u);
}

// examples/campaigns/churn_sweep.cmp at quick sizing on four workers: 3
// rates x 2 stream seeds, every run executed without error and every
// persisted record valid JSON.
TEST(ChurnSmoke, ShippedChurnSweepRunsSixRunsWithoutErrors) {
  namespace fs = std::filesystem;
  const CampaignSpec spec =
      parse_campaign(scenario::read_example("campaigns/churn_sweep.cmp"), scenario::quick_base());
  const fs::path dir = fs::path("churn_smoke_out");
  fs::remove_all(dir);
  ExecutorOptions opts;
  opts.jobs = 4;
  opts.out_dir = dir.string();
  const CampaignReport report = Executor{spec, opts}.execute();
  EXPECT_EQ(report.total, 6u);
  EXPECT_EQ(report.executed, 6u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(report.errors, 0u);
  std::size_t records = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir / "runs")) {
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NO_THROW(parse_json(text.str())) << entry.path();
    ++records;
  }
  EXPECT_EQ(records, 6u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pdc::campaign
