// Golden-file tests for the serialized record schemas: a canonical
// RunRecord and CampaignReport are committed under tests/golden/, and the
// writers must reproduce them byte for byte — any schema drift becomes a
// reviewed diff instead of a silent break — while the support reader must
// recover every value losslessly. The dPerf front end's own outputs (rank
// traces and block timings) are pinned the same way, as digests, and so
// are the analytic planner's plans.
//
// Regenerate after an intentional schema change with:
//   PDC_UPDATE_GOLDEN=1 ./build/tests/golden_record_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/executor.hpp"
#include "dperf/dperf.hpp"
#include "obstacle/minic_kernel.hpp"
#include "scenario/runner.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace pdc {
namespace {

std::string golden_path(const char* name) {
  return std::string(PDC_TEST_DATA_DIR) + "/golden/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void check_against_golden(const std::string& produced, const char* name) {
  const std::string path = golden_path(name);
  if (env_flag("PDC_UPDATE_GOLDEN")) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    GTEST_SKIP() << "golden updated: " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " (run with PDC_UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(produced, expected) << "serialized " << name
                                << " drifted from the committed golden; if the schema "
                                   "change is intentional, regenerate with "
                                   "PDC_UPDATE_GOLDEN=1 and review the diff";
}

/// A fully populated, hand-fixed RunRecord: no simulation, so the bytes are
/// the same on every machine and toolchain.
scenario::RunRecord canonical_record() {
  scenario::RunRecord rec;
  rec.spec.name = "golden";
  rec.spec.platform = scenario::PlatformSpec::lan();
  rec.spec.run.peers = 4;
  rec.spec.run.level = ir::OptLevel::O2;
  rec.spec.run.mode = scenario::Mode::Both;
  rec.spec.run.seed = 42;
  rec.spec.run.grid_n = 258;
  rec.spec.run.iters = 100;
  rec.spec.run.churn.peer_crash_rate = 0.01;
  rec.spec.run.churn.seed = 7;
  rec.spec.run.churn.events = {
      {churn::ChurnEvent::Kind::TrackerCrash, 2.5, 0, 1.0},
      {churn::ChurnEvent::Kind::LinkDegrade, 12.25, 3, 0.5},
  };
  rec.platform_kind = "star";
  rec.platform_label = "lan";
  rec.platform_hosts = 9;

  scenario::PhaseRecord ref;
  ref.solve_seconds = 12.125;
  ref.total_seconds = 15.5;
  ref.iterations = 100;
  ref.platform_hosts = 9;
  ref.computation.ok = true;
  ref.computation.peers = 4;
  ref.computation.groups = 1;
  ref.computation.t_submit = 12.0;
  ref.computation.t_collected = 12.5;
  ref.computation.t_allocated = 13.0;
  ref.computation.t_finished = 27.5;
  ref.net.flows_started = 640;
  ref.net.flows_completed = 640;
  ref.net.bytes_completed = 1.25e9;
  ref.net.reshares = 1280;
  ref.net.reshares_partial = 512;
  ref.net.flows_rescanned = 4096;
  ref.net.flows_starved = 0;
  ref.net.link_rescales = 2;
  ref.net.classes_active = 12;
  ref.net.class_merges = 628;
  ref.net.class_splits = 4;
  ref.routes.routes_computed = 36;
  ref.routes.cache_hits = 4060;
  ref.routes.cache_evictions = 4;
  ref.routes.cache_entries = 32;
  ref.engine.events_dispatched = 262144;
  ref.engine.closures_inline = 2048;
  ref.engine.closures_heap = 0;
  ref.engine.resumes = 131072;
  ref.engine.slot_arms = 8192;
  ref.engine.stale_slot_events = 4096;
  ref.engine.peak_queue_depth = 96;
  scenario::ChurnPhaseRecord churn_rec;
  churn_rec.stats.events_applied = 3;
  churn_rec.stats.events_skipped = 1;
  churn_rec.stats.peer_crashes = 1;
  churn_rec.stats.peer_joins = 1;
  churn_rec.stats.tracker_crashes = 1;
  churn_rec.stats.link_degrades = 1;
  churn_rec.stats.link_restores = 1;
  churn_rec.attempts = 2;
  churn_rec.rejoins = 3;
  ref.churn = churn_rec;
  rec.reference = ref;

  scenario::PhaseRecord pred = ref;
  pred.iterations = 0;
  pred.solve_seconds = 12.5;
  pred.churn->attempts = 2;
  rec.predicted = pred;
  rec.prediction_error = 0.03125;  // exact in binary: stable text form
  return rec;
}

TEST(GoldenRecord, RunRecordSerializationIsByteStable) {
  check_against_golden(canonical_record().to_json(), "run_record.json");
}

TEST(GoldenRecord, RunRecordReadsBackLosslessly) {
  const scenario::RunRecord rec = canonical_record();
  const JsonValue doc = parse_json(rec.to_json());
  EXPECT_EQ(doc.at("scenario").as_string(), "golden");
  EXPECT_EQ(doc.at("spec").as_string(), scenario::render_scenario(rec.spec));
  EXPECT_EQ(doc.at("platform").at("kind").as_string(), "star");
  EXPECT_EQ(doc.at("platform").at("hosts").as_double(), 9.0);
  EXPECT_EQ(doc.at("run").at("peers").as_double(), 4.0);
  EXPECT_EQ(doc.at("run").at("opt").as_string(), "O2");
  EXPECT_EQ(doc.at("run").at("mode").as_string(), "both");
  EXPECT_EQ(doc.at("run").at("seed").as_double(), 42.0);
  const JsonValue& ref = doc.at("reference");
  EXPECT_EQ(ref.at("solve_seconds").as_double(), 12.125);
  EXPECT_EQ(ref.at("iterations").as_double(), 100.0);
  EXPECT_EQ(ref.at("computation").at("collection_seconds").as_double(), 0.5);
  EXPECT_EQ(ref.at("flownet").at("bytes_completed").as_double(), 1.25e9);
  EXPECT_EQ(ref.at("flownet").at("link_rescales").as_double(), 2.0);
  EXPECT_EQ(ref.at("flownet").at("classes_active").as_double(), 12.0);
  EXPECT_EQ(ref.at("flownet").at("class_merges").as_double(), 628.0);
  EXPECT_EQ(ref.at("flownet").at("class_splits").as_double(), 4.0);
  EXPECT_EQ(ref.at("routes").at("routes_computed").as_double(), 36.0);
  EXPECT_EQ(ref.at("routes").at("cache_hits").as_double(), 4060.0);
  EXPECT_EQ(ref.at("routes").at("cache_evictions").as_double(), 4.0);
  EXPECT_EQ(ref.at("routes").at("cache_entries").as_double(), 32.0);
  EXPECT_EQ(doc.at("run").at("boot").as_string(), "eager");
  EXPECT_EQ(doc.at("run").at("trackers").as_double(), 1.0);
  EXPECT_EQ(doc.at("run").at("ranks").as_double(), 4.0);
  EXPECT_EQ(ref.at("churn").at("attempts").as_double(), 2.0);
  EXPECT_EQ(ref.at("churn").at("reallocations").as_double(), 1.0);
  EXPECT_EQ(ref.at("churn").at("rejoins").as_double(), 3.0);
  EXPECT_FALSE(doc.at("predicted").has("iterations"));
  EXPECT_EQ(doc.at("prediction_error").as_double(), 0.03125);
  // The embedded canonical spec text itself parses back to the same spec.
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario(doc.at("spec").as_string());
  EXPECT_EQ(scenario::render_scenario(spec), doc.at("spec").as_string());
  EXPECT_EQ(spec.run.churn, rec.spec.run.churn);
}

/// A hand-fixed CampaignReport with one aggregated point per metric shape.
campaign::CampaignReport canonical_report() {
  campaign::CampaignReport rep;
  rep.name = "golden-camp";
  rep.jobs = 4;
  rep.total = 6;
  rep.executed = 4;
  rep.skipped = 2;
  rep.errors = 1;
  rep.wall_seconds = 3.5;
  campaign::PointReport point;
  point.key = "lan-p4-O2-sync-hier-s42-cr0.01";
  point.platform_label = "lan";
  point.platform_kind = "star";
  point.peers = 4;
  point.opt = "O2";
  point.scheme = "sync";
  point.alloc = "hierarchical";
  point.seed = 42;
  point.repetitions = 2;
  point.errors = 1;
  Summary s;
  s.n = 2;
  s.mean = 12.25;
  s.stddev = 0.25;
  s.min = 12.0;
  s.max = 12.5;
  s.p50 = 12.25;
  s.p95 = 12.5;
  s.ci95_half = 0.75;
  point.metrics["reference_solve_seconds"] = s;
  Summary attempts;
  attempts.n = 2;
  attempts.mean = 1.5;
  attempts.stddev = 0.5;
  attempts.min = 1.0;
  attempts.max = 2.0;
  attempts.p50 = 1.5;
  attempts.p95 = 2.0;
  attempts.ci95_half = 1.5;
  point.metrics["reference_churn_attempts"] = attempts;
  rep.points.push_back(point);
  return rep;
}

TEST(GoldenRecord, CampaignReportSerializationIsByteStable) {
  check_against_golden(canonical_report().to_json(), "campaign_report.json");
}

TEST(GoldenRecord, CampaignReportCsvIsByteStable) {
  check_against_golden(canonical_report().to_csv(), "campaign_report.csv");
}

TEST(GoldenRecord, CampaignReportReadsBackLosslessly) {
  const JsonValue doc = parse_json(canonical_report().to_json());
  EXPECT_EQ(doc.at("campaign").as_string(), "golden-camp");
  EXPECT_EQ(doc.at("total_runs").as_double(), 6.0);
  EXPECT_EQ(doc.at("errors").as_double(), 1.0);
  const JsonValue& point = doc.at("points").as_array().at(0);
  EXPECT_EQ(point.at("point").as_string(), "lan-p4-O2-sync-hier-s42-cr0.01");
  EXPECT_EQ(point.at("repetitions").as_double(), 2.0);
  const JsonValue& metric = point.at("metrics").at("reference_solve_seconds");
  EXPECT_EQ(metric.at("n").as_double(), 2.0);
  EXPECT_EQ(metric.at("mean").as_double(), 12.25);
  EXPECT_EQ(metric.at("ci95_half").as_double(), 0.75);
  EXPECT_TRUE(point.at("metrics").has("reference_churn_attempts"));
}

/// FNV-1a 64 over `bytes`.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The dPerf front end at quick sizing (grid 258, iters 100, rcheck 4): one
// line per opt level x rank count with the event count, the compute ns and
// a digest of every rank's `save_trace` text, then one line per level of
// the block benchmark behind the cost profile at the default bench sizing
// (66, 9, 3). A faster compiler or VM must leave every byte of this
// unchanged.
TEST(GoldenRecord, DperfTracesAndBlockTimingsAreByteStable) {
  const ir::OptLevel levels[] = {ir::OptLevel::O0, ir::OptLevel::O1, ir::OptLevel::O2,
                                 ir::OptLevel::O3, ir::OptLevel::Os};
  std::string text;
  char line[256];
  for (const ir::OptLevel level : levels) {
    for (const int ranks : {1, 2, 4, 32}) {
      scenario::RunSpec run;
      run.grid_n = 258;
      run.iters = 100;
      run.level = level;
      run.peers = ranks;
      const std::vector<dperf::Trace> traces =
          scenario::Runner{{"golden", scenario::PlatformSpec::lan(), run}}.traces();
      std::string bytes;
      std::uint64_t events = 0, compute_ns = 0;
      for (const dperf::Trace& t : traces) {
        bytes += dperf::save_trace(t);
        events += t.events.size();
        compute_ns += t.total_compute_ns();
      }
      std::snprintf(line, sizeof line,
                    "trace %s ranks=%d events=%llu compute_ns=%llu fnv=%016llx\n",
                    ir::opt_level_name(level), ranks, static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(compute_ns),
                    static_cast<unsigned long long>(fnv1a(bytes)));
      text += line;
    }
  }
  for (const ir::OptLevel level : levels) {
    const scenario::RunSpec run;
    dperf::DperfOptions opt;
    opt.level = level;
    const dperf::Dperf pipeline{obstacle::minic_kernel_source(), opt};
    obstacle::ObstacleProblem problem;
    problem.n = run.bench_n;
    problem.omega = run.omega;
    const dperf::BlockTimings timings = pipeline.benchmark(
        obstacle::kernel_workload(problem, run.bench_iters, run.bench_rcheck));
    text += std::string("blocks ") + ir::opt_level_name(level);
    for (const dperf::BlockTimings::Entry& e : timings.entries) {
      std::snprintf(line, sizeof line, " %d:%llu:%.17g", e.info.id,
                    static_cast<unsigned long long>(e.executions), e.mean_ns);
      text += line;
    }
    text += "\n";
  }
  check_against_golden(text, "dperf_traces.quick.txt");
}

// The analytic planner at quick sizing (grid 258, iters 100): one line per
// cell of platform x scheme x allocation x ranks x opt level in mode
// analytic, with the plan's times at full precision. A change to how the
// planner reads its traces must leave every byte of this unchanged.
TEST(GoldenRecord, AnalyticPlansAreByteStable) {
  const std::pair<const char*, scenario::PlatformSpec> platforms[] = {
      {"lan", scenario::PlatformSpec::lan()},
      {"grid5000", scenario::PlatformSpec::grid5000()},
      {"xdsl", scenario::PlatformSpec::xdsl()}};
  std::string text;
  char line[512];
  for (const auto& [name, platform] : platforms)
    for (const p2psap::Scheme scheme : {p2psap::Scheme::Synchronous, p2psap::Scheme::Asynchronous})
      for (const p2pdc::AllocationMode alloc :
           {p2pdc::AllocationMode::Hierarchical, p2pdc::AllocationMode::Flat})
        for (const int ranks : {4, 32})
          for (const ir::OptLevel level : {ir::OptLevel::O0, ir::OptLevel::O3}) {
            scenario::RunSpec run;
            run.grid_n = 258;
            run.iters = 100;
            run.peers = ranks;
            run.level = level;
            run.scheme = scheme;
            run.allocation = alloc;
            run.mode = scenario::Mode::Analytic;
            const scenario::RunRecord rec = scenario::Runner{{"golden", platform, run}}.run();
            ASSERT_TRUE(rec.analytic.has_value()) << rec.error;
            const scenario::PhaseRecord& ph = *rec.analytic;
            std::snprintf(line, sizeof line,
                          "analytic %s %s %s ranks=%d %s solve_seconds=%.17g "
                          "total_seconds=%.17g t_collected=%.17g t_allocated=%.17g "
                          "peers=%d groups=%d\n",
                          name,
                          scheme == p2psap::Scheme::Synchronous ? "sync" : "async",
                          alloc == p2pdc::AllocationMode::Flat ? "flat" : "hierarchical",
                          ranks, ir::opt_level_name(level), ph.solve_seconds,
                          ph.total_seconds, ph.computation.t_collected,
                          ph.computation.t_allocated, ph.computation.peers,
                          ph.computation.groups);
            text += line;
          }
  check_against_golden(text, "analytic_plans.quick.txt");
}

}  // namespace
}  // namespace pdc
