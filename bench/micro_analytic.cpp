// Analytic-planner microbench: the point of mode=analytic is that a grid
// point costs a handful of max-min rate queries instead of a full
// discrete-event replay. This harness times the same workload both ways
// through Runner::run(), exactly what a campaign grid point runs — trace
// replay (mode=predict: dperf::replay_on on a fresh deployment) vs. the
// analytic plan (mode=analytic: dperf::plan_on over the workload's
// traces on a fresh deployment) — over several repetitions and emits the
// per-grid-point speedup. Traces come from the shared memo, warmed outside
// the timed window: both sides measure prediction cost only,
// not the dPerf pipeline they share.
//
// Emits BENCH_analytic.json (pass a path as argv[1] to redirect).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace {

using namespace pdc;

scenario::ScenarioSpec bench_spec(scenario::PlatformSpec platform, const char* name) {
  scenario::ScenarioSpec spec;
  spec.name = name;
  spec.platform = std::move(platform);
  // Fixed default-class sizing (independent of PDC_QUICK) so emitted
  // numbers are comparable across environments: a campaign grid point at
  // the paper's iteration counts, where the per-iteration cost ratio
  // dominates the fixed deploy/setup overhead on both sides.
  spec.run.peers = 4;
  spec.run.grid_n = 1538;
  spec.run.iters = 428;
  spec.run.rcheck = 4;
  spec.run.bench_n = 34;
  spec.run.bench_iters = 6;
  spec.run.bench_rcheck = 3;
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Result {
  std::string platform;
  double replay_seconds = 0;    // per grid point
  double analytic_seconds = 0;  // per grid point
  double speedup = 0;
  double replay_solve = 0;
  double analytic_solve = 0;
  double rel_error = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_analytic.json";
  const int reps = 7;

  std::vector<Result> results;
  const scenario::PlatformSpec platforms[] = {
      scenario::PlatformSpec::grid5000(), scenario::PlatformSpec::lan(),
      scenario::PlatformSpec::xdsl()};
  for (const scenario::PlatformSpec& platform : platforms) {
    scenario::ScenarioSpec spec = bench_spec(platform, "micro-analytic");
    spec.run.mode = scenario::Mode::Predict;
    const scenario::Runner replay{spec};
    spec.run.mode = scenario::Mode::Analytic;
    const scenario::Runner plan{spec};
    // Warm the process-wide trace memo outside the timed
    // window; a campaign amortizes them the same way.
    replay.run();
    plan.run();

    Result r;
    r.platform = platform.label;
    // Best-of-reps on both sides: scheduler noise only ever inflates a
    // measurement, so the minimum is the stable per-grid-point cost.
    r.replay_seconds = 1e300;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const scenario::RunRecord rec = replay.run();
      r.replay_seconds = std::min(r.replay_seconds, seconds_since(t0));
      r.replay_solve = rec.predicted->solve_seconds;
    }
    r.analytic_seconds = 1e300;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const scenario::RunRecord rec = plan.run();
      r.analytic_seconds = std::min(r.analytic_seconds, seconds_since(t0));
      r.analytic_solve = rec.analytic->solve_seconds;
    }
    r.speedup = r.analytic_seconds > 0 ? r.replay_seconds / r.analytic_seconds : 0;
    r.rel_error = r.replay_solve > 0
                      ? std::abs(r.analytic_solve - r.replay_solve) / r.replay_solve
                      : 0;
    std::printf("%-10s replay %8.4f s  analytic %8.4f s  speedup %7.1fx  err %.2f%%\n",
                r.platform.c_str(), r.replay_seconds, r.analytic_seconds, r.speedup,
                100.0 * r.rel_error);
    std::fflush(stdout);
    results.push_back(r);
  }

  pdc::JsonWriter w;
  w.begin_object();
  w.kv("bench", "analytic_vs_replay_per_grid_point");
  w.kv("reps", reps);
  w.key("results").begin_array();
  for (const Result& r : results) {
    w.begin_object();
    w.kv("platform", r.platform);
    w.kv("replay_seconds", r.replay_seconds);
    w.kv("analytic_seconds", r.analytic_seconds);
    w.kv("speedup", r.speedup);
    w.kv("replay_solve_seconds", r.replay_solve);
    w.kv("analytic_solve_seconds", r.analytic_solve);
    w.kv("rel_error", r.rel_error);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  // The acceptance gate: an analytic grid point must be at least 10x
  // cheaper than a replayed one on every platform.
  for (const Result& r : results) {
    if (r.speedup < 10.0) {
      std::fprintf(stderr, "speedup gate failed on %s: %.1fx < 10x\n",
                   r.platform.c_str(), r.speedup);
      return 1;
    }
  }
  return 0;
}
