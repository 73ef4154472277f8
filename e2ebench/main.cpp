// End-to-end benchmark of the prediction pipeline (see README.md).
//
//   e2ebench --workload cold_predict|warm_whatif --seed <n>
//            --seconds <s> --trace 0|1 [--out <dir>] [--main-only 0|1]
//
// One process, one workload. Each workload runs its own phase at full size,
// the other workload's phase as a small probe and a cold campaign sweep, so
// every end-to-end metric is measured on every workload and each (metric,
// workload) pair can be compared across commits:
//
//   cold_predict : cold requests (paper sizing) | set-up | warm probe | campaign
//   warm_whatif  : set-up | what-if stream (--seconds) | cold probe | campaign
//
// Phases never share a trace-memo key: each salts its keys with its own
// omega (harness.hpp), so a probe after the main phase is still cold.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same phases
// stage by stage through the layers' public calls, keeps host-clock spans in
// memory, writes them to <out>/spans-<workload>-<seed>.json at the end, and
// prints the per-layer metrics. The last stdout line is the result JSON.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "dperf/dperf.hpp"
#include "dperf/summary.hpp"
#include "harness.hpp"
#include "ir/pipeline.hpp"
#include "obstacle/distributed.hpp"
#include "obstacle/minic_kernel.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"
#include "support/stats.hpp"
#include "vm/vm.hpp"

namespace {

using namespace pdc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Key salts (omega) of each phase; see harness.hpp omega_line().
// Every phase repeats its measurement once per salt and reports the median.
const std::vector<double> kMainSalts = {0.90, 0.91, 0.92};
const std::vector<double> kProbeHotSalts = {0.93, 0.94, 0.95};
const std::vector<double> kColdProbeSalts = {0.960, 0.962, 0.964, 0.966,
                                             0.968, 0.970, 0.972};
const std::vector<double> kCampaignSalts = {0.985, 0.99, 0.995};
constexpr double kWarmProbeSeconds = 6.0;
/// The what-if stream's first second is served and checked but not timed,
/// while the server's pool and the response cache settle.
constexpr auto kWarmUp = std::chrono::seconds(1);
/// Fresh what-if requests the traced run replays stage by stage.
constexpr std::size_t kStagedWhatIfs = 48;
/// analytic_error gate of the analytic prediction contract.
constexpr double kAnalyticErrorGate = 0.10;

// --------------------------------------------------------------- host speed

// The host's speed drifts by tens of percent within seconds (other tenants
// share its cores and caches), which would swamp any change to the program.
// A background thread times a fixed gauge every few tens of milliseconds;
// each timed sample is then scaled by the gauges that ran during it, so
// wall-clock metrics read as seconds on the reference host.

/// What one gauge takes on the reference host (a 4-vCPU Xeon VM).
constexpr double kGaugeNominalS = 0.001;
/// Pause between gauges: the gauge thread keeps ~5% of one core busy.
constexpr auto kGaugePause = std::chrono::milliseconds(20);
/// A sample is scaled by at least this many gauges (the nearest ones when
/// fewer ran inside it).
constexpr std::size_t kMinGauges = 8;

volatile double gauge_sink = 0;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One host-speed gauge: three 5-point relaxation sweeps over a 128 x 128
/// grid, run by a switch-dispatched register bytecode. It is the kind of
/// work the program's VM does (dispatch, loads and stores, floating point)
/// but shares no code with the program, so no change to the program can
/// move it. Returns the CPU time the calling thread spent on it, so time
/// the thread waits for a core while the program's threads run is left out.
double gauge_seconds(std::vector<double>& grid) {
  enum Op : std::uint8_t { LoadI, LoadX, Add, Quarter, Store, Inc, JumpLess, Halt };
  struct Ins {
    Op op;
    int a, b, c, imm;
  };
  constexpr int n = 128;
  // for (i = n + 1; i < n*n - n - 1; ++i) g[i] = (g[i-1] + g[i+1] + g[i-n] + g[i+n]) / 4
  static const std::vector<Ins> prog = {
      {LoadI, 0, 0, 0, n + 1},  {LoadX, 1, 0, 0, -1},    {LoadX, 2, 0, 0, 1},
      {Add, 1, 1, 2, 0},        {LoadX, 2, 0, 0, -n},    {Add, 1, 1, 2, 0},
      {LoadX, 2, 0, 0, n},      {Add, 1, 1, 2, 0},       {Quarter, 1, 1, 0, 0},
      {Store, 1, 0, 0, 0},      {Inc, 0, 0, 0, 1},       {JumpLess, 0, 0, 0, 1},
      {Halt, 0, 0, 0, 0}};
  if (grid.empty())
    for (int k = 0; k < n * n; ++k) grid.push_back(k % 7);
  const double t0 = thread_cpu_seconds();
  double f[3] = {0, 0, 0};
  std::int64_t i = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::size_t pc = 0; prog[pc].op != Halt;) {
      const Ins& in = prog[pc++];
      switch (in.op) {
        case LoadI: i = in.imm; break;
        case LoadX: f[in.a] = grid[static_cast<std::size_t>(i + in.imm)]; break;
        case Add: f[in.a] = f[in.b] + f[in.c]; break;
        case Quarter: f[in.a] = 0.25 * f[in.b]; break;
        case Store: grid[static_cast<std::size_t>(i)] = f[in.a]; break;
        case Inc: i += in.imm; break;
        case JumpLess:
          if (i < n * n - n - 1) pc = static_cast<std::size_t>(in.imm);
          break;
        case Halt: break;
      }
    }
  }
  gauge_sink = grid[n * n / 2];
  return thread_cpu_seconds() - t0;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void pin_this_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Times gauge_seconds() on its own thread from construction to
/// destruction and scales wall-clock samples by the gauges around them.
/// The CPUs of one host differ in speed from moment to moment, so the gauge
/// runs on the CPU a single-threaded sample is pinned to (follow()), and on
/// every CPU in turn otherwise.
class HostGauge {
 public:
  HostGauge() : thread_([this] { loop(); }) {}
  ~HostGauge() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Reference-host seconds per wall second over [t0, t1]: kGaugeNominalS
  /// over the median of the gauges that started in the interval, widened
  /// to the kMinGauges nearest when fewer did. 1 before any gauge ran.
  double scale(Clock::time_point t0, Clock::time_point t1) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (gauges_.empty()) return 1;
    auto by_start = [](const Gauge& p, Clock::time_point t) { return p.start < t; };
    std::size_t lo = std::lower_bound(gauges_.begin(), gauges_.end(), t0, by_start) -
                     gauges_.begin();
    std::size_t hi = std::lower_bound(gauges_.begin(), gauges_.end(), t1, by_start) -
                     gauges_.begin();
    while (hi - lo < kMinGauges && (lo > 0 || hi < gauges_.size())) {
      if (lo > 0) --lo;
      if (hi < gauges_.size() && hi - lo < kMinGauges) ++hi;
    }
    std::vector<double> d;
    for (std::size_t k = lo; k < hi; ++k) d.push_back(gauges_[k].seconds);
    return kGaugeNominalS / e2e::median(d);
  }

  /// Wall seconds from t0 to t1 in reference-host seconds.
  double seconds(Clock::time_point t0, Clock::time_point t1) const {
    return std::chrono::duration<double>(t1 - t0).count() * scale(t0, t1);
  }

  /// Times the gauge on `cpu` from its next timing on; on every CPU in
  /// turn when `cpu` is negative.
  void follow(int cpu) { target_.store(cpu); }

  const std::vector<int>& cpus() const { return cpus_; }

  std::vector<double> durations() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> d;
    for (const Gauge& p : gauges_) d.push_back(p.seconds);
    return d;
  }

 private:
  struct Gauge {
    Clock::time_point start;
    double seconds;
  };

  void loop() {
    std::vector<double> grid;
    std::size_t turn = 0;
    int pinned = -1;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      int cpu = target_.load();
      if (cpu < 0) cpu = cpus_[turn++ % cpus_.size()];
      if (cpu != pinned) pin_this_thread(pinned = cpu);
      const auto start = Clock::now();
      const double seconds = gauge_seconds(grid);
      lock.lock();
      gauges_.push_back({start, seconds});
      wake_.wait_for(lock, kGaugePause, [this] { return stop_; });
    }
  }

  const std::vector<int> cpus_ = allowed_cpus();
  std::atomic<int> target_{-1};
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;                // guarded by mutex_
  std::vector<Gauge> gauges_;        // guarded by mutex_, in start order
  std::thread thread_;               // last: starts after the members it uses
};

/// Pins the calling thread and the gauge to one CPU for the length of one
/// single-threaded sample, then gives the thread its CPUs back.
class PinnedSample {
 public:
  PinnedSample(HostGauge& gauge, int cpu) : gauge_(gauge) {
    CPU_ZERO(&saved_);
    pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_);
    pin_this_thread(cpu);
    gauge_.follow(cpu);
  }
  ~PinnedSample() {
    pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
    gauge_.follow(-1);
  }
  PinnedSample(const PinnedSample&) = delete;
  PinnedSample& operator=(const PinnedSample&) = delete;

 private:
  HostGauge& gauge_;
  cpu_set_t saved_;
};

// ------------------------------------------------------------------ tracing

/// In-memory host-clock spans; begin/end nest on the calling thread.
class Tracer {
 public:
  int begin(const std::string& name) {
    spans_.push_back({name, now(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  /// A child of `parent` whose interval is known rather than observed.
  void add(const std::string& name, double start, double end, int parent) {
    spans_.push_back({name, start, end, parent});
  }
  double now() const { return since(t0_); }
  const std::vector<e2e::Span>& spans() const { return spans_; }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<e2e::Span> spans_;
  int current_ = -1;
};

/// RAII span; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tr, const std::string& name) : tr_(tr), id_(tr ? tr->begin(name) : -1) {}
  ~Scope() {
    if (tr_) tr_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tr_;
  int id_;
};

template <class F>
auto timed(Tracer* tr, const char* name, F&& f) {
  Scope s(tr, name);
  return f();
}

/// No-op communication hooks that supply the obstacle kernel's workload
/// parameters: what the VM sees during trace generation, minus recording.
class ParamHooks : public vm::CommHooks {
 public:
  ParamHooks(const dperf::Workload& w, int rank, int nprocs)
      : w_(w), rank_(rank), nprocs_(nprocs) {}
  int rank() override { return rank_; }
  int nprocs() override { return nprocs_; }
  long long param(int i) override {
    const auto k = static_cast<std::size_t>(i);
    return k < w_.int_params.size() ? w_.int_params[k] : 0;
  }
  double param_f(int i) override {
    const auto k = static_cast<std::size_t>(i);
    return k < w_.float_params.size() ? w_.float_params[k] : 0;
  }

 private:
  const dperf::Workload& w_;
  int rank_, nprocs_;
};

// -------------------------------------------------------------- run state

struct Metric {
  double value = 0;
  std::string unit;
};

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string out_dir;
  std::unique_ptr<Tracer> tracer;  // set for --trace 1

  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> prediction_errors_pct;
  std::vector<double> analytic_errors_pct;
  std::vector<double> seeded_prediction_errors_pct;  // campaign records, churn-free
  std::string simulated;  // digest input, in deterministic order
  int main_phase = -1;    // span id of the workload's own phase
  int layer_root = -1;    // span the layer shares are taken over (main phase by default)
  double main_wall = 0;
  bool main_only = false;  // stop after the workload's own phase

  // Per-layer counters of the traced run.
  std::uint64_t vm_instructions = 0;
  double vm_seconds = 0;
  std::uint64_t events = 0, flows = 0, reshares = 0, route_hits = 0, routes_computed = 0;
  double sim_seconds = 0;
  std::set<int> profiled_levels;

  HostGauge host;
  std::size_t pinned_samples = 0;

  Tracer* tr() const { return tracer.get(); }
  /// The CPU the next single-threaded sample runs on: each in turn.
  int next_cpu() { return host.cpus()[pinned_samples++ % host.cpus().size()]; }

  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }

  /// Output checks of one RunRecord: it parses, carries no error, and its
  /// analytic error stays within the gate. Adds its simulated-time fields
  /// to the digest. `fixed` records come from seed-independent specs; only
  /// they feed prediction_error_pct / analytic_error_pct, so those move
  /// only when the program's outputs do.
  void accept_record(const std::string& json, const std::string& what, bool fixed) {
    try {
      const JsonValue doc = parse_json(json);
      if (!check(!doc.has("error"), what + ": record error " +
                                        (doc.has("error") ? doc.at("error").as_string() : "")))
        return;
      if (doc.has("analytic_error")) {
        const double e = doc.at("analytic_error").as_double();
        if (fixed) analytic_errors_pct.push_back(100 * e);
        check(e <= kAnalyticErrorGate, what + ": analytic_error above the 10% gate");
      }
      // Under churn the error measures volatility, not the predictor.
      const bool churned = doc.has("reference") && doc.at("reference").has("churn");
      if (doc.has("prediction_error") && !churned)
        (fixed ? prediction_errors_pct : seeded_prediction_errors_pct)
            .push_back(100 * doc.at("prediction_error").as_double());
      simulated += e2e::simulated_fields(json) + "\n";
    } catch (const std::exception& e) {
      check(false, what + ": record does not parse: " + e.what());
    }
  }
};

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

scenario::ScenarioSpec parse(const std::string& text) {
  // RunSpec{} base: the spec texts pin every knob; PDC_QUICK never applies.
  return scenario::parse_scenario(text, scenario::RunSpec{});
}

// --------------------------------------------------- staged (traced) runs

/// Records a deployment's counters into the per-layer totals.
void count_phase(Run& run, const scenario::PhaseRecord& ph, double seconds) {
  run.events += ph.engine.events_dispatched;
  run.flows += ph.net.flows_started;
  run.reshares += ph.net.reshares;
  run.route_hits += ph.routes.cache_hits;
  run.routes_computed += ph.routes.routes_computed;
  run.sim_seconds += seconds;
}

/// Times the cost-profile derivation scenario::cost_profile memoizes, once
/// per level per run. It calls the derivation directly, so a profile some
/// untraced request already memoized is still measured.
void time_cost_profile(Run& run, const scenario::RunSpec& r) {
  if (!run.profiled_levels.insert(static_cast<int>(r.level)).second) return;
  obstacle::ObstacleProblem bench;
  bench.n = r.bench_n;
  bench.omega = r.omega;
  Scope s(run.tr(), "dperf.cost_profile");
  obstacle::derive_cost_profile(r.level, bench, r.bench_iters, r.bench_rcheck);
}

/// One request executed stage by stage through the layers' public calls,
/// producing the same RunRecord Runner::run() would. `cold` derives the
/// traces per rank with a fresh dPerf front end; otherwise they come from
/// the (hot) trace memo.
std::string staged_request(Run& run, const std::string& text, bool cold) {
  Tracer* tr = run.tr();
  Scope request(tr, "request");
  const scenario::ScenarioSpec spec = parse(text);
  const scenario::RunSpec& r = spec.run;
  const scenario::Runner runner{spec};
  const scenario::Mode mode = r.mode;
  const bool reference = mode == scenario::Mode::Reference || mode == scenario::Mode::Both;
  const bool predicted = mode != scenario::Mode::Reference && mode != scenario::Mode::Analytic;
  const bool analytic =
      mode == scenario::Mode::Analytic || mode == scenario::Mode::BothAnalytic;

  {
    Scope s(tr, "scenario.deploy");
    runner.deploy();
  }
  {
    Scope s(tr, "net.build_platform");
    scenario::build_platform(spec.platform, r);
  }

  std::vector<dperf::Trace> traces;
  if (mode != scenario::Mode::Reference) {
    if (!cold) {
      traces = timed(tr, "dperf.traces_hot", [&] { return runner.traces(); });
    } else {
      // Mirrors Runner::traces(): same options, same workload.
      dperf::DperfOptions opt;
      opt.level = r.level;
      opt.chunk = r.rcheck;
      opt.sample_iters = 3 * r.rcheck;
      std::optional<dperf::Dperf> pipeline;
      {
        Scope s(tr, "dperf.front");
        pipeline.emplace(obstacle::minic_kernel_source(), opt);
      }
      obstacle::ObstacleProblem problem;
      problem.n = r.grid_n;
      problem.omega = r.omega;
      const dperf::Workload full = obstacle::kernel_workload(problem, r.iters, r.rcheck);
      double compile_s = 0;
      {
        const double t0 = tr->now();
        std::optional<ir::IrProgram> prog;
        {
          Scope s(tr, "ir.compile");
          prog.emplace(ir::compile(pipeline->instrumented().program, r.level));
        }
        compile_s = tr->now() - t0;
        // Rank 0 over the sampled iteration count trace_for_rank executes.
        dperf::Workload sampled = full;
        const int chunk = opt.chunk;
        sampled.int_params[1] = 3 * chunk + (r.iters - 3 * chunk) % chunk;
        ParamHooks hooks{sampled, 0, r.rank_count()};
        vm::Vm machine{*prog};
        machine.set_hooks(&hooks);
        const double v0 = tr->now();
        {
          Scope s(tr, "vm.run_main");
          machine.run_main();
        }
        run.vm_seconds += tr->now() - v0;
        run.vm_instructions += machine.papi().instructions;
      }
      for (int rank = 0; rank < r.rank_count(); ++rank) {
        Scope s(tr, "dperf.trace_rank");
        const double start = tr->now();
        traces.push_back(pipeline->trace_for_rank(full, rank, r.rank_count()));
        // trace_for_rank compiles first, then runs the VM: charge the
        // measured compile to an inner child so the span's self time is
        // the VM's.
        tr->add("ir.compile.in_trace", start, start + compile_s, s.id());
      }
    }
  }
  if (reference) time_cost_profile(run, r);

  scenario::RunRecord rec;
  rec.spec = spec;
  rec.platform_kind = spec.platform.kind();
  rec.platform_label = spec.platform.label;
  if (reference) {
    const double t0 = tr->now();
    rec.reference = timed(tr, "scenario.reference", [&] { return runner.run_reference(); });
    count_phase(run, *rec.reference, tr->now() - t0);
  }
  if (predicted) {
    const double t0 = tr->now();
    rec.predicted = timed(tr, "dperf.replay", [&] { return runner.run_predicted(traces); });
    count_phase(run, *rec.predicted, tr->now() - t0);
  }
  if (analytic) {
    {
      Scope s(tr, "dperf.summarize");
      for (const dperf::Trace& t : traces) dperf::summarize_trace(t);
    }
    rec.analytic = timed(tr, "dperf.plan", [&] { return runner.run_analytic(traces); });
  }
  // The record assembly of Runner::run_phases.
  rec.platform_hosts = rec.reference   ? rec.reference->platform_hosts
                       : rec.predicted ? rec.predicted->platform_hosts
                                       : rec.analytic->platform_hosts;
  if (rec.reference && rec.predicted && rec.reference->solve_seconds > 0)
    rec.prediction_error = std::abs(rec.predicted->solve_seconds - rec.reference->solve_seconds) /
                           rec.reference->solve_seconds;
  if (rec.analytic && rec.predicted && rec.predicted->solve_seconds > 0)
    rec.analytic_error = std::abs(rec.analytic->solve_seconds - rec.predicted->solve_seconds) /
                         rec.predicted->solve_seconds;
  return timed(tr, "scenario.record_json", [&] { return rec.to_json(); });
}

// ------------------------------------------------------------------ phases

/// Cold requests in sequence, each on a trace-memo key no earlier request
/// used. Returns the per-request latencies.
std::vector<double> cold_phase(Run& run, const std::vector<std::string>& texts) {
  Scope phase(run.tr(), "phase/cold");
  std::vector<double> latencies;
  std::string first;
  for (const std::string& text : texts) {
    PinnedSample pin(run.host, run.next_cpu());
    const auto t0 = Clock::now();
    std::string json = run.tr() ? staged_request(run, text, /*cold=*/true)
                                : scenario::Runner{parse(text)}.try_run().to_json();
    latencies.push_back(run.host.seconds(t0, Clock::now()));
    run.accept_record(json, "cold request", /*fixed=*/true);
    if (first.empty()) first = std::move(json);
  }
  // Issued again (now warm): the answer must not change by a byte.
  if (!run.tr())
    run.check(scenario::Runner{parse(texts.front())}.try_run().to_json() == first,
              "cold request repeated with different bytes");
  return latencies;
}

/// Binds the server and pre-warms the trace memo for the hot keys of every
/// salt; one set-up per salt (the last server is kept), timed each.
std::unique_ptr<serve::Server> setup_phase(Run& run, const std::vector<double>& salts,
                                           std::vector<double>& setup_seconds) {
  Scope phase(run.tr(), "phase/setup");
  std::unique_ptr<serve::Server> server;
  for (double salt : salts) {
    const auto t0 = Clock::now();
    server.reset();
    serve::ServerOptions opts;
    opts.tcp_port = 0;
    opts.jobs = 2;
    opts.cache_bytes = 64u << 20;
    opts.poll_seconds = 0.05;
    opts.metrics_interval_seconds = 0;
    server = std::make_unique<serve::Server>(opts);
    for (const e2e::HotKey& key : e2e::hot_keys()) {
      Scope s(run.tr(), "dperf.traces");
      scenario::Runner{parse(e2e::hot_key_spec(key, salt))}.traces();
    }
    setup_seconds.push_back(run.host.seconds(t0, Clock::now()));
  }
  return server;
}

/// Empty when `json` is a RunRecord without an error field.
std::string record_problem(const std::string& json) {
  try {
    const JsonValue doc = parse_json(json);
    return doc.has("error") ? "record error: " + doc.at("error").as_string() : "";
  } catch (const std::exception& e) {
    return std::string("record does not parse: ") + e.what();
  }
}

serve::Response ask(int port, const std::string& text) {
  Socket conn = connect_tcp("127.0.0.1", port);
  serve::write_request(conn, serve::Request{serve::RequestKind::RunScenario, text});
  return serve::read_response(conn);
}

struct WarmResult {
  std::vector<double> all, hits;
  std::map<std::string, std::vector<double>> by_class;
  std::string median_class;              // class of the median request
  std::map<std::string, int> tail_classes;  // classes at and beyond the tail percentile
  double wall = 0;
};

/// The closed-loop what-if stream: 2 clients, each sending its next request
/// only after the previous answer arrived, for kWarmUp plus `seconds` (the
/// timed part); then the fixed check set. Reads the serve-layer counters at
/// the end.
WarmResult warm_phase(Run& run, serve::Server& server, const std::vector<double>& salts,
                      double seconds) {
  Scope phase(run.tr(), "phase/warm");
  // Serves on its own thread until this phase ends, on every exit path.
  struct Serving {
    serve::Server& server;
    std::thread thread{[this] { server.run(); }};
    ~Serving() {
      server.request_stop();
      thread.join();
    }
  } serving{server};
  const int port = server.port();

  struct Answer {
    std::size_t index;
    e2e::WhatIfClass cls;
    Clock::time_point sent, received;
    double latency = 0;  // reference-host seconds, set after the stream
  };
  std::mutex mutex;
  std::condition_variable answered;
  std::set<std::size_t> done;                  // indices answered (or failed)
  std::map<std::size_t, std::string> bodies;   // fresh answers, by index
  std::map<std::size_t, std::string> staged;   // first fresh answers, traced run
  std::vector<Answer> answers;
  std::vector<std::string> problems;
  std::atomic<std::size_t> next{0};
  const auto timed_from = Clock::now() + kWarmUp;
  const auto deadline = timed_from + std::chrono::duration<double>(seconds);

  auto client = [&] {
    while (Clock::now() < deadline) {
      const std::size_t i = next.fetch_add(1);
      const e2e::WhatIf req = e2e::whatif_request(run.seed, i, salts);
      const bool repeat = req.cls == e2e::WhatIfClass::Repeat;
      if (repeat) {
        // Its original was taken >= kRepeatLag requests ago; wait until it
        // is answered so the repeat is a cache hit by construction.
        std::unique_lock<std::mutex> lock(mutex);
        answered.wait(lock, [&] { return done.count(req.original) != 0; });
      }
      std::string problem;
      serve::Response resp;
      const auto t0 = Clock::now();
      try {
        resp = ask(port, req.text);
      } catch (const std::exception& e) {
        problem = std::string("request failed: ") + e.what();
      }
      const auto received = Clock::now();
      if (problem.empty() && !resp.ok) problem = "ERR " + resp.body;
      if (problem.empty() && e2e::classify(req, resp.tag) != e2e::Verdict::Ok)
        problem = std::string(e2e::class_name(req.cls)) + " answered " + resp.tag;
      if (problem.empty() && !repeat) problem = record_problem(resp.body);
      std::lock_guard<std::mutex> lock(mutex);
      if (problem.empty() && repeat) {
        const auto it = bodies.find(req.original);
        if (it == bodies.end() || it->second != resp.body)
          problem = "hit differs from the miss it repeats";
      }
      if (problem.empty() && !repeat) {
        bodies[i] = resp.body;
        // No later request can repeat an answer this old.
        while (bodies.begin()->first + e2e::kRepeatLag + e2e::kRepeatWindow < i)
          bodies.erase(bodies.begin());
        if (staged.size() < kStagedWhatIfs) staged[i] = resp.body;
      }
      if (!problem.empty()) problems.push_back("request " + std::to_string(i) + ": " + problem);
      answers.push_back({i, req.cls, t0, received});
      done.insert(i);
      answered.notify_all();
    }
  };
  std::thread other(client);
  client();
  other.join();

  run.attempted += answers.size();
  run.failed += problems.size();
  for (std::size_t k = 0; k < problems.size() && run.failures.size() < 20; ++k)
    run.failures.push_back(problems[k]);

  WarmResult res;
  res.wall = run.host.seconds(timed_from, Clock::now());
  std::erase_if(answers, [&](const Answer& a) { return a.sent < timed_from; });
  for (Answer& a : answers) {
    a.latency = run.host.seconds(a.sent, a.received);
    res.all.push_back(a.latency);
    res.by_class[e2e::class_name(a.cls)].push_back(a.latency);
    if (a.cls == e2e::WhatIfClass::Repeat) res.hits.push_back(a.latency);
  }
  // Which classes the median and the tail fall in: the mix is built so the
  // median is a replayed prediction and the tail the heaviest class.
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) { return a.latency < b.latency; });
  if (!answers.empty()) {
    res.median_class = e2e::class_name(answers[answers.size() / 2].cls);
    const std::size_t tail = e2e::tail_percentile(res.all).beyond + 1;
    for (std::size_t k = answers.size() - std::min(tail, answers.size()); k < answers.size(); ++k)
      ++res.tail_classes[e2e::class_name(answers[k].cls)];
  }

  // Fixed check set: miss, then a byte-identical hit, and the served bytes
  // equal a direct Runner execution of the same text.
  for (const std::string& text : e2e::whatif_check_specs(salts.front())) {
    try {
      const serve::Response miss = ask(port, text);
      run.check(miss.ok && miss.tag == "miss", "check request not a miss");
      run.accept_record(miss.body, "check request", /*fixed=*/true);
      const serve::Response hit = ask(port, text);
      run.check(hit.ok && hit.tag == "hit" && hit.body == miss.body,
                "check request repeat not a byte-identical hit");
      run.check(scenario::Runner{parse(text)}.try_run().to_json() == miss.body,
                "served record differs from a direct run");
    } catch (const std::exception& e) {
      run.check(false, std::string("check request failed: ") + e.what());
    }
  }

  if (run.tr()) {
    // Stage-by-stage replay of the first fresh what-ifs: the layer spans of
    // a warm request (deploy, replay / plan, record), and the staged record
    // must equal the served one.
    Scope pass(run.tr(), "warm/staged");
    // The stream itself runs in the server's threads; the layer shares of
    // the warm workload are taken over this pass.
    run.layer_root = pass.id();
    for (const auto& [i, body] : staged) {
      const std::string text = e2e::whatif_request(run.seed, i, salts).text;
      run.check(staged_request(run, text, /*cold=*/false) == body,
                "staged what-if record differs from the served one");
    }
    const serve::ServeStats st = server.stats();
    run.layer["serve.hit_ratio"] = {
        st.scenario_requests ? double(st.cache.hits) / double(st.scenario_requests) : 0,
        "ratio"};
    run.layer["serve.hit_server_p50_ms"] = {1e3 * st.latency_hit.percentile(0.5), "ms"};
    run.layer["serve.miss_server_p50_ms"] = {1e3 * st.latency_miss.percentile(0.5), "ms"};
    run.layer["serve.queue_peak"] = {double(st.queue_peak), "count"};
  }
  return res;
}

struct CampaignResult {
  double runs_per_s = 0;
  double wall = 0;
  std::size_t runs = 0;
};

/// A cold campaign session at jobs = min(4, nproc) into a fresh output
/// directory (record persistence on the path, nothing resumes).
CampaignResult campaign_phase(Run& run, const std::string& text) {
  Tracer* tr = run.tr();
  Scope phase(tr, "phase/campaign");
  const campaign::CampaignSpec spec = campaign::parse_campaign(text, scenario::RunSpec{});
  const std::filesystem::path dir = std::filesystem::path(run.out_dir) / "campaign";
  std::filesystem::remove_all(dir);
  campaign::ExecutorOptions opts;
  opts.jobs = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  opts.out_dir = dir.string();
  campaign::Executor ex{spec, opts};
  if (tr) {
    // The executor's serial pre-warm, stage by stage: one trace derivation
    // per distinct workload key, one cost profile per level.
    std::set<std::tuple<int, int>> keys;
    for (const campaign::CampaignRun& r : ex.runs()) {
      const scenario::RunSpec& rs = r.spec.run;
      time_cost_profile(run, rs);
      if (keys.emplace(static_cast<int>(rs.level), rs.rank_count()).second) {
        Scope s(tr, "dperf.traces");
        scenario::Runner{r.spec}.traces();
      }
    }
  }
  const auto t0 = Clock::now();
  const campaign::CampaignReport report =
      timed(tr, "campaign.execute", [&] { return ex.execute(); });
  const double scale = run.host.scale(t0, Clock::now());
  std::filesystem::remove_all(dir);

  CampaignResult res;
  res.wall = report.wall_seconds * scale;
  const double raw_wall = report.wall_seconds;
  res.runs = ex.outcomes().size();
  res.runs_per_s = res.wall > 0 ? static_cast<double>(res.runs) / res.wall : 0;
  run.check(report.errors == 0, "campaign reported errors");
  std::vector<double> walls;
  double busy = 0;
  for (const campaign::Outcome& out : ex.outcomes()) {
    run.accept_record(out.record_json, "campaign record " + out.run.key, /*fixed=*/false);
    walls.push_back(out.wall_seconds);
    busy += out.wall_seconds;
  }
  // One cell issued again on its own (memo now hot): identical bytes.
  const campaign::Outcome& first = ex.outcomes().front();
  run.check(scenario::Runner{first.run.spec}.try_run().to_json() == first.record_json,
            "campaign cell repeated with different bytes");
  if (tr) {
    run.layer["campaign.run_p50_s"] = {e2e::median(walls), "s"};
    run.layer["campaign.parallel_efficiency"] = {busy / (opts.jobs * raw_wall), "ratio"};
    for (std::size_t k = 0; k < std::min<std::size_t>(4, ex.outcomes().size()); ++k) {
      Scope s(tr, "scenario.reference");
      scenario::Runner{ex.outcomes()[k].run.spec}.run_reference();
    }
  }
  return res;
}

// ------------------------------------------------------------- workloads

struct Phases {
  std::vector<double> cold;          // cold_grid5000, cold_analytic, cold_ranks32
  std::vector<double> setup;         // per set-up
  WarmResult warm;
  CampaignResult campaign;
};

/// The three cold requests at quick sizing, once per probe salt; each
/// latency is the median over the salts.
std::vector<double> cold_probe(Run& run) {
  std::vector<std::vector<double>> samples(3);
  for (double salt : kColdProbeSalts) {
    const std::vector<double> lat = cold_phase(run, e2e::cold_specs(/*paper=*/false, salt));
    for (std::size_t k = 0; k < samples.size(); ++k) samples[k].push_back(lat[k]);
  }
  return {e2e::median(samples[0]), e2e::median(samples[1]), e2e::median(samples[2])};
}

/// One cold 96-run campaign session per salt; runs/s is the median over
/// sessions.
CampaignResult campaign_sessions(Run& run) {
  std::vector<double> rates;
  CampaignResult res;
  for (double salt : kCampaignSalts) {
    res = campaign_phase(run, e2e::campaign_text(run.seed, salt));
    rates.push_back(res.runs_per_s);
  }
  res.runs_per_s = e2e::median(rates);
  return res;
}

void run_workload(Run& run, Phases& p) {
  std::unique_ptr<serve::Server> server;
  // The workload's own phase, timed for the tracing overhead and spanned
  // as the root of the layer shares.
  auto main_phase = [&run](auto&& body) {
    Scope s(run.tr(), "main");
    run.main_phase = s.id();
    const auto t0 = Clock::now();
    body();
    run.main_wall = since(t0);
  };
  if (run.workload == "cold_predict") {
    main_phase([&] {
      // Every salt is a fresh set of keys. The paper-size requests take
      // seconds each: grid5000 runs on two salts, analytic on one; the
      // 32-rank request runs on every salt.
      std::vector<std::vector<double>> samples(3);
      for (std::size_t k = 0; k < kMainSalts.size(); ++k) {
        const std::vector<std::string> specs = e2e::cold_specs(/*paper=*/true, kMainSalts[k]);
        const std::vector<std::size_t> picks =
            k == 0 ? std::vector<std::size_t>{0, 1, 2}
                   : k == 1 ? std::vector<std::size_t>{0, 2} : std::vector<std::size_t>{2};
        std::vector<std::string> texts;
        for (std::size_t i : picks) texts.push_back(specs[i]);
        const std::vector<double> lat = cold_phase(run, texts);
        for (std::size_t j = 0; j < picks.size(); ++j) samples[picks[j]].push_back(lat[j]);
      }
      p.cold = {e2e::median(samples[0]), e2e::median(samples[1]), e2e::median(samples[2])};
    });
    if (run.main_only) return;
    server = setup_phase(run, kProbeHotSalts, p.setup);
    p.warm = warm_phase(run, *server, kProbeHotSalts, kWarmProbeSeconds);
    p.campaign = campaign_sessions(run);
  } else if (run.workload == "warm_whatif") {
    server = setup_phase(run, kMainSalts, p.setup);
    main_phase([&] { p.warm = warm_phase(run, *server, kMainSalts, run.seconds); });
    if (run.main_only) return;
    p.cold = cold_probe(run);
    p.campaign = campaign_sessions(run);
  } else {
    throw std::invalid_argument("unknown workload '" + run.workload +
                                "' (cold_predict | warm_whatif)");
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void end_to_end_metrics(Run& run, const Phases& p) {
  auto& m = run.e2e;
  // Phase results are in reference-host seconds already (HostGauge).
  m["setup_s"] = {e2e::median(p.setup), "s"};
  m["cold_grid5000_s"] = {p.cold.at(0), "s"};
  m["cold_analytic_s"] = {p.cold.at(1), "s"};
  m["cold_ranks32_s"] = {p.cold.at(2), "s"};
  m["whatif_p50_ms"] = {1e3 * e2e::median(p.warm.all), "ms"};
  m["whatif_p99_ms"] = {1e3 * e2e::tail_percentile(p.warm.all).value, "ms"};
  m["hit_p50_ms"] = {1e3 * e2e::median(p.warm.hits), "ms"};
  m["whatif_rps"] = {p.warm.wall > 0 ? double(p.warm.all.size()) / p.warm.wall : 0, "1/s"};
  m["campaign_runs_per_s"] = {p.campaign.runs_per_s, "1/s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  m["prediction_error_pct"] = {mean(run.prediction_errors_pct), "%"};
  m["analytic_error_pct"] = {mean(run.analytic_errors_pct), "%"};
}

/// True when span `i` lies strictly inside span `ancestor`.
bool descends(const std::vector<e2e::Span>& spans, int i, int ancestor) {
  if (i < 0 || ancestor < 0) return false;
  int p = spans[static_cast<std::size_t>(i)].parent;
  while (p >= 0 && p != ancestor) p = spans[static_cast<std::size_t>(p)].parent;
  return p == ancestor;
}

void per_layer_metrics(Run& run) {
  const std::vector<e2e::Span>& spans = run.tr()->spans();
  const std::vector<double> self = e2e::self_times(spans);
  // Layer shares are taken over the workload's own phase, or over the
  // staged pass inside it when the phase has one (warm_whatif).
  const int root = descends(spans, run.layer_root, run.main_phase) ? run.layer_root
                                                                     : run.main_phase;
  std::map<std::string, std::vector<double>> dur;
  double vm_self = 0, ir_time = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& s = spans[i];
    dur[s.name].push_back(s.end - s.start);
    if (!descends(spans, static_cast<int>(i), root)) continue;
    if (s.name == "dperf.trace_rank" || s.name == "vm.run_main") vm_self += self[i];
    if (s.name == "ir.compile" || s.name == "ir.compile.in_trace") ir_time += s.end - s.start;
  }
  auto med = [&](const char* name) { return e2e::median(dur[name]); };
  auto& m = run.layer;
  m["dperf.front_s"] = {med("dperf.front"), "s"};
  m["ir.compile_s"] = {med("ir.compile"), "s"};
  m["vm.instructions"] = {double(run.vm_instructions), "count"};
  m["vm.minstr_per_s"] = {run.vm_seconds > 0 ? run.vm_instructions / run.vm_seconds / 1e6 : 0,
                          "Minstr/s"};
  m["dperf.cost_profile_s"] = {med("dperf.cost_profile"), "s"};
  m["dperf.trace_rank_s"] = {med("dperf.trace_rank"), "s"};
  const std::vector<double>& ranks = dur["dperf.trace_rank"];
  m["dperf.trace_rank_max_s"] = {ranks.empty() ? 0 : *std::max_element(ranks.begin(), ranks.end()),
                                 "s"};
  m["dperf.traces_s"] = {med("dperf.traces"), "s"};
  m["dperf.summarize_s"] = {med("dperf.summarize"), "s"};
  m["scenario.deploy_s"] = {med("scenario.deploy"), "s"};
  m["net.build_platform_s"] = {med("net.build_platform"), "s"};
  m["scenario.reference_s"] = {med("scenario.reference"), "s"};
  m["dperf.replay_s"] = {med("dperf.replay"), "s"};
  m["dperf.plan_s"] = {med("dperf.plan"), "s"};
  m["sim.events"] = {double(run.events), "count"};
  m["sim.events_per_s"] = {run.sim_seconds > 0 ? run.events / run.sim_seconds : 0, "1/s"};
  m["net.flows_started"] = {double(run.flows), "count"};
  m["net.reshares"] = {double(run.reshares), "count"};
  const double lookups = double(run.route_hits + run.routes_computed);
  m["net.route_hit_ratio"] = {lookups > 0 ? run.route_hits / lookups : 0, "ratio"};
  m["scenario.record_json_s"] = {med("scenario.record_json"), "s"};
  m["scenario.memo_trace_bytes"] = {double(scenario::memo_stats().trace_bytes), "bytes"};
  const double root_dur =
      root >= 0 ? spans[static_cast<std::size_t>(root)].end -
                      spans[static_cast<std::size_t>(root)].start
                : 0;
  m["vm.self_share"] = {root_dur > 0 ? vm_self / root_dur : 0, "ratio"};
  m["ir.compile_share"] = {root_dur > 0 ? ir_time / root_dur : 0, "ratio"};
  m["trace.coverage"] = {root >= 0 ? e2e::layer_coverage(spans, root) : 0, "ratio"};
}

void write_spans(const Run& run) {
  JsonWriter w;
  w.begin_array();
  for (const e2e::Span& s : run.tr()->spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("start", s.start);
    w.kv("end", s.end);
    w.kv("parent", s.parent);
    w.end_object();
  }
  w.end_array();
  const std::filesystem::path path = std::filesystem::path(run.out_dir) /
                                     ("spans-" + run.workload + "-" +
                                      std::to_string(run.seed) + ".json");
  std::ofstream out(path);
  out << w.str() << "\n";
}

std::string result_json(const Run& run, const std::map<std::string, Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += run.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(run.attempted);
  s += ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.unit + "\"}";
    first = false;
  }
  return s + "}}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: e2ebench --workload cold_predict|warm_whatif "
               "--seed <n> --seconds <s> --trace 0|1 [--out <dir>] [--main-only 0|1]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.out_dir = ".bench_out";
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") run.workload = value;
    else if (key == "--seed") run.seed = std::stoull(value);
    else if (key == "--seconds") run.seconds = std::stod(value);
    else if (key == "--trace") trace = std::stoi(value);
    else if (key == "--out") run.out_dir = value;
    else if (key == "--main-only") run.main_only = std::stoi(value) != 0;
    else return usage(("unknown argument " + key).c_str());
  }
  if (run.workload.empty()) return usage("missing --workload");
  // Knobs that would change what is measured must not leak in.
  for (const char* knob : {"PDC_QUICK", "PDC_TRACE_DIR", "PDC_SERVE_CACHE_BYTES",
                           "PDC_CAMPAIGN_JOBS"}) {
    if (!env_str(knob).empty()) {
      std::fprintf(stderr, "refusing to run with %s set; unset it first\n", knob);
      return 2;
    }
  }
  if (trace) run.tracer = std::make_unique<Tracer>();
  std::filesystem::create_directories(run.out_dir);

  Phases p;
  try {
    Scope root(run.tr(), "run");
    run_workload(run, p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", run.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s seed %llu trace %d\n", run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), trace);
  std::printf("main_phase_wall_s %.6f\n", run.main_wall);
  if (run.main_only) {
    // Only the untraced wall of the workload's own phase is wanted.
    std::printf("%s\n", result_json(run, {}).c_str());
    return 0;
  }
  const std::vector<double> gauges = run.host.durations();
  std::printf("host gauge: %zu timings, p10 %.3f ms, median %.3f ms, p90 %.3f ms (reference "
              "host %.3f ms); times below are reference-host seconds\n",
              gauges.size(), 1e3 * quantile(gauges, 0.1), 1e3 * e2e::median(gauges),
              1e3 * quantile(gauges, 0.9), 1e3 * kGaugeNominalS);
  std::printf("cold requests: grid5000 %.3f s, analytic %.3f s, ranks32 %.3f s\n",
              p.cold.at(0), p.cold.at(1), p.cold.at(2));
  std::printf("set-ups: %zu, median %.3f s\n", p.setup.size(), e2e::median(p.setup));
  const e2e::Tail tail = e2e::tail_percentile(p.warm.all);
  std::printf("what-if: %zu requests in %.2f s, tail p%.2f with %zu samples beyond\n",
              p.warm.all.size(), p.warm.wall, 100 * tail.p, tail.beyond);
  std::printf("  latency quantiles (ms):");
  for (double q : {0.25, 0.4, 0.5, 0.6, 0.75, 0.9})
    std::printf(" p%.0f %.3f", 100 * q, 1e3 * quantile(p.warm.all, q));
  std::printf("\n  median request: %s; tail requests:", p.warm.median_class.c_str());
  for (const auto& [cls, n] : p.warm.tail_classes) std::printf(" %s %d", cls.c_str(), n);
  std::printf("\n");
  for (const auto& [cls, lat] : p.warm.by_class)
    std::printf("  class %-8s n=%5zu p50 %8.3f ms max %8.3f ms\n", cls.c_str(), lat.size(),
                1e3 * e2e::median(lat), 1e3 * *std::max_element(lat.begin(), lat.end()));
  std::printf("campaign: %zu runs in %.3f s\n", p.campaign.runs, p.campaign.wall);
  std::printf("failed_frac %.6f (%llu of %llu)\n",
              run.attempted ? double(run.failed) / double(run.attempted) : 0.0,
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  for (const std::string& f : run.failures) std::printf("  FAILED %s\n", f.c_str());
  std::printf("campaign records: mean prediction error %.3f%% over %zu churn-free runs\n",
              mean(run.seeded_prediction_errors_pct), run.seeded_prediction_errors_pct.size());
  std::printf("simulated digest %016llx over %zu records\n",
              static_cast<unsigned long long>(e2e::fnv1a(run.simulated)),
              static_cast<std::size_t>(std::count(run.simulated.begin(), run.simulated.end(),
                                                  '\n')));
  if (trace) {
    per_layer_metrics(run);
    write_spans(run);
    std::printf("%s\n", result_json(run, run.layer).c_str());
  } else {
    end_to_end_metrics(run, p);
    std::printf("%s\n", result_json(run, run.e2e).c_str());
  }
  return 0;
}
