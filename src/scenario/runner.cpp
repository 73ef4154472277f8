#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "churn/injector.hpp"
#include "dperf/analytic.hpp"
#include "net/platfile.hpp"
#include "obs/metrics.hpp"
#include "obs/publish.hpp"
#include "obs/trace.hpp"
#include "obstacle/minic_kernel.hpp"
#include "support/env.hpp"
#include "support/file.hpp"
#include "support/json.hpp"
#include "support/memo.hpp"
#include "support/rng.hpp"

namespace pdc::scenario {

namespace {

// The one worker-resource policy, shared with the churn injector's
// replacement peers (see p2pdc/environment.hpp).
using p2pdc::worker_resources;

obstacle::ObstacleProblem problem_of(const RunSpec& run) {
  obstacle::ObstacleProblem p;
  p.n = run.grid_n;
  p.omega = run.omega;
  return p;
}

obstacle::ObstacleProblem bench_problem_of(const RunSpec& run) {
  obstacle::ObstacleProblem p;
  p.n = run.bench_n;
  p.omega = run.omega;
  return p;
}

obstacle::DistributedConfig config_of(const RunSpec& run) {
  obstacle::DistributedConfig cfg;
  cfg.problem = problem_of(run);
  cfg.iters = run.iters;
  cfg.rcheck = run.rcheck;
  cfg.mode = obstacle::ValueMode::Phantom;
  cfg.scheme = run.scheme;
  cfg.allocation = run.allocation;
  cfg.cmax = run.cmax;
  return cfg;
}

/// Boots one worker host: a full PeerActor by default, or — under `boot
/// lazy` — a passive overlay registration with no actor, no mailboxes and
/// no idle events (the 10^5..10^6-peer lever; see
/// Overlay::register_passive_peer). Trackers must already be booted.
void boot_worker(Deployment& d, const RunSpec& run, net::NodeIdx h) {
  if (run.lazy_boot) {
    if (!d.env->boot_passive_peer(h, worker_resources(d.platform, h)))
      throw std::runtime_error("boot lazy: no tracker to register passive peers with");
  } else {
    d.env->boot_peer(h, worker_resources(d.platform, h));
  }
  d.workers.push_back(h);
}

/// Daisy deployment (paper Stage-2A): server and one tracker per petal at
/// petal boundaries, submitter next to the server, workers spread across
/// the whole desktop grid, seed-deterministic.
void deploy_daisy(Deployment& d, const net::DaisySpec& spec, const RunSpec& run) {
  const int hosts = d.platform.host_count();
  const int needed = run.peers + 2 + spec.central_routers;
  if (hosts < needed)
    throw std::runtime_error("platform has " + std::to_string(hosts) +
                             " hosts, run needs " + std::to_string(needed));
  d.env->boot_server(d.platform.host(0));
  const int per_petal = hosts / spec.central_routers;
  std::vector<int> used{0};
  for (int p = 0; p < spec.central_routers; ++p) {
    const int idx = p * per_petal + 1;
    d.env->boot_tracker(d.platform.host(idx), /*core=*/true);
    used.push_back(idx);
  }
  const int submitter_idx = 2;
  used.push_back(submitter_idx);
  d.submitter = d.platform.host(submitter_idx);
  d.env->boot_peer(d.submitter, worker_resources(d.platform, d.submitter));
  const int stride = hosts / run.peers;
  int placed = 0;
  for (int k = 0; placed < run.peers && k < hosts; ++k) {
    int idx = (3 + k * stride) % hosts;
    while (std::find(used.begin(), used.end(), idx) != used.end()) idx = (idx + 1) % hosts;
    used.push_back(idx);
    boot_worker(d, run, d.platform.host(idx));
    ++placed;
  }
}

/// Federation deployment: administrator roles on the first three hosts
/// (site-major order), workers round-robined across sites so a multi-site
/// run actually crosses the WAN.
void deploy_federation(Deployment& d, const net::FederationSpec& spec, const RunSpec& run) {
  const int per_site = spec.hosts_per_cluster;
  if (d.platform.host_count() < run.peers + 3)
    throw std::runtime_error("federation platform has " +
                             std::to_string(d.platform.host_count()) + " hosts, run needs " +
                             std::to_string(run.peers + 3));
  d.env->boot_server(d.platform.host(0));
  d.env->boot_tracker(d.platform.host(1), /*core=*/true);
  d.submitter = d.platform.host(2);
  d.env->boot_peer(d.submitter, worker_resources(d.platform, d.submitter));
  // Per-site cursors start past the three admin hosts, which occupy global
  // indices 0..2 and may spill across sites when sites are small.
  std::vector<int> cursor(static_cast<std::size_t>(spec.clusters), 0);
  for (int s = 0; s < spec.clusters; ++s)
    cursor[static_cast<std::size_t>(s)] = std::clamp(3 - s * per_site, 0, per_site);
  for (int placed = 0, site = 0; placed < run.peers;) {
    const auto s = static_cast<std::size_t>(site);
    if (cursor[s] < per_site) {
      const int idx = site * per_site + cursor[s]++;
      boot_worker(d, run, d.platform.host(idx));
      ++placed;
    } else if (std::all_of(cursor.begin(), cursor.end(),
                           [&](int c) { return c >= per_site; })) {
      throw std::runtime_error("federation platform too small for the run");
    }
    site = (site + 1) % spec.clusters;
  }
}

/// Default deployment: server first, then `run.trackers` core trackers
/// spread across the host (= IP) range so zones stay balanced under the
/// overlay's IP-proximity join; submitter and workers fill the remaining
/// hosts in index order. With trackers=1 this is the historical layout —
/// server, tracker, submitter, workers on hosts 0, 1, 2, 3...
void deploy_sequential(Deployment& d, const RunSpec& run) {
  const int trackers = std::max(1, run.trackers);
  const int hosts = d.platform.host_count();
  const int needed = run.peers + 2 + trackers;
  if (hosts < needed)
    throw std::runtime_error("platform has " + std::to_string(hosts) +
                             " hosts, run needs " + std::to_string(needed));
  std::vector<char> used(static_cast<std::size_t>(hosts), 0);
  d.env->boot_server(d.platform.host(0));
  used[0] = 1;
  for (int t = 0; t < trackers; ++t) {
    int idx = 1 + static_cast<int>(static_cast<long long>(t) * (hosts - 1) / trackers);
    while (used[static_cast<std::size_t>(idx)]) idx = (idx + 1) % hosts;
    used[static_cast<std::size_t>(idx)] = 1;
    d.env->boot_tracker(d.platform.host(idx), /*core=*/true);
  }
  int cursor = 0;
  auto next_free = [&] {
    while (used[static_cast<std::size_t>(cursor)]) ++cursor;
    used[static_cast<std::size_t>(cursor)] = 1;
    return cursor;
  };
  // The submitter stays a full PeerActor even under `boot lazy`: peer
  // collection and result gathering run on it.
  d.submitter = d.platform.host(next_free());
  d.env->boot_peer(d.submitter, worker_resources(d.platform, d.submitter));
  for (int placed = 0; placed < run.peers; ++placed)
    boot_worker(d, run, d.platform.host(next_free()));
}

/// Federation sizing shared by build_platform and deploy: auto-size sites
/// so `peers` workers plus the three admin hosts (and churn provisioning)
/// fit.
net::FederationSpec sized_federation(const net::FederationSpec& spec, const RunSpec& run,
                                     int extra_hosts = 0) {
  net::FederationSpec sized = spec;
  if (sized.hosts_per_cluster <= 0)
    sized.hosts_per_cluster =
        (run.peers + 3 + extra_hosts + sized.clusters - 1) / sized.clusters;
  return sized;
}

/// Failover trackers booted alongside the paper deployment when churn is
/// enabled, so peers orphaned by a tracker crash have neighbour zones to
/// re-join (and the injector has crashable trackers that never take the
/// overlay below one).
constexpr int kChurnFailoverTrackers = 2;

/// Churn host provisioning for one run: failover trackers plus one spare
/// host per join event in the expanded timeline.
int churn_extra_hosts(const std::vector<churn::ChurnEvent>& timeline) {
  int joins = 0;
  for (const churn::ChurnEvent& ev : timeline)
    if (ev.kind == churn::ChurnEvent::Kind::PeerJoin) ++joins;
  return kChurnFailoverTrackers + joins;
}

void phase_json(JsonWriter& w, const PhaseRecord& ph, bool with_iterations) {
  // The subsystem blocks are rendered *from* the metrics registry: the
  // publish_* bridges (obs/publish.cpp) register every field in the
  // historical order, so this stays byte-identical to the hand-written
  // writer it replaced — the golden record tests prove it.
  obs::Registry reg;
  obs::publish_flownet(reg, ph.net);
  obs::publish_routes(reg, ph.routes);
  obs::publish_engine(reg, ph.engine);
  if (ph.churn) obs::publish_churn(reg, *ph.churn);
  w.begin_object();
  w.kv("solve_seconds", ph.solve_seconds);
  w.kv("total_seconds", ph.total_seconds);
  if (with_iterations) w.kv("iterations", ph.iterations);
  w.key("computation").begin_object();
  w.kv("peers", ph.computation.peers);
  w.kv("groups", ph.computation.groups);
  w.kv("collection_seconds", ph.computation.collection_time());
  w.kv("allocation_seconds", ph.computation.allocation_time());
  w.kv("total_seconds", ph.computation.total_time());
  w.end_object();
  w.key("flownet").begin_object();
  reg.json_fields(w, "flownet");
  w.end_object();
  w.key("routes").begin_object();
  reg.json_fields(w, "routes");
  w.end_object();
  w.key("engine").begin_object();
  reg.json_fields(w, "engine");
  w.end_object();
  if (ph.churn) {
    w.key("churn").begin_object();
    reg.json_fields(w, "churn");
    w.end_object();
  }
  w.end_object();
}

/// Fault injector over a fresh deployment when the spec churns. The caller
/// must arm() it from its final storage: arming registers engine callbacks
/// that capture the injector's address.
std::optional<churn::Injector> make_injector(Deployment& d, const RunSpec& run) {
  if (!run.churn.enabled()) return std::nullopt;
  return churn::Injector(*d.env, d.workers, d.crashable_trackers, d.spare_hosts,
                         d.churn_timeline, churn::injection_seed(run.churn, run.seed));
}

/// Post-phase churn observability: injector counters, submissions used, and
/// the zone failovers the overlay performed.
ChurnPhaseRecord churn_phase_record(const Deployment& d, const churn::Injector& injector,
                                    int attempts) {
  ChurnPhaseRecord rec;
  rec.stats = injector.stats();
  rec.attempts = attempts;
  for (const overlay::PeerActor* p : d.env->over().peers())
    rec.rejoins += p->rejoin_count();
  return rec;
}

}  // namespace

net::Platform build_platform(const PlatformSpec& spec, const RunSpec& run,
                             int extra_hosts) {
  const int needed = run.peers + 2 + std::max(1, run.trackers) + extra_hosts;
  if (const auto* s = std::get_if<net::StarSpec>(&spec.spec)) {
    net::StarSpec sized = *s;
    if (sized.hosts <= 0) sized.hosts = needed;
    return net::build_star(sized);
  }
  if (const auto* s = std::get_if<net::DaisySpec>(&spec.spec)) {
    Rng rng{run.seed};
    return net::build_daisy(*s, rng);
  }
  if (const auto* s = std::get_if<net::FederationSpec>(&spec.spec))
    return net::build_federation(sized_federation(*s, run, extra_hosts));
  if (const auto* s = std::get_if<net::WanSpec>(&spec.spec)) {
    net::WanSpec sized = *s;
    if (sized.hosts <= 0) sized.hosts = needed;
    Rng rng{run.seed};
    return net::build_wan(sized, rng);
  }
  if (const auto* s = std::get_if<net::ScaleFreeSpec>(&spec.spec)) {
    net::ScaleFreeSpec sized = *s;
    if (sized.hosts <= 0) sized.hosts = needed;
    Rng rng{run.seed};
    return net::build_scale_free(sized, rng);
  }
  if (const auto* s = std::get_if<net::SmallWorldSpec>(&spec.spec)) {
    net::SmallWorldSpec sized = *s;
    if (sized.hosts <= 0) sized.hosts = needed;
    Rng rng{run.seed};
    return net::build_small_world(sized, rng);
  }
  const auto& f = std::get<PlatformFileSpec>(spec.spec);
  if (f.path.empty()) return net::parse_platform(f.text);
  const std::optional<std::string> text = read_file(f.path);
  if (!text) throw std::runtime_error("cannot open platform file '" + f.path + "'");
  return net::parse_platform(*text);
}

std::unique_ptr<Deployment> deploy(const PlatformSpec& spec, const RunSpec& run) {
  auto d = std::make_unique<Deployment>();
  int extra_hosts = 0;
  if (run.churn.enabled()) {
    d->churn_timeline = churn::expand_events(run.churn, run.peers, run.seed);
    extra_hosts = churn_extra_hosts(d->churn_timeline);
  }
  d->platform = build_platform(spec, run, extra_hosts);
  d->env = std::make_unique<p2pdc::Environment>(d->engine, d->platform);
  if (const auto* daisy = std::get_if<net::DaisySpec>(&spec.spec)) {
    deploy_daisy(*d, *daisy, run);
  } else if (const auto* fed = std::get_if<net::FederationSpec>(&spec.spec)) {
    deploy_federation(*d, sized_federation(*fed, run, extra_hosts), run);
  } else {
    deploy_sequential(*d, run);
  }
  if (run.churn.enabled()) {
    // The primary tracker(s) the paper deployment booted are crashable —
    // crashing one is the interesting failover case, since the zone peers
    // must re-join elsewhere.
    overlay::Overlay& over = d->env->over();
    for (const overlay::TrackerActor* t : over.trackers())
      d->crashable_trackers.push_back(t->host());
    // Churn provisioning on the hosts the paper deployment left untouched
    // (ascending index, deterministic): failover trackers join the core
    // line so orphaned peers can fail over, remaining hosts stay unbooted
    // as replacement capacity for join events. Fixed-size platforms may
    // provision less than the timeline could use; the injector then skips
    // (and counts) the events it cannot apply.
    const int joins = extra_hosts - kChurnFailoverTrackers;
    int failover_trackers = 0;
    for (int i = 0; i < d->platform.host_count(); ++i) {
      const net::NodeIdx h = d->platform.host(i);
      if (over.peer_at(h) != nullptr || over.is_passive_peer(h) ||
          over.tracker_at(h) != nullptr || over.server_host() == h)
        continue;
      if (failover_trackers < kChurnFailoverTrackers) {
        d->env->boot_tracker(h, /*core=*/true);
        d->crashable_trackers.push_back(h);
        ++failover_trackers;
      } else if (static_cast<int>(d->spare_hosts.size()) < joins) {
        d->spare_hosts.push_back(h);
      } else {
        break;
      }
    }
  }
  d->env->finish_bootstrap();
  return d;
}

namespace {

using TraceSet = std::vector<dperf::Trace>;

/// The one workload key: every RunSpec field the dPerf traces depend on —
/// never the platform, so a campaign replaying one workload across a
/// platform axis derives it once.
struct WorkloadKey {
  ir::OptLevel level;
  int rcheck, grid_n, iters, ranks;
  double omega;
  explicit WorkloadKey(const RunSpec& run)
      : level(run.level), rcheck(run.rcheck), grid_n(run.grid_n), iters(run.iters),
        ranks(run.rank_count()), omega(run.omega) {}
  auto operator<=>(const WorkloadKey&) const = default;
};

/// Cost profiles depend on the level and the block-benchmark sizing only.
struct CostKey {
  ir::OptLevel level;
  int bench_n, bench_iters, bench_rcheck;
  auto operator<=>(const CostKey&) const = default;
};

// The process-wide dPerf memos: derived once per key, shared by every
// concurrent campaign run and serve request, and observable through
// memo_stats() — the "hot across requests" working set. Derivation is
// deterministic, so which caller derives can never change a result. The
// analytic planner reads the memoized trace set itself, so a campaign
// sweeping platforms or churn axes in mode=analytic derives one workload
// once, then every grid point is just plan_on over the shared traces.
// Both are unbounded; each entry is charged its footprint for memo_stats().
support::Memo<CostKey, obstacle::CostProfile> cost_memo{
    [](const CostKey&, const obstacle::CostProfile&) { return sizeof(obstacle::CostProfile); }};
support::Memo<WorkloadKey, TraceSet> trace_memo{[](const WorkloadKey&, const TraceSet& set) {
  std::size_t bytes = 0;
  for (const dperf::Trace& t : set)
    bytes += sizeof(dperf::Trace) + t.events.capacity() * sizeof(dperf::TraceEvent);
  return bytes;
}};

std::shared_ptr<const TraceSet> shared_traces(const RunSpec& run) {
  return trace_memo.get(WorkloadKey(run), [&run] {
    dperf::DperfOptions opt;
    opt.level = run.level;
    opt.chunk = run.rcheck;
    opt.sample_iters = 3 * run.rcheck;
    const dperf::Dperf pipeline{obstacle::minic_kernel_source(), opt};
    return pipeline.traces(obstacle::kernel_workload(problem_of(run), run.iters, run.rcheck),
                           run.rank_count());
  });
}

/// The one phase driver behind the reference, predicted and analytic
/// phases: opens the phase in the trace recorder, deploys fresh
/// (`lazy_boot` forces passive workers), arms the churn injector when
/// `churn` is set and the spec churns, and runs `attempt(d, ph)` inside the
/// phase's "run" span. Under churn a submission can abort (a rank's host
/// crashed) or find too few peers (crashed ones expired, replacements still
/// joining), so a failed attempt is re-submitted on the same deployment —
/// the overlay heals, released survivors and joined replacements are
/// collected again — up to the spec's budget. An attempt fills the phase's
/// solve/total/computation fields and returns nullopt, or returns its
/// failure text; `what` names the phase in the final error.
template <class Attempt>
PhaseRecord drive_phase(const ScenarioSpec& spec, const char* phase, const char* what,
                        bool lazy_boot, bool churn, Attempt&& attempt) {
  const RunSpec& run = spec.run;
  obs::TraceRecorder* tr = obs::trace();
  if (tr) tr->begin_phase(phase);
  RunSpec booted = run;
  booted.lazy_boot = booted.lazy_boot || lazy_boot;
  auto d = deploy(spec.platform, booted);
  std::optional<churn::Injector> injector;
  if (churn) injector = make_injector(*d, run);
  if (injector) injector->arm();
  const int max_attempts = injector ? std::max(1, run.churn.max_attempts) : 1;
  if (tr)
    tr->span_begin(tr->track("run"), phase, d->engine.now(),
                   {{"peers", run.peers}, {"ranks", run.rank_count()}});
  PhaseRecord ph;
  std::optional<std::string> failure;
  int attempts = 0;
  do {
    ++attempts;
    failure = attempt(*d, ph);
  } while (failure && attempts < max_attempts);
  if (tr) tr->span_end(tr->track("run"), d->engine.now());
  if (failure)
    throw std::runtime_error(
        std::string(what) + " failed (" + spec.name + ")" +
        (churn ? " after " + std::to_string(attempts) + " attempt(s)" : std::string()) +
        ": " + *failure);
  ph.platform_hosts = d->platform.host_count();
  ph.net = d->env->flownet().stats();
  ph.routes = d->platform.route_stats();
  ph.engine = d->engine.stats();
  if (injector) ph.churn = churn_phase_record(*d, *injector, attempts);
  return ph;
}

// The prediction replays under the *identical* expanded event stream as
// the reference (same timeline, same injection seed), so mode=both
// measures prediction accuracy under churn, not under different luck.
PhaseRecord predicted_phase(const ScenarioSpec& spec,
                            const std::shared_ptr<const TraceSet>& traces) {
  const RunSpec& run = spec.run;
  return drive_phase(
      spec, "predicted", "prediction replay", /*lazy_boot=*/false, /*churn=*/true,
      [&](Deployment& d, PhaseRecord& ph) -> std::optional<std::string> {
        dperf::Prediction pred = dperf::replay_on(
            *d.env, d.submitter, obstacle::make_task_spec(config_of(run), run.rank_count()),
            traces);
        if (!pred.computation.ok) return std::move(pred.computation.failure);
        ph.solve_seconds = pred.solve_seconds;
        ph.total_seconds = pred.total_seconds;
        ph.computation = std::move(pred.computation);
        return std::nullopt;
      });
}

PhaseRecord analytic_phase(const ScenarioSpec& spec, const TraceSet& traces) {
  // A deployment supplies the platform, the booted overlay (tracker lists
  // for the collection model) and the worker placement — but the planner
  // runs zero simulation on it: no events, no flows, no churn injection
  // (the plan prices the churn-free baseline). Workers boot lazily
  // regardless of the spec's knob: passive registration yields the
  // identical placement without simulating any peer actors, so the
  // deployment cost stays out of the plan's per-grid-point budget.
  const RunSpec& run = spec.run;
  return drive_phase(
      spec, "analytic", "analytic plan", /*lazy_boot=*/true, /*churn=*/false,
      [&](Deployment& d, PhaseRecord& ph) -> std::optional<std::string> {
        dperf::AnalyticReport rep =
            dperf::plan_on(*d.env, d.submitter,
                           obstacle::make_task_spec(config_of(run), run.rank_count()),
                           traces, d.workers);
        if (!rep.ok) return std::move(rep.failure);
        ph.solve_seconds = rep.solve_seconds;
        ph.total_seconds = rep.total_seconds;
        // Synthetic computation milestones on the planner's clock
        // (t_submit = 0), so collection/allocation/total read as usual.
        ph.computation.ok = true;
        ph.computation.peers = rep.peers;
        ph.computation.groups = rep.groups;
        ph.computation.t_submit = 0;
        ph.computation.t_collected = rep.collection_seconds;
        ph.computation.t_allocated = rep.collection_seconds + rep.allocation_seconds;
        ph.computation.t_finished = rep.total_seconds;
        return std::nullopt;
      });
}

}  // namespace

const obstacle::CostProfile& cost_profile(ir::OptLevel level, const RunSpec& run) {
  // cost_memo is unbounded, so the entry (and the reference) outlives the call.
  const CostKey key{level, run.bench_n, run.bench_iters, run.bench_rcheck};
  return *cost_memo.get(key, [&] {
    return obstacle::derive_cost_profile(level, bench_problem_of(run), run.bench_iters,
                                         run.bench_rcheck);
  });
}

MemoStats memo_stats() {
  const support::MemoStats cost = cost_memo.stats();
  const support::MemoStats traces = trace_memo.stats();
  return MemoStats{cost.entries, cost.bytes, traces.entries, traces.bytes};
}

std::unique_ptr<Deployment> Runner::deploy() const {
  return scenario::deploy(spec_.platform, spec_.run);
}

std::vector<dperf::Trace> Runner::traces() const { return *shared_traces(spec_.run); }

PhaseRecord Runner::run_reference() const {
  const RunSpec& run = spec_.run;
  return drive_phase(
      spec_, "reference", "reference run", /*lazy_boot=*/false, /*churn=*/true,
      [&run](Deployment& d, PhaseRecord& ph) -> std::optional<std::string> {
        obstacle::DistributedConfig cfg = config_of(run);
        cfg.cost = cost_profile(run.level, run);
        obstacle::SolveReport rep =
            obstacle::run_distributed(*d.env, d.submitter, cfg, run.rank_count());
        if (!rep.ok) return std::move(rep.failure);
        ph.solve_seconds = rep.solve_seconds;
        ph.total_seconds = rep.computation.total_time();
        ph.iterations = rep.iterations;
        ph.computation = std::move(rep.computation);
        return std::nullopt;
      });
}

PhaseRecord Runner::run_predicted(std::vector<dperf::Trace> traces) const {
  return predicted_phase(spec_, std::make_shared<const TraceSet>(std::move(traces)));
}

PhaseRecord Runner::run_analytic(const std::vector<dperf::Trace>& traces) const {
  return analytic_phase(spec_, traces);
}

RunRecord Runner::run_phases(const char*& phase) const {
  // The spec rows' floors, for specs built in code: rcheck divides, cmax 0
  // never ends the chunk split, and a NaN omega aliases every memo key.
  const RunSpec& run = spec_.run;
  if (run.peers < 1)
    throw std::runtime_error("peers (" + std::to_string(run.peers) + ") must be >= 1");
  if (run.rcheck < 1)
    throw std::runtime_error("rcheck (" + std::to_string(run.rcheck) + ") must be >= 1");
  if (run.cmax < 1)
    throw std::runtime_error("cmax (" + std::to_string(run.cmax) + ") must be >= 1");
  if (!std::isfinite(run.omega))
    throw std::runtime_error("omega (" + format_shortest(run.omega) + ") must be finite");
  if (run.ranks > run.peers)
    throw std::runtime_error("ranks (" + std::to_string(run.ranks) + ") exceed peers (" +
                             std::to_string(run.peers) + ")");
  // Tracing: the spec's `trace <path>` knob wins; PDC_TRACE_DIR supplies a
  // per-scenario default. The recorder is installed for this thread only —
  // parallel campaign workers each scope their own run — and the file is
  // written after the phases complete (failed runs leave no trace file).
  std::string trace_path = spec_.run.trace_path;
  if (trace_path.empty()) {
    const std::string dir = env_str("PDC_TRACE_DIR");
    if (!dir.empty()) {
      // The env knob names a directory we compose the filename into, so
      // create it here; an explicit `trace <path>` keeps strict semantics.
      std::filesystem::create_directories(dir);
      trace_path = dir + "/" + spec_.name + ".trace.json";
    }
  }
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::optional<obs::TraceScope> scope;
  if (!trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    scope.emplace(recorder.get());
  }
  RunRecord rec;
  rec.spec = spec_;
  rec.platform_kind = spec_.platform.kind();
  rec.platform_label = spec_.platform.label;
  const Mode mode = spec_.run.mode;
  if (mode == Mode::Reference || mode == Mode::Both) {
    phase = "reference";
    rec.reference = run_reference();
  }
  const bool predicts = mode == Mode::Predict || mode == Mode::Both ||
                        mode == Mode::BothAnalytic;
  const bool plans = mode == Mode::Analytic || mode == Mode::BothAnalytic;
  std::shared_ptr<const TraceSet> tr;
  if (predicts || plans) {
    phase = "traces";
    tr = shared_traces(spec_.run);
  }
  if (predicts) {
    phase = "predicted";
    rec.predicted = predicted_phase(spec_, tr);
  }
  if (plans) {
    phase = "analytic";
    rec.analytic = analytic_phase(spec_, *tr);
  }
  if (recorder) {
    phase = "trace";
    recorder->write(trace_path);
  }
  phase = "record";
  rec.platform_hosts = rec.reference  ? rec.reference->platform_hosts
                       : rec.predicted ? rec.predicted->platform_hosts
                                       : rec.analytic->platform_hosts;
  if (rec.reference && rec.predicted && rec.reference->solve_seconds > 0)
    rec.prediction_error =
        std::abs(rec.predicted->solve_seconds - rec.reference->solve_seconds) /
        rec.reference->solve_seconds;
  if (rec.analytic && rec.predicted && rec.predicted->solve_seconds > 0)
    rec.analytic_error =
        std::abs(rec.analytic->solve_seconds - rec.predicted->solve_seconds) /
        rec.predicted->solve_seconds;
  return rec;
}

RunRecord Runner::run() const {
  const char* phase = "setup";
  return run_phases(phase);
}

RunRecord Runner::try_run() const noexcept {
  // Phases run one at a time so the error can name the one that failed —
  // and resource-exhaustion escapes (std::bad_alloc from a huge platform,
  // std::system_error from the OS) are captured as text like any other
  // failure: a churn-induced mid-run abort must yield a record, never a
  // dead campaign worker.
  const char* phase = "setup";
  try {
    return run_phases(phase);
  } catch (...) {
    RunRecord rec;
    rec.spec = spec_;
    rec.platform_kind = spec_.platform.kind();
    rec.platform_label = spec_.platform.label;
    try {
      throw;
    } catch (const std::bad_alloc&) {
      rec.error = std::string("[") + phase + "] out of memory (std::bad_alloc)";
    } catch (const std::system_error& e) {
      rec.error = std::string("[") + phase + "] system error: " + e.what();
    } catch (const std::exception& e) {
      rec.error = std::string("[") + phase + "] " + e.what();
    } catch (...) {
      rec.error = std::string("[") + phase + "] unknown error";
    }
    return rec;
  }
}

std::string RunRecord::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("scenario", spec.name);
  // The complete canonical spec text: the record's identity. Campaign
  // resume compares it against the expected spec, so editing *any* base
  // parameter — including a variant's platform key=values or inline
  // platform text — invalidates old records. (Platform files are
  // identified by path; edits to the file's contents are not detected.)
  w.kv("spec", render_scenario(spec));
  w.key("platform").begin_object();
  w.kv("kind", platform_kind);
  w.kv("label", platform_label);
  w.kv("hosts", platform_hosts);
  w.end_object();
  w.key("run").begin_object();
  w.kv("peers", spec.run.peers);
  w.kv("ranks", spec.run.rank_count());
  w.kv("opt", ir::opt_level_name(spec.run.level));
  w.kv("mode", mode_name(spec.run.mode));
  w.kv("alloc", render_run_value(spec.run, "alloc"));
  w.kv("scheme", render_run_value(spec.run, "scheme"));
  w.kv("seed", spec.run.seed);
  w.kv("grid", spec.run.grid_n);
  w.kv("iters", spec.run.iters);
  w.kv("rcheck", spec.run.rcheck);
  w.kv("bench_n", spec.run.bench_n);
  w.kv("bench_iters", spec.run.bench_iters);
  w.kv("bench_rcheck", spec.run.bench_rcheck);
  w.kv("omega", spec.run.omega);
  w.kv("cmax", spec.run.cmax);
  w.kv("boot", render_run_value(spec.run, "boot"));
  w.kv("trackers", spec.run.trackers);
  w.end_object();
  if (reference) {
    w.key("reference");
    phase_json(w, *reference, /*with_iterations=*/true);
  }
  if (predicted) {
    w.key("predicted");
    phase_json(w, *predicted, /*with_iterations=*/false);
  }
  if (analytic) {
    w.key("analytic");
    phase_json(w, *analytic, /*with_iterations=*/false);
  }
  if (prediction_error) w.kv("prediction_error", *prediction_error);
  if (analytic_error) w.kv("analytic_error", *analytic_error);
  if (!error.empty()) w.kv("error", error);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace pdc::scenario
