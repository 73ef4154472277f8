#include "p2pdc/environment.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace pdc::p2pdc {

namespace {
// Internal tag space (user tags are >= 0).
constexpr int kTagGroupAssign = -10;
constexpr int kTagReverse = -11;
constexpr int kTagSubtask = -12;
constexpr int kTagResultUp = -13;
constexpr int kTagResultBundle = -14;
constexpr int kTagReduceUp = -20;
constexpr int kTagReduceMid = -21;
constexpr int kTagReduceMidDown = -22;
constexpr int kTagReduceDown = -23;

/// Packs one group's per-rank result vectors (dense, position k = rank
/// base_rank + k) as [rank, count, values...]* for the coordinator ->
/// submitter bundles. Ascending-rank wire order, like the map it replaced.
std::vector<double> pack_results(int base_rank,
                                 const std::vector<std::vector<double>>& results) {
  std::vector<double> out;
  for (std::size_t k = 0; k < results.size(); ++k) {
    out.push_back(static_cast<double>(base_rank + static_cast<int>(k)));
    out.push_back(static_cast<double>(results[k].size()));
    out.insert(out.end(), results[k].begin(), results[k].end());
  }
  return out;
}

void unpack_results(const std::vector<double>& packed,
                    std::vector<std::vector<double>>& into) {
  std::size_t i = 0;
  while (i + 1 < packed.size()) {
    const auto rank = static_cast<std::size_t>(packed[i]);
    const auto count = static_cast<std::size_t>(packed[i + 1]);
    i += 2;
    std::vector<double> values(packed.begin() + static_cast<std::ptrdiff_t>(i),
                               packed.begin() + static_cast<std::ptrdiff_t>(i + count));
    if (rank < into.size()) into[rank] = std::move(values);
    i += count;
  }
}
}  // namespace

/// Shared state of one running computation.
struct Computation {
  Computation(Environment& environment, TaskSpec task_spec, NodeIdx submitter_host,
              std::vector<alloc::Group> peer_groups, std::uint64_t ticket_id)
      : env(&environment),
        spec(std::move(task_spec)),
        submitter(submitter_host),
        ticket(ticket_id),
        groups(std::move(peer_groups)),
        subtask_latch(environment.engine(), 0),
        done_latch(environment.engine(), 0),
        halt(environment.engine()) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t m = 0; m < groups[g].members.size(); ++m) {
        if (m == groups[g].coordinator)
          coord_rank.push_back(static_cast<int>(ranks.size()));
        ranks.push_back(groups[g].members[m]);
        group_of.push_back(static_cast<int>(g));
      }
    }
    // coord_rank was appended in group order: index g holds group g's rank.
    results.resize(ranks.size());
    rank_result_values.resize(ranks.size());
  }

  NodeIdx host_of(int rank) const { return ranks[static_cast<std::size_t>(rank)].node; }
  int nprocs() const { return static_cast<int>(ranks.size()); }

  p2psap::Channel& data_channel(int a_rank, int b_rank) {
    return env->fabric().channel(host_of(a_rank), host_of(b_rank), spec.scheme);
  }
  /// Control traffic (allocation, reductions, results) always uses the
  /// reliable synchronous profile, whatever the computation scheme: P2PSAP
  /// adapts per channel purpose.
  p2psap::Channel& ctrl_channel(NodeIdx a, NodeIdx b) {
    return env->fabric().channel(a, b, p2psap::Scheme::Synchronous);
  }

  /// Scopes a tag to this computation. Channels (and their mailboxes) are
  /// cached per host pair, so after a churn abort the parked receivers of a
  /// failed attempt still listen on the same channels as the re-allocated
  /// attempt that follows; ticket-scoped tags keep the attempts' message
  /// streams fully disjoint. The 2^12 span bounds every user (>= 0) and
  /// internal (> -4096) tag — enforced here, since a tag outside it would
  /// alias into another ticket's scope. (Tickets wrap at 1024; two attempts
  /// 1024 submissions apart on one deployment share a scope, far beyond the
  /// churn retry budget.)
  int scoped(int tag) const {
    assert(tag < (1 << 12) && tag > -(1 << 12) && "tag outside the scoped span");
    const int off = static_cast<int>(ticket % 1024) * (1 << 12);
    return tag >= 0 ? tag + off : tag - off;
  }

  /// Fail-stop abort (a rank's host crashed): submit() resumes with the
  /// failure, surviving ranks park forever at their next communication or
  /// compute call instead of burning simulated bandwidth.
  void fail(std::string why) {
    if (failed || finished) return;
    failed = true;
    failure_reason = std::move(why);
    done_latch.force_open();
  }

  bool involves(NodeIdx host) const {
    if (host == submitter) return true;
    for (const auto& r : ranks)
      if (r.node == host) return true;
    return false;
  }

  sim::Task<double> allreduce_max(int rank, double value);
  sim::Task<void> broadcast_value(int from_rank, int tag, double value, bool to_coordinators);

  Environment* env;
  TaskSpec spec;
  NodeIdx submitter;
  std::uint64_t ticket;
  bool failed = false;
  bool finished = false;
  std::string failure_reason;
  std::vector<alloc::Group> groups;
  std::vector<overlay::PeerRef> ranks;
  std::vector<int> group_of;
  std::vector<int> coord_rank;
  sim::Latch subtask_latch;
  sim::Latch done_latch;
  sim::Gate halt;  // never opened: parking spot for ranks of an aborted attempt
  Time t_allocated = 0;
  /// Both indexed by rank and sized nprocs at construction: the completion
  /// path touches every rank, so dense vectors beat rank-keyed node maps.
  std::vector<std::vector<double>> results;             // gathered at submitter
  std::vector<std::vector<double>> rank_result_values;  // set by PeerContext
};

// --- PeerContext --------------------------------------------------------------

int PeerContext::nprocs() const { return comp_->nprocs(); }
NodeIdx PeerContext::host() const { return comp_->host_of(rank_); }
double PeerContext::host_speed_hz() const {
  return comp_->env->platform().node(host()).speed_hz;
}
Time PeerContext::now() const { return comp_->env->engine().now(); }

// Every PeerContext operation is a cancellation point: once the computation
// failed (a rank's host crashed), the calling rank parks on the never-opened
// halt gate instead of proceeding, so an aborted attempt stops spending
// simulated time and bandwidth at its next step. Messages already restored
// into flight drain normally (deterministically) before the park.

sim::Task<void> PeerContext::send(int to_rank, int tag, double bytes,
                                  std::shared_ptr<const std::vector<double>> values) {
  assert(tag >= 0 && "user tags must be non-negative");
  if (comp_->failed) co_await comp_->halt.wait();
  co_await comp_->data_channel(rank_, to_rank)
      .send(comp_->host_of(rank_), comp_->scoped(tag), bytes, std::move(values));
}

sim::Task<p2psap::Message> PeerContext::recv(int from_rank, int tag) {
  if (comp_->failed) co_await comp_->halt.wait();
  auto m = co_await comp_->data_channel(from_rank, rank_)
               .recv(comp_->host_of(rank_), comp_->scoped(tag));
  co_return m;
}

std::optional<p2psap::Message> PeerContext::try_recv(int from_rank, int tag) {
  if (comp_->failed) return std::nullopt;  // non-suspending: cannot park
  return comp_->data_channel(from_rank, rank_)
      .try_recv(comp_->host_of(rank_), comp_->scoped(tag));
}

sim::Task<void> PeerContext::compute(Time dt) {
  if (comp_->failed) co_await comp_->halt.wait();
  co_await comp_->env->engine().sleep(dt);
}

sim::Task<double> PeerContext::allreduce_max(double value) {
  if (comp_->failed) co_await comp_->halt.wait();
  double r = co_await comp_->allreduce_max(rank_, value);
  co_return r;
}

void PeerContext::set_result(std::vector<double> values) {
  comp_->rank_result_values[static_cast<std::size_t>(rank_)] = std::move(values);
}

// --- hierarchical reduction ----------------------------------------------------

sim::Task<void> Computation::broadcast_value(int from_rank, int tag, double value,
                                             bool to_coordinators) {
  const NodeIdx my_host = host_of(from_rank);
  std::vector<NodeIdx> targets;
  if (to_coordinators) {
    for (std::size_t og = 0; og < groups.size(); ++og) {
      const int other = coord_rank[og];
      if (other != from_rank) targets.push_back(host_of(other));
    }
  } else {
    const auto& group = groups[static_cast<std::size_t>(group_of[static_cast<std::size_t>(from_rank)])];
    for (std::size_t m = 0; m < group.members.size(); ++m)
      if (m != group.coordinator) targets.push_back(group.members[m].node);
  }
  if (targets.empty()) co_return;
  auto latch = std::make_shared<sim::Latch>(env->engine(), static_cast<int>(targets.size()));
  for (const NodeIdx to : targets) {
    env->engine().spawn([](Computation& c, NodeIdx from, NodeIdx dest, int t, double v,
                           std::shared_ptr<sim::Latch> l) -> sim::Process {
      co_await c.ctrl_channel(from, dest)
          .send(from, c.scoped(t), 16, std::make_shared<std::vector<double>>(1, v));
      l->count_down();
    }(*this, my_host, to, tag, value, latch));
  }
  co_await latch->wait();
}

sim::Task<double> Computation::allreduce_max(int rank, double value) {
  const int g = group_of[static_cast<std::size_t>(rank)];
  const int my_coord = coord_rank[static_cast<std::size_t>(g)];
  const int root = coord_rank[0];
  const NodeIdx my_host = host_of(rank);
  const double kReduceBytes = 16;

  if (rank != my_coord) {
    // Leaf: send to the group coordinator, wait for the broadcast.
    auto& ch = ctrl_channel(my_host, host_of(my_coord));
    co_await ch.send(my_host, scoped(kTagReduceUp), kReduceBytes,
                     std::make_shared<std::vector<double>>(1, value));
    const auto m = co_await ch.recv(my_host, scoped(kTagReduceDown));
    co_return (*m.values)[0];
  }

  // Coordinator: gather the group.
  double acc = value;
  const auto& group = groups[static_cast<std::size_t>(g)];
  for (std::size_t m = 0; m < group.members.size(); ++m) {
    if (m == group.coordinator) continue;
    const NodeIdx member = group.members[m].node;
    const auto msg =
        co_await ctrl_channel(my_host, member).recv(my_host, scoped(kTagReduceUp));
    acc = std::max(acc, (*msg.values)[0]);
  }
  double global = acc;
  if (rank != root) {
    // Second level: coordinators reduce at the root coordinator.
    auto& ch = ctrl_channel(my_host, host_of(root));
    co_await ch.send(my_host, scoped(kTagReduceMid), kReduceBytes,
                     std::make_shared<std::vector<double>>(1, acc));
    const auto m = co_await ch.recv(my_host, scoped(kTagReduceMidDown));
    global = (*m.values)[0];
  } else {
    for (std::size_t og = 0; og < groups.size(); ++og) {
      const int other = coord_rank[og];
      if (other == root) continue;
      const auto msg = co_await ctrl_channel(my_host, host_of(other))
                           .recv(my_host, scoped(kTagReduceMid));
      global = std::max(global, (*msg.values)[0]);
    }
    co_await broadcast_value(rank, kTagReduceMidDown, global, /*to_coordinators=*/true);
  }
  // Broadcast down to the group members (parallel writes: a real transport
  // pipelines these instead of waiting for each ack in turn).
  co_await broadcast_value(rank, kTagReduceDown, global, /*to_coordinators=*/false);
  co_return global;
}

overlay::PeerResources worker_resources(const net::Platform& platform, NodeIdx host) {
  const double hz = platform.node(host).speed_hz;
  return overlay::PeerResources{hz > 0 ? hz : 3e9, 2e9, 80e9};
}

// --- Environment ----------------------------------------------------------------

Environment::Environment(sim::Engine& engine, const net::Platform& platform,
                         overlay::OverlayConfig config)
    : engine_(&engine),
      platform_(&platform),
      flownet_(engine, platform),
      fabric_(engine, flownet_, platform),
      overlay_(engine, platform, flownet_, config) {}

sim::Process Environment::rank_body(std::shared_ptr<Computation> comp, int rank,
                                    PeerMain main) {
  const NodeIdx my_host = comp->host_of(rank);
  const bool flat = comp->spec.allocation == AllocationMode::Flat;
  const int g = comp->group_of[static_cast<std::size_t>(rank)];
  const NodeIdx feeder = flat ? comp->submitter
                              : comp->host_of(comp->coord_rank[static_cast<std::size_t>(g)]);
  auto& feed_ch = comp->ctrl_channel(feeder, my_host);
  (void)co_await feed_ch.recv(my_host, comp->scoped(kTagSubtask));
  comp->subtask_latch.count_down();
  if (comp->subtask_latch.open() && comp->t_allocated == 0)
    comp->t_allocated = engine_->now();

  PeerContext ctx{*comp, rank};
  co_await main(ctx);
  if (comp->failed) co_await comp->halt.wait();  // aborted: no result to ship

  // Ship the result up: to the coordinator (hierarchical) or straight to
  // the submitter (flat baseline).
  auto values = std::make_shared<std::vector<double>>(
      comp->rank_result_values[static_cast<std::size_t>(rank)]);
  co_await feed_ch.send(my_host, comp->scoped(kTagResultUp), comp->spec.result_bytes,
                        std::move(values));
}

sim::Process Environment::coordinator_body(std::shared_ptr<Computation> comp, int group) {
  const auto& g = comp->groups[static_cast<std::size_t>(group)];
  const NodeIdx me = g.coordinator_ref().node;
  auto& sub_ch = comp->ctrl_channel(comp->submitter, me);
  const double per_ref = 16;

  // 1. Group assignment from the submitter (peers list of the group).
  (void)co_await sub_ch.recv(me, comp->scoped(kTagGroupAssign));

  // 2. Connect to every member: the "reverse" message (paper §III-C),
  //    sent in parallel.
  {
    auto latch = std::make_shared<sim::Latch>(*engine_, static_cast<int>(g.members.size()));
    for (const auto& member : g.members) {
      engine_->spawn([](Computation& c, NodeIdx from, NodeIdx to,
                        std::shared_ptr<sim::Latch> l) -> sim::Process {
        co_await c.ctrl_channel(from, to).send(from, c.scoped(kTagReverse), 64);
        l->count_down();
      }(*comp, me, member.node, latch));
    }
    co_await latch->wait();
  }

  // 3. Subtask bundle from the submitter, then parallel forwarding.
  (void)co_await sub_ch.recv(me, comp->scoped(kTagSubtask));
  {
    auto latch = std::make_shared<sim::Latch>(*engine_, static_cast<int>(g.members.size()));
    for (const auto& member : g.members) {
      engine_->spawn([](Computation& c, NodeIdx from, NodeIdx to,
                        std::shared_ptr<sim::Latch> l) -> sim::Process {
        co_await c.ctrl_channel(from, to).send(from, c.scoped(kTagSubtask),
                                               c.spec.subtask_bytes);
        l->count_down();
      }(*comp, me, member.node, latch));
    }
    co_await latch->wait();
  }

  // 4. Gather member results, bundle, ship to the submitter.
  std::vector<std::vector<double>> group_results(g.members.size());
  int base_rank = 0;
  for (int og = 0; og < group; ++og)
    base_rank += static_cast<int>(comp->groups[static_cast<std::size_t>(og)].members.size());
  for (std::size_t m = 0; m < g.members.size(); ++m) {
    const NodeIdx member = g.members[m].node;
    const auto msg =
        co_await comp->ctrl_channel(me, member).recv(me, comp->scoped(kTagResultUp));
    // Identify the sender's group position (= rank - base_rank).
    std::size_t pos = 0;
    for (std::size_t k = 0; k < g.members.size(); ++k)
      if (g.members[k].node == msg.src_host) pos = k;
    group_results[pos] = msg.values ? *msg.values : std::vector<double>{};
  }
  const auto packed =
      std::make_shared<std::vector<double>>(pack_results(base_rank, group_results));
  co_await sub_ch.send(me, comp->scoped(kTagResultBundle),
                       comp->spec.result_bytes * static_cast<double>(g.members.size()) +
                           per_ref * static_cast<double>(g.members.size()),
                       packed);
}

sim::Task<ComputationResult> Environment::submit(NodeIdx submitter_host, TaskSpec spec,
                                                 PeerMain main) {
  ComputationResult res;
  res.t_submit = engine_->now();
  overlay::PeerActor* sub = overlay_.peer_at(submitter_host);
  if (sub == nullptr) {
    res.failure = "submitter host does not run a peer actor";
    co_return res;
  }

  // 1. Peers collection (paper §III-B).
  const std::uint64_t ticket = next_ticket_++;
  auto peers = co_await sub->collect_peers(spec.peers_needed, spec.requirements, ticket);
  res.t_collected = engine_->now();
  res.peers = static_cast<int>(peers.size());
  if (static_cast<int>(peers.size()) < spec.peers_needed) {
    for (const auto& p : peers)
      overlay_.send_ctrl(submitter_host, p.node, overlay::ReleaseReq{submitter_host});
    res.failure = "not enough peers: wanted " + std::to_string(spec.peers_needed) +
                  ", reserved " + std::to_string(peers.size());
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
      tr->instant(tr->track("p2psap"), "abort", engine_->now(),
                  {{"phase", "collection"}, {"reserved", res.peers}});
    co_return res;
  }

  // 2. Proximity grouping with coordinators (paper §III-C).
  auto comp = std::make_shared<Computation>(*this, spec, submitter_host,
                                            alloc::form_groups(peers, spec.cmax), ticket);
  res.groups = static_cast<int>(comp->groups.size());
  comp->subtask_latch.reset(comp->nprocs());
  const bool flat = spec.allocation == AllocationMode::Flat;
  comp->done_latch.reset(flat ? comp->nprocs() : static_cast<int>(comp->groups.size()));

  // Visible to crash_host from here on; prune entries of finished runs.
  std::erase_if(active_, [](const std::weak_ptr<Computation>& w) { return w.expired(); });
  active_.push_back(comp);
  // A reserved peer may have crashed between its ReserveAck and now (the
  // collection RPCs above suspend): fail before allocating onto a dead host.
  // peer_alive covers both actor-backed and passive workers.
  for (const auto& p : comp->ranks) {
    if (!overlay_.peer_alive(p.node))
      comp->fail("peer on host " + platform_->node(p.node).name + " crashed before allocation");
  }

  // 3. Spawn compute ranks (they wait for their subtask first). An already-
  // failed computation spawns nothing: submit returns the failure right away.
  for (int r = 0; r < comp->nprocs() && !comp->failed; ++r)
    engine_->spawn(rank_body(comp, r, main), spec.name + "/rank" + std::to_string(r));

  if (comp->failed) {
  } else if (!flat) {
    // Coordinator protocol per group + submitter-side distribution.
    for (int g = 0; g < static_cast<int>(comp->groups.size()); ++g)
      engine_->spawn(coordinator_body(comp, g), spec.name + "/coord" + std::to_string(g));
    for (int g = 0; g < static_cast<int>(comp->groups.size()); ++g) {
      engine_->spawn([](Environment& env, std::shared_ptr<Computation> c,
                        int group) -> sim::Process {
        const auto& grp = c->groups[static_cast<std::size_t>(group)];
        const NodeIdx coord = grp.coordinator_ref().node;
        auto& ch = c->ctrl_channel(c->submitter, coord);
        const double assign_bytes = 64 + 16.0 * static_cast<double>(grp.members.size());
        co_await ch.send(c->submitter, c->scoped(kTagGroupAssign), assign_bytes);
        co_await ch.send(c->submitter, c->scoped(kTagSubtask),
                         c->spec.subtask_bytes * static_cast<double>(grp.members.size()));
        // Await this group's result bundle.
        const auto msg = co_await ch.recv(c->submitter, c->scoped(kTagResultBundle));
        if (msg.values) unpack_results(*msg.values, c->results);
        c->done_latch.count_down();
        (void)env;
      }(*this, comp, g));
    }
  } else {
    // Flat baseline: the submitter connects to each peer *in succession*
    // (awaiting every transfer) and gathers all results itself.
    engine_->spawn([](std::shared_ptr<Computation> c) -> sim::Process {
      for (int r = 0; r < c->nprocs(); ++r) {
        auto& ch = c->ctrl_channel(c->submitter, c->host_of(r));
        co_await ch.send(c->submitter, c->scoped(kTagReverse), 64);
        co_await ch.send(c->submitter, c->scoped(kTagSubtask), c->spec.subtask_bytes);
      }
    }(comp));
    for (int r = 0; r < comp->nprocs(); ++r) {
      engine_->spawn([](std::shared_ptr<Computation> c, int rank) -> sim::Process {
        auto& ch = c->ctrl_channel(c->submitter, c->host_of(rank));
        const auto msg = co_await ch.recv(c->submitter, c->scoped(kTagResultUp));
        if (msg.values) c->results[static_cast<std::size_t>(rank)] = *msg.values;
        c->done_latch.count_down();
      }(comp, r));
    }
  }

  // 4. Wait for completion (or a churn abort), then free the peers.
  co_await comp->done_latch.wait();
  comp->finished = true;
  if (comp->failed) {
    // Release the surviving reserved peers so a re-submission can collect
    // them again; messages to crashed hosts are dropped by the overlay.
    for (const auto& p : comp->ranks) {
      if (overlay_.peer_alive(p.node))
        overlay_.send_ctrl(submitter_host, p.node, overlay::ReleaseReq{submitter_host});
    }
    res.failure = comp->failure_reason;
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
      tr->instant(tr->track("p2psap"), "abort", engine_->now(),
                  {{"phase", "computation"}, {"reason", comp->failure_reason.c_str()}});
    co_return res;
  }
  res.t_allocated = comp->t_allocated;
  res.t_finished = engine_->now();
  res.results = std::move(comp->results);
  res.ok = true;
  // Retroactive P2PSAP phase spans: the boundary timestamps were recorded as
  // the protocol ran; emitting them here keeps the hot path untouched.
  if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr) {
    const obs::TrackId t = tr->track("p2psap");
    tr->span_begin(t, "collection", res.t_submit, {{"peers", res.peers}});
    tr->span_end(t, res.t_collected);
    tr->span_begin(t, "allocation", res.t_collected, {{"groups", res.groups}});
    tr->span_end(t, res.t_allocated);
    tr->span_begin(t, "computation", res.t_allocated, {{"ranks", comp->nprocs()}});
    tr->span_end(t, res.t_finished);
  }
  for (const auto& p : comp->ranks)
    overlay_.send_ctrl(submitter_host, p.node, overlay::ReleaseReq{submitter_host});
  co_return res;
}

void Environment::crash_host(NodeIdx host) {
  if (overlay::PeerActor* p = overlay_.peer_at(host)) {
    p->crash();
  } else if (overlay::TrackerActor* t = overlay_.tracker_at(host)) {
    t->crash();
  } else if (overlay_.server() != nullptr && overlay_.server_host() == host) {
    overlay_.server()->crash();
  } else if (overlay_.is_passive_peer(host)) {
    overlay_.crash_passive_peer(host);
  }
  for (const auto& weak : active_) {
    const auto comp = weak.lock();
    if (!comp || comp->finished || comp->failed) continue;
    if (comp->involves(host))
      comp->fail("peer on host " + platform_->node(host).name + " crashed mid-computation");
  }
}

ComputationResult Environment::run_computation(NodeIdx submitter_host, TaskSpec spec,
                                               PeerMain main, Time warmup, Time time_cap) {
  engine_->run_until(engine_->now() + warmup);
  auto out = std::make_shared<ComputationResult>();
  auto done = std::make_shared<bool>(false);
  engine_->spawn([](Environment& env, NodeIdx sub, TaskSpec sp, PeerMain m,
                    std::shared_ptr<ComputationResult> o,
                    std::shared_ptr<bool> flag) -> sim::Process {
    *o = co_await env.submit(sub, std::move(sp), std::move(m));
    *flag = true;
  }(*this, submitter_host, std::move(spec), std::move(main), out, done));
  const Time deadline = engine_->now() + time_cap;
  while (!*done && engine_->now() < deadline && !engine_->queue_empty())
    engine_->run_until(engine_->now() + 5.0);
  if (!*done) {
    out->ok = false;
    out->failure = "computation did not finish within the time cap";
  }
  return *out;
}

}  // namespace pdc::p2pdc
