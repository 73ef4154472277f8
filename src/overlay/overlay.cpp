#include "overlay/overlay.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace pdc::overlay {

namespace {

/// Sorted insert keyed by IP; no duplicates (by node).
void sorted_insert(std::vector<TrackerRef>& v, TrackerRef t) {
  for (const TrackerRef& x : v)
    if (x.node == t.node) return;
  v.push_back(t);
  std::sort(v.begin(), v.end(),
            [](const TrackerRef& a, const TrackerRef& b) { return a.ip < b.ip; });
}

}  // namespace

double ctrl_wire_bytes(const OverlayConfig& cfg, const CtrlMsg& m) {
  std::size_t refs = 0;
  if (const auto* r = std::get_if<GetTrackersReply>(&m)) refs = r->trackers.size();
  if (const auto* r = std::get_if<TrackerJoinAck>(&m)) refs = r->neighbors.size();
  if (const auto* r = std::get_if<PeerJoinAck>(&m)) refs = r->tracker_list.size();
  if (const auto* r = std::get_if<PeerListReply>(&m)) refs = r->peers.size();
  if (const auto* r = std::get_if<TrackerListReply>(&m)) refs = r->trackers.size();
  if (const auto* r = std::get_if<NeighborDead>(&m)) refs = r->candidates.size();
  return cfg.ctrl_bytes + cfg.ref_bytes * static_cast<double>(refs);
}

// --- ActorBase --------------------------------------------------------------

ActorBase::ActorBase(Overlay& overlay, NodeIdx host, Ipv4 ip)
    : overlay_(&overlay),
      host_(host),
      ip_(ip),
      main_box_(overlay.engine()),
      rpc_box_(overlay.engine()) {}

// --- Overlay ----------------------------------------------------------------

Overlay::Overlay(sim::Engine& engine, const net::Platform& platform, net::FlowNet& flownet,
                 OverlayConfig config)
    : engine_(&engine), platform_(&platform), net_(&flownet), config_(config) {
  actors_.resize(static_cast<std::size_t>(platform.node_count()));
}

ActorBase* Overlay::actor_at(NodeIdx host) {
  if (host < 0 || static_cast<std::size_t>(host) >= actors_.size()) return nullptr;
  return actors_[static_cast<std::size_t>(host)].get();
}

const ActorBase* Overlay::actor_at(NodeIdx host) const {
  if (host < 0 || static_cast<std::size_t>(host) >= actors_.size()) return nullptr;
  return actors_[static_cast<std::size_t>(host)].get();
}

Overlay::PassivePeer* Overlay::passive_at(NodeIdx host) {
  auto it = std::lower_bound(passive_.begin(), passive_.end(), host,
                             [](const PassivePeer& p, NodeIdx h) { return p.node < h; });
  return it != passive_.end() && it->node == host ? &*it : nullptr;
}

const Overlay::PassivePeer* Overlay::passive_at(NodeIdx host) const {
  return const_cast<Overlay*>(this)->passive_at(host);
}

void Overlay::ensure_host_free(NodeIdx host) const {
  if (host < 0 || static_cast<std::size_t>(host) >= actors_.size())
    throw std::logic_error("overlay: host " + std::to_string(host) +
                           " is not a platform node");
  if (actor_at(host) != nullptr || passive_at(host) != nullptr)
    throw std::logic_error("overlay: host " + std::to_string(host) +
                           " already runs an actor; one actor per host");
}

std::unique_ptr<ActorBase>& Overlay::slot(NodeIdx host) {
  return actors_[static_cast<std::size_t>(host)];
}

ServerActor& Overlay::create_server(NodeIdx host) {
  ensure_host_free(host);
  auto actor = std::make_unique<ServerActor>(*this, host, platform_->node(host).ip);
  ServerActor& ref = *actor;
  server_ = &ref;
  slot(host) = std::move(actor);
  engine_->spawn(ref.run(), "server");
  return ref;
}

TrackerActor& Overlay::create_tracker(NodeIdx host, bool bootstrap_core) {
  ensure_host_free(host);
  auto actor = std::make_unique<TrackerActor>(*this, host, platform_->node(host).ip,
                                              bootstrap_core);
  TrackerActor& ref = *actor;
  slot(host) = std::move(actor);
  tracker_ptrs_.push_back(&ref);
  engine_->spawn(ref.run(), "tracker@" + platform_->node(host).name);
  return ref;
}

PeerActor& Overlay::create_peer(NodeIdx host, PeerResources res) {
  ensure_host_free(host);
  auto actor = std::make_unique<PeerActor>(*this, host, platform_->node(host).ip, res);
  PeerActor& ref = *actor;
  slot(host) = std::move(actor);
  peer_ptrs_.push_back(&ref);
  engine_->spawn(ref.run(), "peer@" + platform_->node(host).name);
  return ref;
}

bool Overlay::register_passive_peer(NodeIdx host, PeerResources res) {
  ensure_host_free(host);
  const Ipv4 ip = platform_->node(host).ip;
  TrackerActor* best = nullptr;
  for (TrackerActor* t : tracker_ptrs_) {
    if (!t->alive()) continue;
    if (best == nullptr || closer_to(ip, t->ip(), best->ip())) best = t;
  }
  if (best == nullptr) return false;
  best->install_persistent_peer(PeerRef{host, ip, res});
  PassivePeer pp;
  pp.node = host;
  pp.tracker = best->host();
  auto it = std::lower_bound(passive_.begin(), passive_.end(), host,
                             [](const PassivePeer& p, NodeIdx h) { return p.node < h; });
  passive_.insert(it, pp);
  return true;
}

bool Overlay::peer_alive(NodeIdx host) const {
  if (const ActorBase* a = actor_at(host))
    return a->alive() && dynamic_cast<const PeerActor*>(a) != nullptr;
  const PassivePeer* pp = passive_at(host);
  return pp != nullptr && !pp->dead;
}

bool Overlay::is_passive_peer(NodeIdx host) const { return passive_at(host) != nullptr; }

bool Overlay::crash_passive_peer(NodeIdx host) {
  PassivePeer* pp = passive_at(host);
  if (pp == nullptr || pp->dead) return pp != nullptr;
  pp->dead = true;
  pp->busy = false;
  pp->reserved_by = -1;
  if (TrackerActor* t = tracker_at(pp->tracker)) t->make_peer_transient(host);
  return true;
}

void Overlay::finish_bootstrap() {
  std::vector<TrackerActor*> cores;
  for (TrackerActor* t : tracker_ptrs_)
    if (t->bootstrap_core_) cores.push_back(t);
  std::sort(cores.begin(), cores.end(),
            [](const TrackerActor* a, const TrackerActor* b) { return a->ip() < b->ip(); });
  core_trackers_.clear();
  for (TrackerActor* t : cores) core_trackers_.push_back(TrackerRef{t->host(), t->ip()});
  const int half = config_.neighbor_set_size / 2;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    std::vector<TrackerRef> n;
    for (int d = 1; d <= half; ++d) {
      if (static_cast<int>(i) - d >= 0) sorted_insert(n, core_trackers_[i - static_cast<std::size_t>(d)]);
      if (i + static_cast<std::size_t>(d) < cores.size()) sorted_insert(n, core_trackers_[i + static_cast<std::size_t>(d)]);
    }
    cores[i]->bootstrap_neighbors(std::move(n));
    if (server_) server_->register_core_tracker(core_trackers_[i]);
  }
}

void Overlay::send_ctrl(NodeIdx from, NodeIdx to, CtrlMsg msg) {
  ++ctrl_messages_;
  const double bytes = ctrl_wire_bytes(config_, msg);
  // The moved-from CtrlMsg capture is the largest closure the hot control
  // plane schedules; it must keep fitting the event kernel's inline buffer
  // (EventFn::kInlineSize was sized for exactly this) or every control
  // message would silently fall back to a heap allocation. A variant
  // alternative growing past the budget should carry its payload behind a
  // pointer.
  static_assert(sizeof(CtrlMsg) + sizeof(void*) + sizeof(NodeIdx) <=
                sim::EventFn::kInlineSize);
  if (from == to) {
    engine_->post([this, to, m = std::move(msg)]() mutable { deliver(to, std::move(m)); });
    return;
  }
  net_->start_flow(from, to, bytes,
                   [this, to, m = std::move(msg)]() mutable { deliver(to, std::move(m)); });
}

void Overlay::deliver(NodeIdx to, CtrlMsg msg) {
  ActorBase* actor = actor_at(to);
  if (actor == nullptr) {
    if (PassivePeer* pp = passive_at(to); pp != nullptr && !pp->dead)
      deliver_passive(*pp, msg);
    return;  // nothing at this node: message lost
  }
  if (!actor->alive_) return;  // crashed: message lost
  (is_rpc_reply(msg) ? actor->rpc_box_ : actor->main_box_).push(std::move(msg));
}

void Overlay::deliver_passive(PassivePeer& pp, CtrlMsg& msg) {
  if (auto* res = std::get_if<ReserveReq>(&msg)) {
    const bool ok = !pp.busy;
    if (ok) {
      pp.busy = true;
      pp.reserved_by = res->submitter;
      if (pp.tracker >= 0) send_ctrl(pp.node, pp.tracker, PeerBusyNotice{pp.node, true});
    }
    send_ctrl(pp.node, res->submitter, ReserveAck{pp.node, ok, res->ticket});
  } else if (auto* rel = std::get_if<ReleaseReq>(&msg)) {
    if (pp.busy && rel->submitter == pp.reserved_by) {
      pp.busy = false;
      pp.reserved_by = -1;
      if (pp.tracker >= 0) send_ctrl(pp.node, pp.tracker, PeerBusyNotice{pp.node, false});
    }
  }
  // Anything else (acks, lists, state traffic) has no passive-side state to
  // act on: dropped, like a message to an empty node.
}

TrackerActor* Overlay::tracker_at(NodeIdx host) {
  return dynamic_cast<TrackerActor*>(actor_at(host));
}

PeerActor* Overlay::peer_at(NodeIdx host) {
  return dynamic_cast<PeerActor*>(actor_at(host));
}

// --- ServerActor -------------------------------------------------------------

sim::Process ServerActor::run() {
  while (alive_) {
    auto msg = co_await main_box_.recv_for(overlay_->config().heartbeat_period);
    if (!alive_) break;
    if (msg) handle(std::move(*msg));
  }
}

void ServerActor::handle(CtrlMsg msg) {
  if (auto* req = std::get_if<GetTrackersReq>(&msg)) {
    // Reply with trackers sorted by proximity to the requester, if the
    // requester's IP is known; otherwise registry order.
    std::vector<TrackerRef> list = trackers_;
    const Ipv4 req_ip = overlay_->platform().node(req->from).ip;
    std::sort(list.begin(), list.end(), [&](const TrackerRef& a, const TrackerRef& b) {
      return closer_to(req_ip, a.ip, b.ip);
    });
    overlay_->send_ctrl(host_, req->from, GetTrackersReply{std::move(list)});
  } else if (auto* reg = std::get_if<TrackerRegister>(&msg)) {
    sorted_insert(trackers_, reg->tracker);
  } else if (auto* dead = std::get_if<TrackerDeadNotice>(&msg)) {
    std::erase_if(trackers_, [&](const TrackerRef& t) { return t.node == dead->dead; });
    stats_.erase(dead->dead);
  } else if (auto* st = std::get_if<ZoneStats>(&msg)) {
    stats_[st->tracker] = *st;
  }
}

// --- TrackerActor ------------------------------------------------------------

void TrackerActor::bootstrap_neighbors(std::vector<TrackerRef> neighbors) {
  neighbors_ = std::move(neighbors);
  joined_ = true;
}

std::optional<TrackerRef> TrackerActor::left_neighbor() const {
  std::optional<TrackerRef> best;
  for (const TrackerRef& t : neighbors_)
    if (t.ip < ip_ && (!best || t.ip > best->ip)) best = t;
  return best;
}

std::optional<TrackerRef> TrackerActor::right_neighbor() const {
  std::optional<TrackerRef> best;
  for (const TrackerRef& t : neighbors_)
    if (t.ip > ip_ && (!best || t.ip < best->ip)) best = t;
  return best;
}

void TrackerActor::insert_neighbor(TrackerRef t) {
  if (t.node == host_) return;
  sorted_insert(neighbors_, t);
  trim_neighbors();
}

void TrackerActor::remove_neighbor(NodeIdx node) {
  std::erase_if(neighbors_, [&](const TrackerRef& t) { return t.node == node; });
  neighbor_last_seen_.erase(node);
}

void TrackerActor::trim_neighbors() {
  // Keep the |N|/2 closest trackers on each side (paper §III-A.1).
  const int half = overlay_->config().neighbor_set_size / 2;
  std::vector<TrackerRef> below, above;
  for (const TrackerRef& t : neighbors_) (t.ip < ip_ ? below : above).push_back(t);
  // `below` sorted ascending: closest are at the back. `above`: at the front.
  if (static_cast<int>(below.size()) > half)
    below.erase(below.begin(), below.end() - half);
  if (static_cast<int>(above.size()) > half)
    above.resize(static_cast<std::size_t>(half));
  neighbors_.clear();
  for (const TrackerRef& t : below) neighbors_.push_back(t);
  for (const TrackerRef& t : above) neighbors_.push_back(t);
}

TrackerRef TrackerActor::closest_known(Ipv4 target) const {
  TrackerRef best{host_, ip_};
  for (const TrackerRef& t : neighbors_) {
    if (t.ip == target) continue;  // never route back to the subject itself
    if (closer_to(target, t.ip, best.ip)) best = t;
  }
  return best;
}

std::vector<TrackerRef> TrackerActor::neighbors_for(Ipv4 joiner) const {
  // Build the joiner's initial neighbour set from our set plus ourselves:
  // up to |N|/2 closest on each side of the joiner.
  const int half = overlay_->config().neighbor_set_size / 2;
  std::vector<TrackerRef> below, above;
  auto consider = [&](TrackerRef t) {
    if (t.ip == joiner) return;
    (t.ip < joiner ? below : above).push_back(t);
  };
  for (const TrackerRef& t : neighbors_) consider(t);
  consider(TrackerRef{host_, ip_});
  std::sort(below.begin(), below.end(),
            [](const TrackerRef& a, const TrackerRef& b) { return a.ip < b.ip; });
  std::sort(above.begin(), above.end(),
            [](const TrackerRef& a, const TrackerRef& b) { return a.ip < b.ip; });
  std::vector<TrackerRef> out;
  for (std::size_t i = below.size() > static_cast<std::size_t>(half)
                           ? below.size() - static_cast<std::size_t>(half)
                           : 0;
       i < below.size(); ++i)
    out.push_back(below[i]);
  for (std::size_t i = 0; i < above.size() && i < static_cast<std::size_t>(half); ++i)
    out.push_back(above[i]);
  return out;
}

sim::Process TrackerActor::run() {
  if (bootstrap_core_) {
    joined_ = true;
  } else {
    co_await join_overlay();
  }
  const OverlayConfig& cfg = overlay_->config();
  next_heartbeat_ = overlay_->engine().now() + cfg.heartbeat_period;
  next_stats_ = overlay_->engine().now() + cfg.stats_period;
  while (alive_) {
    const Time now0 = overlay_->engine().now();
    const Time wake = std::min(next_heartbeat_, next_stats_);
    auto msg = co_await main_box_.recv_for(std::max(0.0, wake - now0));
    if (!alive_) break;
    if (msg) handle(std::move(*msg));
    const Time now = overlay_->engine().now();
    if (now >= next_heartbeat_) {
      send_heartbeats();
      detect_dead_neighbors();
      expire_stale_peers();
      next_heartbeat_ = now + cfg.heartbeat_period;
    }
    if (now >= next_stats_) {
      report_stats();
      next_stats_ = now + cfg.stats_period;
    }
  }
}

sim::Task<void> TrackerActor::join_overlay() {
  const OverlayConfig& cfg = overlay_->config();
  std::vector<TrackerRef> candidates = overlay_->install_tracker_list();
  std::sort(candidates.begin(), candidates.end(), [&](const TrackerRef& a, const TrackerRef& b) {
    return closer_to(ip_, a.ip, b.ip);
  });
  for (int attempt = 0; attempt < 3 && !joined_; ++attempt) {
    for (const TrackerRef& t : candidates) {
      if (t.node == host_) continue;
      overlay_->send_ctrl(host_, t.node, TrackerJoinReq{TrackerRef{host_, ip_}});
      auto reply = co_await rpc_box_.recv_for(cfg.rpc_timeout);
      if (!reply) continue;  // no answer: try next closest (paper §III-A.4)
      if (auto* ack = std::get_if<TrackerJoinAck>(&*reply)) {
        for (const TrackerRef& n : ack->neighbors) insert_neighbor(n);
        insert_neighbor(ack->accepter);
        joined_ = true;
        if (overlay_->server_host() >= 0)
          overlay_->send_ctrl(host_, overlay_->server_host(),
                              TrackerRegister{TrackerRef{host_, ip_}});
        co_return;
      }
    }
    // All known trackers unresponsive: ask the server for a fresh list.
    if (overlay_->server_host() >= 0) {
      overlay_->send_ctrl(host_, overlay_->server_host(), GetTrackersReq{host_});
      auto reply = co_await rpc_box_.recv_for(cfg.rpc_timeout);
      if (reply) {
        if (auto* list = std::get_if<GetTrackersReply>(&*reply)) {
          candidates = list->trackers;
          std::sort(candidates.begin(), candidates.end(),
                    [&](const TrackerRef& a, const TrackerRef& b) {
                      return closer_to(ip_, a.ip, b.ip);
                    });
        }
      }
    }
  }
  // Completely alone (e.g. very first volunteer while the cores are down):
  // become a joined singleton; future joiners will find us via the server.
  joined_ = true;
  if (overlay_->server_host() >= 0)
    overlay_->send_ctrl(host_, overlay_->server_host(),
                        TrackerRegister{TrackerRef{host_, ip_}});
}

void TrackerActor::handle(CtrlMsg msg) {
  const OverlayConfig& cfg = overlay_->config();
  if (auto* join = std::get_if<TrackerJoinReq>(&msg)) {
    const TrackerRef closest = closest_known(join->joiner.ip);
    if (closest.node != host_) {
      overlay_->send_ctrl(host_, closest.node, *join);  // greedy forwarding
      return;
    }
    // We are the closest tracker: accept (paper §III-A.4).
    std::vector<TrackerRef> for_joiner = neighbors_for(join->joiner.ip);
    for (const TrackerRef& n : neighbors_)
      overlay_->send_ctrl(host_, n.node, NeighborAdd{join->joiner});
    insert_neighbor(join->joiner);
    overlay_->send_ctrl(host_, join->joiner.node,
                        TrackerJoinAck{TrackerRef{host_, ip_}, std::move(for_joiner)});
  } else if (auto* add = std::get_if<NeighborAdd>(&msg)) {
    insert_neighbor(add->tracker);
  } else if (auto* dead = std::get_if<NeighborDead>(&msg)) {
    remove_neighbor(dead->dead);
    for (const TrackerRef& c : dead->candidates) insert_neighbor(c);
  } else if (auto* hb = std::get_if<TrackerHeartbeat>(&msg)) {
    neighbor_last_seen_[hb->from] = overlay_->engine().now();
  } else if (auto* pj = std::get_if<PeerJoinReq>(&msg)) {
    const TrackerRef closest = closest_known(pj->ip);
    if (closest.node != host_) {
      overlay_->send_ctrl(host_, closest.node, *pj);
      return;
    }
    ZonePeer& entry = upsert_transient(pj->peer);
    entry.peer = PeerRef{pj->peer, pj->ip, pj->res};
    entry.busy = false;
    entry.last_update = overlay_->engine().now();
    std::vector<TrackerRef> list = neighbors_;
    sorted_insert(list, TrackerRef{host_, ip_});
    overlay_->send_ctrl(host_, pj->peer, PeerJoinAck{TrackerRef{host_, ip_}, std::move(list)});
  } else if (auto* su = std::get_if<StateUpdate>(&msg)) {
    ZonePeer& entry = upsert_transient(su->peer);
    entry.peer.node = su->peer;
    entry.peer.res = su->res;
    entry.peer.ip = overlay_->platform().node(su->peer).ip;
    entry.last_update = overlay_->engine().now();
    overlay_->send_ctrl(host_, su->peer, StateAck{host_});
  } else if (auto* bn = std::get_if<PeerBusyNotice>(&msg)) {
    auto it = zone_.find(bn->peer);
    if (it != zone_.end()) it->second.busy = bn->busy;
  } else if (auto* pr = std::get_if<PeerRequest>(&msg)) {
    // Filter connected peers in the zone that satisfy the request
    // (paper §III-B).
    std::vector<PeerRef> result;
    for (const auto& [node, zp] : zone_) {
      if (static_cast<int>(result.size()) >= pr->max_peers) break;
      if (node == pr->submitter || zp.busy) continue;
      if (zp.peer.res.cpu_hz < pr->req.min_cpu_hz) continue;
      result.push_back(zp.peer);
    }
    overlay_->send_ctrl(host_, pr->submitter, PeerListReply{host_, std::move(result)});
  } else if (auto* tlr = std::get_if<TrackerListReq>(&msg)) {
    std::vector<TrackerRef> result;
    for (const TrackerRef& t : neighbors_)
      if (tlr->side_greater ? t.ip > ip_ : t.ip < ip_) result.push_back(t);
    overlay_->send_ctrl(host_, tlr->from, TrackerListReply{std::move(result)});
  }
  (void)cfg;
}

void TrackerActor::send_heartbeats() {
  for (const auto& n : {left_neighbor(), right_neighbor()})
    if (n) overlay_->send_ctrl(host_, n->node, TrackerHeartbeat{host_});
}

void TrackerActor::detect_dead_neighbors() {
  const Time now = overlay_->engine().now();
  const Time timeout = overlay_->config().fail_timeout;
  for (const auto& n : {left_neighbor(), right_neighbor()}) {
    if (!n) continue;
    auto [it, fresh] = neighbor_last_seen_.try_emplace(n->node, now);  // grace period
    if (fresh) continue;
    if (now - it->second <= timeout) continue;
    // Direct neighbour crashed (paper §III-A.5): drop it, tell the server,
    // and send our opposite-side trackers to everyone on the dead node's
    // side so they can rebuild their sets.
    const NodeIdx dead = n->node;
    const bool dead_was_right = n->ip > ip_;
    remove_neighbor(dead);
    if (overlay_->server_host() >= 0)
      overlay_->send_ctrl(host_, overlay_->server_host(), TrackerDeadNotice{dead, host_});
    std::vector<TrackerRef> replacements;
    for (const TrackerRef& t : neighbors_)
      if (dead_was_right ? t.ip > ip_ : t.ip < ip_) replacements.push_back(t);
    replacements.push_back(TrackerRef{host_, ip_});
    for (const TrackerRef& t : neighbors_)
      overlay_->send_ctrl(host_, t.node, NeighborDead{dead, replacements});
    // Establish the new direct connection across the gap.
    if (auto bridge = dead_was_right ? right_neighbor() : left_neighbor()) {
      neighbor_last_seen_[bridge->node] = now;
      overlay_->send_ctrl(host_, bridge->node, TrackerHeartbeat{host_});
      overlay_->send_ctrl(host_, bridge->node, NeighborAdd{TrackerRef{host_, ip_}});
    }
  }
}

void TrackerActor::expire_stale_peers() {
  // Passive (persistent) entries send no updates and never go stale; the
  // scan is skipped entirely while nothing transient is in the zone, which
  // keeps the heartbeat O(1) on a million-peer platform.
  if (transient_ == 0) return;
  const Time now = overlay_->engine().now();
  const Time timeout = overlay_->config().fail_timeout;
  // Paper §III-A.7: no state update for time T -> peer considered gone.
  transient_ -= zone_.erase_if([&](const auto& kv) {
    return !kv.second.persistent && now - kv.second.last_update > timeout;
  });
}

ZonePeer& TrackerActor::upsert_transient(NodeIdx node) {
  auto [it, fresh] = zone_.try_emplace(node);
  if (fresh) ++transient_;
  return it->second;
}

void TrackerActor::install_persistent_peer(PeerRef peer) {
  auto [it, fresh] = zone_.try_emplace(peer.node);
  if (!fresh && !it->second.persistent) --transient_;
  it->second.peer = peer;
  it->second.busy = false;
  it->second.last_update = overlay_->engine().now();
  it->second.persistent = true;
}

void TrackerActor::make_peer_transient(NodeIdx node) {
  auto it = zone_.find(node);
  if (it == zone_.end() || !it->second.persistent) return;
  it->second.persistent = false;
  ++transient_;
}

void TrackerActor::report_stats() {
  if (overlay_->server_host() < 0) return;
  ZoneStats st;
  st.tracker = host_;
  st.peers = static_cast<int>(zone_.size());
  for (const auto& [node, zp] : zone_) {
    if (zp.busy) ++st.busy;
    st.donated_cpu_hz += zp.peer.res.cpu_hz;
  }
  overlay_->send_ctrl(host_, overlay_->server_host(), st);
}

// --- PeerActor ---------------------------------------------------------------

sim::Process PeerActor::run() {
  co_await join_overlay();
  const OverlayConfig& cfg = overlay_->config();
  Time next_update = overlay_->engine().now() + cfg.update_period;
  while (alive_) {
    const Time now0 = overlay_->engine().now();
    auto msg = co_await main_box_.recv_for(std::max(0.0, next_update - now0));
    if (!alive_) break;
    if (msg) handle(std::move(*msg));
    const Time now = overlay_->engine().now();
    if (now >= next_update) {
      if (joined()) overlay_->send_ctrl(host_, tracker_.node, StateUpdate{host_, res_});
      next_update = now + cfg.update_period;
      if (joined() && now - last_ack_ > cfg.fail_timeout) {
        // Paper §III-A.7: no answers from the tracker after time T ->
        // tracker considered disconnected; join a neighbour zone.
        std::erase_if(tracker_list_,
                      [&](const TrackerRef& t) { return t.node == tracker_.node; });
        tracker_ = TrackerRef{-1, Ipv4{}};
        ++rejoins_;
        if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
          tr->instant(tr->track("peer/" + std::to_string(host_)), "rejoin",
                      overlay_->engine().now(), {{"host", host_}});
        co_await join_overlay();
      }
    }
  }
}

sim::Task<std::optional<CtrlMsg>> PeerActor::rpc(NodeIdx to, CtrlMsg msg) {
  overlay_->send_ctrl(host_, to, std::move(msg));
  auto reply = co_await rpc_box_.recv_for(overlay_->config().rpc_timeout);
  co_return reply;
}

sim::Task<void> PeerActor::join_overlay() {
  const OverlayConfig& cfg = overlay_->config();
  if (tracker_list_.empty()) tracker_list_ = overlay_->install_tracker_list();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<TrackerRef> candidates = tracker_list_;
    std::sort(candidates.begin(), candidates.end(),
              [&](const TrackerRef& a, const TrackerRef& b) {
                return closer_to(ip_, a.ip, b.ip);
              });
    for (const TrackerRef& t : candidates) {
      auto reply = co_await rpc(t.node, PeerJoinReq{host_, ip_, res_});
      if (!reply) continue;
      if (auto* ack = std::get_if<PeerJoinAck>(&*reply)) {
        tracker_ = ack->tracker;
        for (const TrackerRef& n : ack->tracker_list) sorted_insert(tracker_list_, n);
        last_ack_ = overlay_->engine().now();
        co_return;
      }
    }
    // All trackers in local memory unresponsive: fall back to the server.
    if (overlay_->server_host() >= 0) {
      auto reply = co_await rpc(overlay_->server_host(), GetTrackersReq{host_});
      if (reply) {
        if (auto* list = std::get_if<GetTrackersReply>(&*reply))
          for (const TrackerRef& t : list->trackers) sorted_insert(tracker_list_, t);
      }
    }
    co_await overlay_->engine().sleep(cfg.rpc_timeout);
  }
}

void PeerActor::handle(CtrlMsg msg) {
  if (auto* ack = std::get_if<StateAck>(&msg)) {
    (void)ack;
    last_ack_ = overlay_->engine().now();
  } else if (auto* res = std::get_if<ReserveReq>(&msg)) {
    const bool ok = !busy_;
    if (ok) {
      busy_ = true;
      reserved_by_ = res->submitter;
      if (joined()) overlay_->send_ctrl(host_, tracker_.node, PeerBusyNotice{host_, true});
    }
    overlay_->send_ctrl(host_, res->submitter, ReserveAck{host_, ok, res->ticket});
  } else if (auto* rel = std::get_if<ReleaseReq>(&msg)) {
    if (busy_ && rel->submitter == reserved_by_) release();
  }
}

void PeerActor::release() {
  busy_ = false;
  reserved_by_ = -1;
  if (joined()) overlay_->send_ctrl(host_, tracker_.node, PeerBusyNotice{host_, false});
}

sim::Task<std::vector<PeerRef>> PeerActor::collect_peers(int wanted, Requirements req,
                                                         std::uint64_t ticket) {
  std::vector<PeerRef> candidates;
  std::vector<NodeIdx> asked;
  std::vector<TrackerRef> known = tracker_list_;
  if (joined()) sorted_insert(known, tracker_);

  // Candidate dedup must stay O(1) per reply entry: at scale one tracker
  // reply can carry thousands of peers, and the old linear rescan made
  // collection quadratic in the reply volume.
  std::unordered_set<NodeIdx> seen{host_};
  auto was_asked = [&](NodeIdx n) {
    return std::find(asked.begin(), asked.end(), n) != asked.end();
  };

  // Asks one tracker for peers; appends fresh candidates.
  auto ask = [&](TrackerRef t) -> sim::Task<void> {
    asked.push_back(t.node);
    auto reply = co_await rpc(t.node, PeerRequest{host_, req, wanted * 2});
    if (!reply) co_return;
    if (auto* r = std::get_if<PeerListReply>(&*reply))
      for (const PeerRef& p : r->peers)
        if (seen.insert(p.node).second) candidates.push_back(p);
  };

  // 1. Own tracker first, then every tracker in the local list by proximity.
  if (joined()) co_await ask(tracker_);
  std::vector<TrackerRef> ordered = known;
  std::sort(ordered.begin(), ordered.end(), [&](const TrackerRef& a, const TrackerRef& b) {
    return closer_to(ip_, a.ip, b.ip);
  });
  for (const TrackerRef& t : ordered) {
    if (static_cast<int>(candidates.size()) >= wanted) break;
    if (!was_asked(t.node)) co_await ask(t);
  }

  // 2. Expand outward through the farthest trackers on both sides until
  //    enough candidates are collected or the line is exhausted.
  while (static_cast<int>(candidates.size()) < wanted) {
    std::vector<TrackerRef> fresh;
    for (bool side_greater : {false, true}) {
      TrackerRef farthest{-1, Ipv4{}};
      for (const TrackerRef& t : known) {
        if (side_greater ? t.ip <= ip_ : t.ip >= ip_) continue;
        if (farthest.node < 0 || (side_greater ? t.ip > farthest.ip : t.ip < farthest.ip))
          farthest = t;
      }
      if (farthest.node < 0) continue;
      auto reply = co_await rpc(farthest.node, TrackerListReq{host_, ip_, side_greater});
      if (!reply) continue;
      if (auto* r = std::get_if<TrackerListReply>(&*reply)) {
        for (const TrackerRef& t : r->trackers) {
          const bool is_known = std::any_of(known.begin(), known.end(), [&](const TrackerRef& k) {
            return k.node == t.node;
          });
          if (!is_known) {
            sorted_insert(known, t);
            fresh.push_back(t);
          }
        }
      }
    }
    if (fresh.empty()) break;  // line exhausted
    for (const TrackerRef& t : fresh) {
      if (static_cast<int>(candidates.size()) >= wanted) break;
      if (!was_asked(t.node)) co_await ask(t);
    }
  }

  // 3. Reserve: peers answer busy/free; keep the first `wanted` confirmed.
  std::vector<PeerRef> reserved;
  for (const PeerRef& p : candidates) {
    if (static_cast<int>(reserved.size()) >= wanted) break;
    obs::TraceRecorder* tr = obs::trace();
    if (tr != nullptr)
      tr->async_begin(tr->track("peer/" + std::to_string(host_)), "reserve", "reserve",
                      static_cast<std::uint64_t>(p.node), overlay_->engine().now(),
                      {{"target", p.node}});
    auto reply = co_await rpc(p.node, ReserveReq{host_, ticket});
    bool ok = false;
    if (reply)
      if (auto* ack = std::get_if<ReserveAck>(&*reply))
        if (ack->ok && ack->ticket == ticket) {
          reserved.push_back(p);
          ok = true;
        }
    // The recorder (if any) is per-run and outlives this coroutine; re-read
    // it anyway so a scope torn down mid-await cannot leave a dangling use.
    if ((tr = obs::trace()) != nullptr) {
      const obs::TrackId t = tr->track("peer/" + std::to_string(host_));
      tr->async_end(t, "reserve", "reserve", static_cast<std::uint64_t>(p.node),
                    overlay_->engine().now());
      if (!ok)
        tr->instant(t, "reserve-miss", overlay_->engine().now(), {{"target", p.node}});
    }
  }
  co_return reserved;
}

}  // namespace pdc::overlay
