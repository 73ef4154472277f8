// The decentralized P2PDC topology manager (paper §III-A):
//
//  * Server: contact point for nodes joining the overlay for the first
//    time; stores tracker registry and zone statistics. The overlay keeps
//    working while the server is down.
//  * Trackers: form a line ordered by IP address; each tracker maintains a
//    set N of closest trackers, half with lower and half with higher IPs,
//    and direct connections (heartbeats) to its immediate neighbours.
//    Joins are routed greedily to the closest tracker; crashes are detected
//    by direct neighbours and repaired by exchanging neighbour-set halves.
//  * Peers: join the zone of the closest tracker, publish their resources,
//    refresh them periodically, and fail over to a neighbour zone when
//    their tracker stops acknowledging updates after time T.
//
// Peers collection (paper §III-B) is implemented by PeerActor::collect_peers:
// the submitter asks its own tracker, then every tracker in its local list,
// then repeatedly expands the known-tracker horizon through the farthest
// trackers on both sides until enough peers are reserved.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "overlay/types.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/task.hpp"
#include "support/flat_map.hpp"

namespace pdc::overlay {

class Overlay;

/// Common actor plumbing: two mailboxes (main protocol + RPC replies) and
/// liveness control.
class ActorBase {
 public:
  ActorBase(Overlay& overlay, NodeIdx host, Ipv4 ip);
  virtual ~ActorBase() = default;

  NodeIdx host() const { return host_; }
  Ipv4 ip() const { return ip_; }
  bool alive() const { return alive_; }

  /// Crash: the main loop exits at its next wake-up, and all queued and
  /// future messages are dropped.
  void crash() { alive_ = false; }

 protected:
  friend class Overlay;
  Overlay* overlay_;
  NodeIdx host_;
  Ipv4 ip_;
  bool alive_ = true;
  sim::Mailbox<CtrlMsg> main_box_;
  sim::Mailbox<CtrlMsg> rpc_box_;
};

class ServerActor : public ActorBase {
 public:
  ServerActor(Overlay& overlay, NodeIdx host, Ipv4 ip) : ActorBase(overlay, host, ip) {}

  sim::Process run();

  /// Bootstrap registration of an administrator-managed core tracker.
  void register_core_tracker(TrackerRef t) { trackers_.push_back(t); }

  const std::vector<TrackerRef>& known_trackers() const { return trackers_; }
  const support::FlatMap<NodeIdx, ZoneStats>& zone_stats() const { return stats_; }

 private:
  void handle(CtrlMsg msg);
  std::vector<TrackerRef> trackers_;
  support::FlatMap<NodeIdx, ZoneStats> stats_;
};

/// One entry of a tracker's zone.
struct ZonePeer {
  PeerRef peer;
  bool busy = false;
  Time last_update = 0;
  /// Installed by lazy (passive) registration: advertised without periodic
  /// state updates and exempt from staleness expiry until its host crashes.
  bool persistent = false;
};

class TrackerActor : public ActorBase {
 public:
  TrackerActor(Overlay& overlay, NodeIdx host, Ipv4 ip, bool bootstrap_core)
      : ActorBase(overlay, host, ip), bootstrap_core_(bootstrap_core) {}

  sim::Process run();

  // --- inspection (tests, stats) ---
  const std::vector<TrackerRef>& neighbor_set() const { return neighbors_; }
  const support::FlatMap<NodeIdx, ZonePeer>& zone() const { return zone_; }
  std::optional<TrackerRef> left_neighbor() const;   // closest lower-IP neighbour
  std::optional<TrackerRef> right_neighbor() const;  // closest higher-IP neighbour
  bool joined() const { return joined_; }

  /// Bootstrap: install an initial neighbour set without running the join
  /// protocol (administrator-configured core trackers, paper §III-A.3).
  void bootstrap_neighbors(std::vector<TrackerRef> neighbors);

 private:
  friend class Overlay;
  void handle(CtrlMsg msg);
  sim::Task<void> join_overlay();
  void insert_neighbor(TrackerRef t);
  void remove_neighbor(NodeIdx node);
  void trim_neighbors();
  /// Closest tracker to `target` among the neighbour set and self.
  TrackerRef closest_known(Ipv4 target) const;
  std::vector<TrackerRef> neighbors_for(Ipv4 joiner) const;
  void detect_dead_neighbors();
  void expire_stale_peers();
  void send_heartbeats();
  void report_stats();
  /// Direct zone install for a passive peer (Overlay::register_passive_peer):
  /// no join round trip, no state-update process, never expires.
  void install_persistent_peer(PeerRef peer);
  /// Passive peer crashed: demote its entry so normal expiry reclaims it.
  void make_peer_transient(NodeIdx node);
  /// Upsert that keeps `transient_` (the count of entries subject to
  /// staleness expiry) in sync; every message-driven insert goes through it.
  ZonePeer& upsert_transient(NodeIdx node);

  bool bootstrap_core_;
  bool joined_ = false;
  std::vector<TrackerRef> neighbors_;  // sorted by IP
  support::FlatMap<NodeIdx, Time> neighbor_last_seen_;
  support::FlatMap<NodeIdx, ZonePeer> zone_;
  /// Entries with persistent == false. The heartbeat-rate expiry scan is
  /// skipped while zero, so a million passive peers cost nothing per tick.
  std::size_t transient_ = 0;
  Time next_heartbeat_ = 0;
  Time next_stats_ = 0;
};

class PeerActor : public ActorBase {
 public:
  PeerActor(Overlay& overlay, NodeIdx host, Ipv4 ip, PeerResources res)
      : ActorBase(overlay, host, ip), res_(res) {}

  sim::Process run();

  // --- inspection ---
  bool joined() const { return tracker_.node >= 0; }
  TrackerRef tracker() const { return tracker_; }
  const std::vector<TrackerRef>& tracker_list() const { return tracker_list_; }
  bool busy() const { return busy_; }
  const PeerResources& resources() const { return res_; }
  int rejoin_count() const { return rejoins_; }

  /// Releases a reservation made by a submitter (local action + notice).
  void release();

  /// Peers collection for a task (paper §III-B), run on the submitter.
  /// Returns the reserved peers (may be fewer than requested if the overlay
  /// is exhausted). `ticket` identifies the reservation.
  sim::Task<std::vector<PeerRef>> collect_peers(int wanted, Requirements req,
                                                std::uint64_t ticket);

 private:
  friend class Overlay;
  void handle(CtrlMsg msg);
  sim::Task<void> join_overlay();
  sim::Task<std::optional<CtrlMsg>> rpc(NodeIdx to, CtrlMsg msg);

  PeerResources res_;
  TrackerRef tracker_{-1, Ipv4{}};
  std::vector<TrackerRef> tracker_list_;
  bool busy_ = false;
  NodeIdx reserved_by_ = -1;
  Time last_ack_ = 0;
  int rejoins_ = 0;
};

/// The overlay context: actor registry plus the control-plane transport
/// (small network flows carrying CtrlMsg values).
class Overlay {
 public:
  Overlay(sim::Engine& engine, const net::Platform& platform, net::FlowNet& flownet,
          OverlayConfig config = {});
  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  ServerActor& create_server(NodeIdx host);
  /// `bootstrap_core` trackers skip the join protocol; they are wired
  /// directly into each other's neighbour sets by finish_bootstrap().
  TrackerActor& create_tracker(NodeIdx host, bool bootstrap_core = false);
  PeerActor& create_peer(NodeIdx host, PeerResources res);

  /// Lazy worker instantiation for massive platforms: registers `host` as a
  /// donor without spawning an actor. The peer is installed directly into
  /// the zone of the closest existing tracker (persistent entry) and costs
  /// O(1) memory and zero idle events; reservation and release against it
  /// are synthesized by the overlay with the same wire costs a live
  /// PeerActor would incur. Requires at least one tracker; returns false
  /// when none exists. Passive peers do not send state updates and do not
  /// fail over when their tracker crashes.
  bool register_passive_peer(NodeIdx host, PeerResources res);

  /// Wires all bootstrap-core trackers into a consistent initial line and
  /// registers them with the server. Call once after creating the cores.
  void finish_bootstrap();

  /// Sends a control message as a network flow, then delivers it.
  void send_ctrl(NodeIdx from, NodeIdx to, CtrlMsg msg);

  sim::Engine& engine() { return *engine_; }
  const net::Platform& platform() const { return *platform_; }
  const OverlayConfig& config() const { return config_; }
  ServerActor* server() { return server_; }
  NodeIdx server_host() const { return server_ ? server_->host() : -1; }

  TrackerActor* tracker_at(NodeIdx host);
  PeerActor* peer_at(NodeIdx host);
  const std::vector<TrackerActor*>& trackers() const { return tracker_ptrs_; }
  const std::vector<PeerActor*>& peers() const { return peer_ptrs_; }

  /// True when `host` can still serve a computation: a live PeerActor or a
  /// passive peer that has not crashed. The liveness check callers must use
  /// instead of peer_at() now that workers may have no actor at all.
  bool peer_alive(NodeIdx host) const;
  /// True when `host` is a passively registered peer (crashed or not).
  bool is_passive_peer(NodeIdx host) const;
  /// Crashes a passive peer: it stops answering reservations and its zone
  /// entry becomes transient, so the tracker expires it like a silent peer.
  /// Returns false when `host` is not a passive peer.
  bool crash_passive_peer(NodeIdx host);

  /// Initial tracker list installed on new nodes (paper: set at install
  /// time together with the server address).
  std::vector<TrackerRef> install_tracker_list() const { return core_trackers_; }

  std::uint64_t ctrl_messages_sent() const { return ctrl_messages_; }

 private:
  friend class ActorBase;
  friend class ServerActor;
  friend class TrackerActor;
  friend class PeerActor;

  /// A lazily registered worker: all the state a reservation needs, no
  /// actor, no mailboxes, no coroutine. Kept in a node-sorted vector.
  struct PassivePeer {
    NodeIdx node = -1;
    NodeIdx tracker = -1;
    bool busy = false;
    bool dead = false;
    NodeIdx reserved_by = -1;
  };

  void deliver(NodeIdx to, CtrlMsg msg);
  /// Reservation protocol on behalf of a passive peer (mirrors
  /// PeerActor::handle for ReserveReq/ReleaseReq; everything else is
  /// dropped, as a stateless donor has no use for it).
  void deliver_passive(PassivePeer& pp, CtrlMsg& msg);
  ActorBase* actor_at(NodeIdx host);
  const ActorBase* actor_at(NodeIdx host) const;
  PassivePeer* passive_at(NodeIdx host);
  const PassivePeer* passive_at(NodeIdx host) const;
  void ensure_host_free(NodeIdx host) const;
  std::unique_ptr<ActorBase>& slot(NodeIdx host);

  sim::Engine* engine_;
  const net::Platform* platform_;
  net::FlowNet* net_;
  OverlayConfig config_;
  ServerActor* server_ = nullptr;
  /// Dense actor registry indexed by platform node: one pointer per node,
  /// null for nodes running nothing (routers, passive peers, spare hosts).
  std::vector<std::unique_ptr<ActorBase>> actors_;
  std::vector<TrackerActor*> tracker_ptrs_;
  std::vector<PeerActor*> peer_ptrs_;
  /// Node-sorted registry of passive peers (binary-search lookup).
  std::vector<PassivePeer> passive_;
  std::vector<TrackerRef> core_trackers_;
  std::uint64_t ctrl_messages_ = 0;
};

}  // namespace pdc::overlay
