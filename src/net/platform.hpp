// Network platform description: hosts, routers, full-duplex links and
// routes. This plays the role of SimGrid's platform files in the paper's
// dPerf pipeline ("the platform description file being ready ... with
// Simgrid we calculate the necessary time for communicating").
//
// Routes are computed on demand. Structured topologies (star, daisy,
// federation, scale-free, small-world) enable *hierarchical* resolution:
// every host hangs off exactly one router, so a host-pair route is the
// host's access hop + a router-core path + the peer's access hop, and only
// router-pair paths ever need a graph search. Unstructured platforms fall
// back to hop-count BFS over the full node graph. Either way computed
// routes land in a bounded LRU cache — a precomputed table over 10^6 hosts
// cannot exist — and builders may still install explicit routes that
// override everything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/ipv4.hpp"
#include "support/time.hpp"

namespace pdc::net {

using NodeIdx = int;
using LinkIdx = int;

/// A full-duplex link: `bandwidth_Bps` is available independently in each
/// direction (the paper: "all connections are full-duplex").
struct Link {
  std::string name;
  double bandwidth_Bps = 0;
  Time latency = 0;
};

struct NodeInfo {
  std::string name;
  bool is_host = false;
  double speed_hz = 0;  // CPU cycles per second; 0 for routers
  Ipv4 ip;              // hosts only
};

/// One traversal step of a route: a link plus the direction of traversal
/// (0 = from the edge's first endpoint to the second). Flows contend only
/// with flows crossing the same link in the same direction.
struct Hop {
  LinkIdx link = -1;
  int dir = 0;
  friend bool operator==(const Hop&, const Hop&) = default;
};

/// Flat per-direction link index: link id × direction packed densely so the
/// flow engine can keep per-direction records in a plain vector instead of a
/// map keyed on (link, dir).
constexpr std::size_t linkdir_index(const Hop& h) {
  return (static_cast<std::size_t>(static_cast<std::uint32_t>(h.link)) << 1) |
         static_cast<std::size_t>(h.dir & 1);
}

struct Route {
  std::vector<Hop> hops;
  Time latency = 0;  // sum of link latencies along the path
};

/// Route-resolution observability: how many routes were actually computed
/// (graph search or hierarchical assembly) versus served from the bounded
/// cache, and how many cache entries were evicted to stay within capacity.
struct RouteStats {
  std::uint64_t routes_computed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entries = 0;  // current resident entries
};

class Platform {
 public:
  NodeIdx add_host(std::string name, double speed_hz, Ipv4 ip);
  NodeIdx add_router(std::string name);
  LinkIdx add_link(std::string name, double bandwidth_Bps, Time latency);

  /// Adds an undirected edge between nodes `a` and `b` carried by `link`.
  void connect(NodeIdx a, NodeIdx b, LinkIdx link);

  /// Installs an explicit route from `src` to `dst` (and its reverse, with
  /// directions flipped, unless `symmetric` is false).
  void set_route(NodeIdx src, NodeIdx dst, std::vector<Hop> hops, bool symmetric = true);

  /// Returns the route between two *distinct* nodes: explicit if installed,
  /// else hierarchical assembly (when enabled), else the BFS shortest path
  /// (deterministic tie-breaking by edge insertion order). Throws
  /// std::runtime_error if no path exists. The returned reference stays
  /// valid until later route() calls evict the entry from the bounded
  /// cache; callers that retain hops must copy them.
  const Route& route(NodeIdx src, NodeIdx dst) const;

  /// Switches route() to hierarchical resolution. Requires every host to
  /// have exactly one edge, to a router; returns false (and stays on BFS)
  /// otherwise. When `trunk` names a fabric link, every host-pair route
  /// additionally crosses it between the access hops with direction
  /// src < dst ? 0 : 1 — this reproduces the star builder's shared
  /// backbone without materialising O(hosts^2) explicit routes.
  bool enable_hierarchical_routing(LinkIdx trunk = -1);
  bool hierarchical_routing() const { return hier_; }
  LinkIdx trunk_link() const { return trunk_; }

  RouteStats route_stats() const;

  const NodeInfo& node(NodeIdx n) const { return nodes_[static_cast<std::size_t>(n)]; }
  const Link& link(LinkIdx l) const { return links_[static_cast<std::size_t>(l)]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }
  /// Number of dense per-direction link slots (see linkdir_index).
  std::size_t linkdir_count() const { return 2 * links_.size(); }

  /// Hosts in insertion order (stable rank -> host mapping for experiments).
  int host_count() const { return static_cast<int>(hosts_.size()); }
  NodeIdx host(int i) const { return hosts_[static_cast<std::size_t>(i)]; }

  std::optional<NodeIdx> find_by_name(const std::string& name) const;
  std::optional<NodeIdx> find_by_ip(Ipv4 ip) const;

  struct Edge {
    NodeIdx a, b;
    LinkIdx link;
  };
  int edge_count() const { return static_cast<int>(edges_.size()); }
  const Edge& edge(int i) const { return edges_[static_cast<std::size_t>(i)]; }

  /// One installed explicit route (as passed to set_route; symmetric
  /// installation produces two entries, one per direction).
  struct ExplicitRoute {
    NodeIdx src, dst;
    const Route* route;
  };
  /// All explicit routes, sorted by (src, dst) for deterministic output.
  std::vector<ExplicitRoute> explicit_route_list() const;

 private:
  Route compute_bfs_route(NodeIdx src, NodeIdx dst, bool routers_only) const;
  Route compute_core_route(NodeIdx src, NodeIdx dst) const;
  Route compute_hier_route(NodeIdx src, NodeIdx dst) const;
  const Route& cache_insert(std::uint64_t key, Route r) const;
  static std::uint64_t pair_key(NodeIdx a, NodeIdx b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  std::vector<NodeInfo> nodes_;
  std::vector<Link> links_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> adjacency_;  // node -> edge indices
  std::vector<NodeIdx> hosts_;
  std::unordered_map<std::uint64_t, Route> explicit_routes_;

  // Hierarchical metadata: per host, the single uplink edge decomposed into
  // (attachment router, carrying link, host->router traversal direction).
  struct Access {
    NodeIdx router = -1;
    LinkIdx link = -1;
    int up_dir = 0;
  };
  bool hier_ = false;
  LinkIdx trunk_ = -1;
  std::vector<Access> access_;  // indexed by node, hosts only

  // Bounded LRU over computed routes (host pairs and router-core paths
  // share one cache), holding at most kRouteCacheCapacity entries. List
  // front = most recently used; the map points into the list so returned
  // references survive until their entry is evicted.
  struct CacheEntry {
    std::uint64_t key;
    Route route;
  };
  mutable std::list<CacheEntry> cache_lru_;
  mutable std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> route_cache_;
  static constexpr std::size_t kRouteCacheCapacity = 65536;
  mutable RouteStats stats_;
};

}  // namespace pdc::net
