#include "net/platform.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace pdc::net {

NodeIdx Platform::add_host(std::string name, double speed_hz, Ipv4 ip) {
  const auto idx = static_cast<NodeIdx>(nodes_.size());
  nodes_.push_back(NodeInfo{std::move(name), /*is_host=*/true, speed_hz, ip});
  adjacency_.emplace_back();
  hosts_.push_back(idx);
  return idx;
}

NodeIdx Platform::add_router(std::string name) {
  const auto idx = static_cast<NodeIdx>(nodes_.size());
  nodes_.push_back(NodeInfo{std::move(name), /*is_host=*/false, 0.0, Ipv4{}});
  adjacency_.emplace_back();
  return idx;
}

LinkIdx Platform::add_link(std::string name, double bandwidth_Bps, Time latency) {
  const auto idx = static_cast<LinkIdx>(links_.size());
  links_.push_back(Link{std::move(name), bandwidth_Bps, latency});
  return idx;
}

void Platform::connect(NodeIdx a, NodeIdx b, LinkIdx link) {
  const int edge = static_cast<int>(edges_.size());
  edges_.push_back(Edge{a, b, link});
  adjacency_[static_cast<std::size_t>(a)].push_back(edge);
  adjacency_[static_cast<std::size_t>(b)].push_back(edge);
}

void Platform::set_route(NodeIdx src, NodeIdx dst, std::vector<Hop> hops, bool symmetric) {
  Route fwd;
  fwd.hops = hops;
  for (const Hop& h : hops) fwd.latency += links_[static_cast<std::size_t>(h.link)].latency;
  explicit_routes_[pair_key(src, dst)] = std::move(fwd);
  if (symmetric) {
    Route rev;
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
      rev.hops.push_back(Hop{it->link, 1 - it->dir});
      rev.latency += links_[static_cast<std::size_t>(it->link)].latency;
    }
    explicit_routes_[pair_key(dst, src)] = std::move(rev);
  }
}

bool Platform::enable_hierarchical_routing(LinkIdx trunk) {
  if (trunk >= link_count()) return false;
  std::vector<Access> access(nodes_.size());
  for (NodeIdx h : hosts_) {
    const auto& adj = adjacency_[static_cast<std::size_t>(h)];
    if (adj.size() != 1) return false;
    const Edge& e = edges_[static_cast<std::size_t>(adj[0])];
    const NodeIdx peer = e.a == h ? e.b : e.a;
    if (nodes_[static_cast<std::size_t>(peer)].is_host) return false;
    access[static_cast<std::size_t>(h)] = Access{peer, e.link, e.a == h ? 0 : 1};
  }
  access_ = std::move(access);
  hier_ = true;
  trunk_ = trunk < 0 ? -1 : trunk;
  route_cache_.clear();
  cache_lru_.clear();
  return true;
}

RouteStats Platform::route_stats() const {
  RouteStats s = stats_;
  s.cache_entries = route_cache_.size();
  return s;
}

const Route& Platform::route(NodeIdx src, NodeIdx dst) const {
  const std::uint64_t key = pair_key(src, dst);
  if (auto it = explicit_routes_.find(key); it != explicit_routes_.end()) return it->second;
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    ++stats_.cache_hits;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return it->second->route;
  }
  const bool hier = hier_ && static_cast<std::size_t>(src) < access_.size() &&
                    static_cast<std::size_t>(dst) < access_.size();
  Route r = hier ? compute_hier_route(src, dst)
                 : compute_bfs_route(src, dst, /*routers_only=*/false);
  ++stats_.routes_computed;
  return cache_insert(key, std::move(r));
}

const Route& Platform::cache_insert(std::uint64_t key, Route r) const {
  while (route_cache_.size() >= kRouteCacheCapacity && !cache_lru_.empty()) {
    route_cache_.erase(cache_lru_.back().key);
    cache_lru_.pop_back();
    ++stats_.cache_evictions;
  }
  cache_lru_.push_front(CacheEntry{key, std::move(r)});
  route_cache_.emplace(key, cache_lru_.begin());
  return cache_lru_.front().route;
}

// Hierarchical assembly: access hop up, router-core path (cached under the
// router pair, so 10^5 hosts behind a handful of routers share a few core
// entries), access hop down. On a trunked star the core collapses to the
// single fabric hop with direction src < dst ? 0 : 1, exactly what the old
// O(hosts^2) explicit-route loop installed.
Route Platform::compute_hier_route(NodeIdx src, NodeIdx dst) const {
  if (src == dst) return Route{};
  const NodeInfo& sn = nodes_[static_cast<std::size_t>(src)];
  const NodeInfo& dn = nodes_[static_cast<std::size_t>(dst)];
  const NodeIdx rs = sn.is_host ? access_[static_cast<std::size_t>(src)].router : src;
  const NodeIdx rd = dn.is_host ? access_[static_cast<std::size_t>(dst)].router : dst;
  Route r;
  if (sn.is_host) {
    const Access& a = access_[static_cast<std::size_t>(src)];
    r.hops.push_back(Hop{a.link, a.up_dir});
  }
  if (rs != rd) {
    const Route core = compute_core_route(rs, rd);
    r.hops.insert(r.hops.end(), core.hops.begin(), core.hops.end());
  } else if (trunk_ >= 0 && sn.is_host && dn.is_host) {
    r.hops.push_back(Hop{trunk_, src < dst ? 0 : 1});
  }
  if (dn.is_host) {
    const Access& a = access_[static_cast<std::size_t>(dst)];
    r.hops.push_back(Hop{a.link, 1 - a.up_dir});
  }
  // Latency summed in reverse hop order: the exact accumulation order of
  // the full-graph BFS this assembly replaces, so latencies stay
  // bit-identical and existing golden records hold.
  for (auto it = r.hops.rbegin(); it != r.hops.rend(); ++it)
    r.latency += links_[static_cast<std::size_t>(it->link)].latency;
  return r;
}

// Router-core path, cached under the router pair. Callers pass distinct
// routers (rs != rd).
Route Platform::compute_core_route(NodeIdx src, NodeIdx dst) const {
  const std::uint64_t key = pair_key(src, dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    ++stats_.cache_hits;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return it->second->route;  // copied into the caller's assembly below
  }
  Route r = compute_bfs_route(src, dst, /*routers_only=*/true);
  ++stats_.routes_computed;
  return cache_insert(key, std::move(r));
}

// Hop-count BFS, tie-broken by edge insertion order. With `routers_only`
// host edges are skipped; hosts are degree-1 leaves, so the BFS discovery
// order of routers — and therefore the tie-breaking — is identical to a
// full-graph BFS.
Route Platform::compute_bfs_route(NodeIdx src, NodeIdx dst, bool routers_only) const {
  if (src == dst) return Route{};
  std::vector<int> via_edge(nodes_.size(), -1);
  std::vector<NodeIdx> parent(nodes_.size(), -1);
  std::deque<NodeIdx> frontier{src};
  parent[static_cast<std::size_t>(src)] = src;
  while (!frontier.empty()) {
    const NodeIdx n = frontier.front();
    frontier.pop_front();
    if (n == dst) break;
    for (int e : adjacency_[static_cast<std::size_t>(n)]) {
      const Edge& edge = edges_[static_cast<std::size_t>(e)];
      const NodeIdx next = edge.a == n ? edge.b : edge.a;
      if (routers_only && nodes_[static_cast<std::size_t>(next)].is_host) continue;
      if (parent[static_cast<std::size_t>(next)] != -1) continue;
      parent[static_cast<std::size_t>(next)] = n;
      via_edge[static_cast<std::size_t>(next)] = e;
      frontier.push_back(next);
    }
  }
  if (parent[static_cast<std::size_t>(dst)] == -1)
    throw std::runtime_error("Platform::route: no path from " +
                             nodes_[static_cast<std::size_t>(src)].name + " to " +
                             nodes_[static_cast<std::size_t>(dst)].name);
  Route r;
  for (NodeIdx n = dst; n != src; n = parent[static_cast<std::size_t>(n)]) {
    const Edge& edge = edges_[static_cast<std::size_t>(via_edge[static_cast<std::size_t>(n)])];
    // The hop is traversed *into* n: direction 0 when moving a->b.
    const int dir = edge.b == n ? 0 : 1;
    r.hops.push_back(Hop{edge.link, dir});
    r.latency += links_[static_cast<std::size_t>(edge.link)].latency;
  }
  std::reverse(r.hops.begin(), r.hops.end());
  return r;
}

std::vector<Platform::ExplicitRoute> Platform::explicit_route_list() const {
  std::vector<ExplicitRoute> out;
  out.reserve(explicit_routes_.size());
  for (const auto& [key, route] : explicit_routes_)
    out.push_back(ExplicitRoute{static_cast<NodeIdx>(key >> 32),
                                static_cast<NodeIdx>(key & 0xffffffffu), &route});
  std::sort(out.begin(), out.end(), [](const ExplicitRoute& a, const ExplicitRoute& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return out;
}

std::optional<NodeIdx> Platform::find_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].name == name) return static_cast<NodeIdx>(i);
  return std::nullopt;
}

std::optional<NodeIdx> Platform::find_by_ip(Ipv4 ip) const {
  for (NodeIdx h : hosts_)
    if (nodes_[static_cast<std::size_t>(h)].ip == ip) return h;
  return std::nullopt;
}

}  // namespace pdc::net
