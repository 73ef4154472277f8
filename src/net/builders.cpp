#include "net/builders.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/time.hpp"

namespace pdc::net {

using namespace pdc::units;

Platform build_star(const StarSpec& spec) {
  Platform p;
  const NodeIdx sw = p.add_router(spec.name_prefix + "-switch");
  const LinkIdx backbone = p.add_link("backbone", spec.backbone_bw_Bps, spec.backbone_latency);
  for (int i = 0; i < spec.hosts; ++i) {
    const Ipv4 ip{spec.base_ip.bits() + static_cast<std::uint32_t>(i)};
    const NodeIdx h =
        p.add_host(spec.name_prefix + "-" + std::to_string(i), spec.host_speed_hz, ip);
    const LinkIdx nic =
        p.add_link("nic-" + std::to_string(i), spec.nic_bw_Bps, spec.nic_latency);
    p.connect(h, sw, nic);
  }
  // Hierarchical routing with the backbone as trunk forces every host pair
  // through NIC_a up, backbone, NIC_b down — the same hops the old
  // O(hosts^2) explicit-route loop installed, resolved algebraically so a
  // million-host star needs no route table. The trunk hop's direction
  // groups by flow orientation (src < dst), keeping the two directions of
  // the full-duplex fabric independent capacities.
  const bool hier = p.enable_hierarchical_routing(backbone);
  (void)hier;
  assert(hier);
  return p;
}

StarSpec bordeplage_cluster_spec(int hosts) {
  StarSpec s;
  s.hosts = hosts;
  s.host_speed_hz = 3e9;
  s.nic_bw_Bps = 1.0 * Gbps;
  s.nic_latency = 100 * us;
  s.backbone_bw_Bps = 10.0 * Gbps;
  s.backbone_latency = 100 * us;
  s.base_ip = Ipv4{172, 16, 0, 1};
  s.name_prefix = "bordeplage";
  return s;
}

StarSpec lan_spec(int hosts) {
  StarSpec s;
  s.hosts = hosts;
  s.host_speed_hz = 3e9;  // identical machines, different interconnect
  s.nic_bw_Bps = 100.0 * Mbps;
  // Commodity campus switches and 2011-era NIC stacks: noticeably higher
  // per-hop latency than the cluster-grade gear of Stage-1.
  s.nic_latency = 300 * us;
  s.backbone_bw_Bps = 1.0 * Gbps;
  s.backbone_latency = 300 * us;
  s.base_ip = Ipv4{192, 168, 0, 1};
  s.name_prefix = "lan";
  return s;
}

int daisy_host_count(const DaisySpec& spec) {
  return spec.central_routers * spec.routers_per_petal * spec.dslams_per_router *
             spec.nodes_per_dslam +
         spec.extra_nodes_on_one_dslam;
}

Platform build_daisy(const DaisySpec& spec, Rng& rng) {
  if (spec.central_routers < 1 || spec.routers_per_petal < 1 || spec.dslams_per_router < 1)
    throw std::invalid_argument("daisy needs petals, petal_routers and dslams >= 1");
  Platform p;
  // Central ring (l1 @ 100 Gbps).
  std::vector<NodeIdx> center;
  for (int c = 0; c < spec.central_routers; ++c)
    center.push_back(p.add_router("core-" + std::to_string(c)));
  for (int c = 0; c < spec.central_routers; ++c) {
    const int next = (c + 1) % spec.central_routers;
    const LinkIdx l1 = p.add_link("l1-" + std::to_string(c), spec.ring_bw_Bps,
                                  spec.router_latency);
    p.connect(center[static_cast<std::size_t>(c)], center[static_cast<std::size_t>(next)], l1);
  }
  int host_counter = 0;
  for (int petal = 0; petal < spec.central_routers; ++petal) {
    // Petal loop: core -> r0 -> r1 -> ... -> r9 -> core (l2 @ 10 Gbps).
    std::vector<NodeIdx> petal_routers;
    for (int r = 0; r < spec.routers_per_petal; ++r)
      petal_routers.push_back(
          p.add_router("petal-" + std::to_string(petal) + "-r" + std::to_string(r)));
    NodeIdx prev = center[static_cast<std::size_t>(petal)];
    for (int r = 0; r < spec.routers_per_petal; ++r) {
      const LinkIdx l2 = p.add_link(
          "l2-" + std::to_string(petal) + "-" + std::to_string(r), spec.petal_bw_Bps,
          spec.router_latency);
      p.connect(prev, petal_routers[static_cast<std::size_t>(r)], l2);
      prev = petal_routers[static_cast<std::size_t>(r)];
    }
    const LinkIdx l2back = p.add_link("l2-" + std::to_string(petal) + "-back",
                                      spec.petal_bw_Bps, spec.router_latency);
    p.connect(prev, center[static_cast<std::size_t>(petal)], l2back);

    for (int r = 0; r < spec.routers_per_petal; ++r) {
      for (int d = 0; d < spec.dslams_per_router; ++d) {
        const std::string dslam_name = "dslam-" + std::to_string(petal) + "-" +
                                       std::to_string(r) + "-" + std::to_string(d);
        const NodeIdx dslam = p.add_router(dslam_name);
        const LinkIdx up = p.add_link(dslam_name + "-up", spec.dslam_up_bw_Bps,
                                      spec.router_latency);
        p.connect(dslam, petal_routers[static_cast<std::size_t>(r)], up);
        // The very first DSLAM carries the 24 extra nodes (paper Fig. 8).
        int nodes_here = spec.nodes_per_dslam;
        if (petal == 0 && r == 0 && d == 0) nodes_here += spec.extra_nodes_on_one_dslam;
        for (int n = 0; n < nodes_here; ++n) {
          // IPs encode the topology so the IP-prefix proximity metric
          // correlates with network distance: petal in the second octet,
          // router/dslam in the third.
          const Ipv4 ip{static_cast<std::uint8_t>(82),
                        static_cast<std::uint8_t>(petal + 1),
                        static_cast<std::uint8_t>(r * spec.dslams_per_router + d),
                        static_cast<std::uint8_t>(n + 1)};
          const NodeIdx host = p.add_host("xdsl-" + std::to_string(host_counter++),
                                          spec.host_speed_hz, ip);
          const double bw = rng.uniform(spec.last_mile_min_Bps, spec.last_mile_max_Bps);
          const LinkIdx l3 =
              p.add_link("l3-" + std::to_string(host_counter), bw, spec.last_mile_latency);
          p.connect(host, dslam, l3);
        }
      }
    }
  }
  const bool hier = p.enable_hierarchical_routing();
  (void)hier;
  assert(hier);
  return p;
}

Platform build_federation(const FederationSpec& spec) {
  Platform p;
  const NodeIdx core = p.add_router("fed-core");
  int host_counter = 0;
  for (int site = 0; site < spec.clusters; ++site) {
    const NodeIdx sw = p.add_router("site-" + std::to_string(site) + "-switch");
    const LinkIdx uplink = p.add_link("site-" + std::to_string(site) + "-uplink",
                                      spec.wan_bw_Bps, spec.wan_latency);
    p.connect(sw, core, uplink);
    const double speed = spec.site_speeds_hz.empty()
                             ? 3e9
                             : spec.site_speeds_hz[static_cast<std::size_t>(site) %
                                                   spec.site_speeds_hz.size()];
    for (int i = 0; i < spec.hosts_per_cluster; ++i) {
      const Ipv4 ip{10, static_cast<std::uint8_t>(100 + site % 100),
                    static_cast<std::uint8_t>(i / 250),
                    static_cast<std::uint8_t>(i % 250 + 1)};
      const NodeIdx h = p.add_host("site-" + std::to_string(site) + "-node-" +
                                       std::to_string(i),
                                   speed, ip);
      const LinkIdx nic = p.add_link("fed-nic-" + std::to_string(host_counter++),
                                     spec.nic_bw_Bps, spec.nic_latency);
      p.connect(h, sw, nic);
    }
  }
  const bool hier = p.enable_hierarchical_routing();
  (void)hier;
  assert(hier);
  return p;
}

Platform build_wan(const WanSpec& spec, Rng& rng) {
  if (spec.routers < 1) throw std::invalid_argument("wan needs routers >= 1");
  Platform p;
  std::vector<NodeIdx> routers;
  for (int r = 0; r < spec.routers; ++r)
    routers.push_back(p.add_router("wan-r" + std::to_string(r)));
  // Random spanning tree: router r >= 1 attaches to a random earlier router,
  // so the core is always connected.
  for (int r = 1; r < spec.routers; ++r) {
    const int parent = static_cast<int>(rng.uniform_int(0, r - 1));
    const Time lat = rng.uniform(spec.core_lat_min, spec.core_lat_max);
    const LinkIdx l = p.add_link("wan-core-" + std::to_string(r), spec.core_bw_Bps, lat);
    p.connect(routers[static_cast<std::size_t>(r)],
              routers[static_cast<std::size_t>(parent)], l);
  }
  for (int e = 0; e < spec.extra_links && spec.routers > 2; ++e) {
    const int a = static_cast<int>(rng.uniform_int(0, spec.routers - 1));
    int b = static_cast<int>(rng.uniform_int(0, spec.routers - 1));
    if (b == a) b = (b + 1) % spec.routers;
    const Time lat = rng.uniform(spec.core_lat_min, spec.core_lat_max);
    const LinkIdx l =
        p.add_link("wan-shortcut-" + std::to_string(e), spec.core_bw_Bps, lat);
    p.connect(routers[static_cast<std::size_t>(a)], routers[static_cast<std::size_t>(b)], l);
  }
  for (int i = 0; i < spec.hosts; ++i) {
    const int at = static_cast<int>(rng.uniform_int(0, spec.routers - 1));
    const double speed = rng.uniform(spec.speed_min_hz, spec.speed_max_hz);
    const double bw = rng.uniform(spec.access_bw_min_Bps, spec.access_bw_max_Bps);
    const Ipv4 ip{10, static_cast<std::uint8_t>(200 + i / 62500),
                  static_cast<std::uint8_t>(i / 250 % 250),
                  static_cast<std::uint8_t>(i % 250 + 1)};
    const NodeIdx h = p.add_host("wan-node-" + std::to_string(i), speed, ip);
    const LinkIdx l =
        p.add_link("wan-access-" + std::to_string(i), bw, spec.access_latency);
    p.connect(h, routers[static_cast<std::size_t>(at)], l);
  }
  const bool hier = p.enable_hierarchical_routing();
  (void)hier;
  assert(hier);
  return p;
}

namespace {

/// Emits `hosts` end hosts router-major: per-router attachment counts are
/// drawn first (in rng order, so the draw sequence is seed-pure), then
/// hosts come out grouped by router with contiguous IPs. IP-prefix
/// proximity therefore correlates with network locality, and the
/// rank-neighbor halo traffic of grid computations stays router-local.
void attach_hosts_router_major(Platform& p, const std::vector<NodeIdx>& routers,
                               const std::vector<int>& count, int hosts,
                               const std::string& prefix, double speed_hz, double access_bw_Bps,
                               Time access_latency, Ipv4 base_ip) {
  (void)hosts;
  int host_counter = 0;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    for (int c = 0; c < count[r]; ++c) {
      const Ipv4 ip{base_ip.bits() + static_cast<std::uint32_t>(host_counter)};
      const NodeIdx h =
          p.add_host(prefix + "-" + std::to_string(host_counter), speed_hz, ip);
      const LinkIdx nic = p.add_link(prefix + "-nic-" + std::to_string(host_counter),
                                     access_bw_Bps, access_latency);
      p.connect(h, routers[r], nic);
      ++host_counter;
    }
  }
}

}  // namespace

Platform build_scale_free(const ScaleFreeSpec& spec, Rng& rng) {
  Platform p;
  const int nr = std::max(1, spec.routers);
  const int m = std::clamp(spec.m, 1, std::max(1, nr - 1));
  std::vector<NodeIdx> routers;
  routers.reserve(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) routers.push_back(p.add_router("sf-r" + std::to_string(r)));
  // Endpoint multiset: each core edge contributes both endpoints, so a
  // uniform draw from it is a degree-proportional draw over routers.
  std::vector<int> endpoints;
  int core_counter = 0;
  auto core_link = [&](int a, int b) {
    const LinkIdx l = p.add_link("sf-core-" + std::to_string(core_counter++),
                                 spec.core_bw_Bps, spec.core_latency);
    p.connect(routers[static_cast<std::size_t>(a)], routers[static_cast<std::size_t>(b)], l);
    endpoints.push_back(a);
    endpoints.push_back(b);
  };
  const int seed = std::min(nr, m + 1);
  for (int a = 0; a < seed; ++a)
    for (int b = a + 1; b < seed; ++b) core_link(a, b);
  for (int r = seed; r < nr; ++r) {
    // m distinct preferential targets among routers < r (all endpoints are
    // < r, and r >= m + 1, so m distinct targets always exist).
    std::vector<int> targets;
    while (static_cast<int>(targets.size()) < m) {
      const int t = endpoints[rng.uniform_int(0, endpoints.size() - 1)];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) targets.push_back(t);
    }
    for (int t : targets) core_link(r, t);
  }
  std::vector<int> count(static_cast<std::size_t>(nr), 0);
  for (int i = 0; i < spec.hosts; ++i) {
    const int at = endpoints.empty() ? 0
                                     : endpoints[rng.uniform_int(0, endpoints.size() - 1)];
    ++count[static_cast<std::size_t>(at)];
  }
  attach_hosts_router_major(p, routers, count, spec.hosts, "sf", spec.host_speed_hz,
                            spec.access_bw_Bps, spec.access_latency, spec.base_ip);
  const bool hier = p.enable_hierarchical_routing();
  (void)hier;
  assert(hier);
  return p;
}

Platform build_small_world(const SmallWorldSpec& spec, Rng& rng) {
  Platform p;
  const int nr = std::max(3, spec.routers);
  int k = std::clamp(spec.k, 2, nr - 1);
  k -= k % 2;
  std::vector<NodeIdx> routers;
  routers.reserve(static_cast<std::size_t>(nr));
  for (int r = 0; r < nr; ++r) routers.push_back(p.add_router("sw-r" + std::to_string(r)));
  // Ring lattice of degree k. The base ring (j = 1) is never rewired so the
  // core stays connected for every draw; chords (j >= 2) rewire to a
  // uniformly random router with probability beta.
  std::set<std::pair<int, int>> have;
  auto norm = [](int a, int b) { return a < b ? std::pair{a, b} : std::pair{b, a}; };
  int core_counter = 0;
  auto core_link = [&](int a, int b) {
    have.insert(norm(a, b));
    const LinkIdx l = p.add_link("sw-core-" + std::to_string(core_counter++),
                                 spec.core_bw_Bps, spec.core_latency);
    p.connect(routers[static_cast<std::size_t>(a)], routers[static_cast<std::size_t>(b)], l);
  };
  for (int j = 1; j <= k / 2; ++j) {
    for (int i = 0; i < nr; ++i) {
      int b = (i + j) % nr;
      if (have.count(norm(i, b))) continue;  // lattice wrap at j = nr/2
      if (j >= 2 && rng.bernoulli(spec.beta)) {
        // Rewire the far endpoint; bounded retries keep determinism even on
        // dense lattices where i may already touch almost every router.
        for (int attempt = 0; attempt < 2 * nr; ++attempt) {
          const int cand = static_cast<int>(rng.uniform_int(0, nr - 1));
          if (cand == i || have.count(norm(i, cand))) continue;
          b = cand;
          break;
        }
        if (have.count(norm(i, b))) continue;
      }
      core_link(i, b);
    }
  }
  std::vector<int> count(static_cast<std::size_t>(nr), 0);
  for (int i = 0; i < spec.hosts; ++i)
    ++count[rng.uniform_int(0, static_cast<std::size_t>(nr) - 1)];
  attach_hosts_router_major(p, routers, count, spec.hosts, "sw", spec.host_speed_hz,
                            spec.access_bw_Bps, spec.access_latency, spec.base_ip);
  const bool hier = p.enable_hierarchical_routing();
  (void)hier;
  assert(hier);
  return p;
}

}  // namespace pdc::net
