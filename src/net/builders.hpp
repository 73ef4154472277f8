// Builders for the three platforms of the paper's evaluation (§IV-A):
//
//  * Stage-1:  Grid'5000 Bordeplage cluster — 1 Gbps NICs @ 100 us,
//              10 Gbps backbone @ 100 us, Intel Xeon EM64T 3 GHz nodes;
//  * Stage-2A: "Daisy" xDSL topology (Fig. 8) — 5 central routers on a
//              100 Gbps ring, 5 petals of 10 routers (10 Gbps links),
//              4 DSLAMs per petal router (10 Gbps uplinks), 5 nodes per
//              DSLAM at 5..10 Mbps randomly assigned (one DSLAM carries
//              5+24 extra nodes so the total is 1024);
//  * Stage-2B: a regular LAN — 1 Gbps backbone, 100 Mbps per node.
#pragma once

#include "net/platform.hpp"
#include "support/rng.hpp"

namespace pdc::net {

/// Star-with-backbone topology used for both the cluster and the LAN:
/// every host has a private NIC link to the switch, and every host-to-host
/// route additionally crosses one shared backbone link.
struct StarSpec {
  int hosts = 2;
  double host_speed_hz = 3e9;  // paper: Xeon EM64T 3 GHz, one core per node
  // Bandwidths default to the Stage-1 cluster fabric; a zero-bandwidth link
  // would starve every flow crossing it (rate 0 forever).
  double nic_bw_Bps = 1e9 / 8;
  Time nic_latency = 100e-6;
  double backbone_bw_Bps = 10e9 / 8;
  Time backbone_latency = 100e-6;
  Ipv4 base_ip{10, 0, 0, 1};
  std::string name_prefix = "node";
};

Platform build_star(const StarSpec& spec);

/// The paper's Stage-1 Bordeplage cluster with `hosts` nodes.
StarSpec bordeplage_cluster_spec(int hosts);

/// The paper's Stage-2B LAN with `hosts` nodes.
StarSpec lan_spec(int hosts);

/// Stage-2A Daisy xDSL topology (Fig. 8). Last-mile bandwidths are drawn
/// uniformly from [last_mile_min_Bps, last_mile_max_Bps] using `rng`, as the
/// paper randomly assigns 5..10 Mbps.
struct DaisySpec {
  int central_routers = 5;
  int routers_per_petal = 10;
  int dslams_per_router = 4;
  int nodes_per_dslam = 5;
  int extra_nodes_on_one_dslam = 24;  // "exceptionally, one DSLAM connects 5+24 nodes"
  double host_speed_hz = 3e9;         // same machines as the cluster (paper §IV-A.3)
  double ring_bw_Bps = 100e9 / 8;     // l1 @ 100 Gbps
  double petal_bw_Bps = 10e9 / 8;     // l2 @ 10 Gbps
  double dslam_up_bw_Bps = 10e9 / 8;  // DSLAM->router @ 10 Gbps
  double last_mile_min_Bps = 5e6 / 8;
  double last_mile_max_Bps = 10e6 / 8;
  Time router_latency = 200 * 1e-6;     // per backbone hop
  Time last_mile_latency = 2 * 1e-3;    // DSL line latency
};

/// Throws std::invalid_argument unless petals, petal routers and DSLAMs
/// per router are all >= 1.
Platform build_daisy(const DaisySpec& spec, Rng& rng);

/// Total number of end hosts `build_daisy` creates for a spec.
int daisy_host_count(const DaisySpec& spec);

/// Heterogeneous two-tier cluster federation: `clusters` site-local stars
/// (per-host NIC links into a site switch) whose switches hang off one WAN
/// core router over long-haul uplinks. Per-site CPU speed cycles through
/// `site_speeds_hz`, modelling federated sites of different hardware
/// generations; intra-site traffic crosses two NICs, inter-site traffic
/// additionally crosses both site uplinks (routes via BFS).
struct FederationSpec {
  int clusters = 3;
  int hosts_per_cluster = 8;                          // total hosts = clusters * this
  std::vector<double> site_speeds_hz{3e9, 2.4e9, 1.8e9};  // cycled across sites
  double nic_bw_Bps = 1e9 / 8;                        // intra-site host NICs
  Time nic_latency = 100 * 1e-6;
  double wan_bw_Bps = 1e9 / 8;                        // site switch <-> core
  Time wan_latency = 5 * 1e-3;
};

Platform build_federation(const FederationSpec& spec);

/// Random WAN with heterogeneous CPUs: `routers` core routers joined by a
/// random spanning tree plus `extra_links` shortcut links, and `hosts` end
/// hosts each hanging off a random router. Host CPU speed and access
/// bandwidth are drawn uniformly from the given ranges, core link latency
/// from [core_lat_min, core_lat_max] — an internet-like topology where both
/// compute power and connectivity vary per peer. Deterministic given `rng`.
struct WanSpec {
  int hosts = 16;
  int routers = 8;
  int extra_links = 4;  // shortcuts beyond the spanning tree
  double speed_min_hz = 1.5e9;
  double speed_max_hz = 4e9;
  double access_bw_min_Bps = 20e6 / 8;
  double access_bw_max_Bps = 1e9 / 8;
  Time access_latency = 500 * 1e-6;
  double core_bw_Bps = 10e9 / 8;
  Time core_lat_min = 1 * 1e-3;
  Time core_lat_max = 20 * 1e-3;
};

/// Throws std::invalid_argument when `routers` < 1.
Platform build_wan(const WanSpec& spec, Rng& rng);

/// Barabási–Albert scale-free topology: a router core grown by preferential
/// attachment (seed clique of m+1 routers, each later router adding `m`
/// links to routers sampled proportionally to degree), with `hosts` end
/// hosts attached preferentially by router degree — hubs serve many peers,
/// leaf routers few, the degree distribution heavy-tailed like real P2P
/// overlays. Hosts are *emitted* router-major with contiguous IPs so the
/// IP-prefix proximity metric correlates with network locality and
/// rank-neighbor traffic stays router-local. Deterministic given `rng`;
/// hierarchical routing is enabled on the result.
struct ScaleFreeSpec {
  int hosts = 64;
  int routers = 16;
  int m = 2;  // core links added per new router
  double host_speed_hz = 3e9;
  double access_bw_Bps = 100e6 / 8;
  Time access_latency = 300 * 1e-6;
  double core_bw_Bps = 10e9 / 8;
  Time core_latency = 1 * 1e-3;
  Ipv4 base_ip{10, 64, 0, 1};
};

Platform build_scale_free(const ScaleFreeSpec& spec, Rng& rng);

/// Watts–Strogatz small-world topology: routers on a ring lattice of even
/// degree `k`, with every lattice chord beyond the base ring rewired to a
/// uniformly random router with probability `beta` (the base ring is kept,
/// so the core is connected for every draw). Hosts attach to uniformly
/// random routers and are emitted router-major with contiguous IPs, like
/// the scale-free builder. Deterministic given `rng`; hierarchical routing
/// is enabled on the result.
struct SmallWorldSpec {
  int hosts = 64;
  int routers = 16;
  int k = 4;          // ring-lattice degree (rounded down to even)
  double beta = 0.1;  // chord rewiring probability
  double host_speed_hz = 3e9;
  double access_bw_Bps = 100e6 / 8;
  Time access_latency = 300 * 1e-6;
  double core_bw_Bps = 10e9 / 8;
  Time core_latency = 1 * 1e-3;
  Ipv4 base_ip{10, 32, 0, 1};
};

Platform build_small_world(const SmallWorldSpec& spec, Rng& rng);

}  // namespace pdc::net
