#include "net/platform.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/builders.hpp"
#include "support/rng.hpp"
#include "support/time.hpp"

namespace pdc::net {
namespace {

using namespace pdc::units;

TEST(Platform, BfsFindsShortestPath) {
  // a - r1 - r2 - b, plus a slow shortcut a - r2 (fewer hops wins).
  Platform p;
  const auto a = p.add_host("a", 1e9, Ipv4{10, 0, 0, 1});
  const auto b = p.add_host("b", 1e9, Ipv4{10, 0, 0, 2});
  const auto r1 = p.add_router("r1");
  const auto r2 = p.add_router("r2");
  const auto l1 = p.add_link("l1", 1 * Gbps, 1 * ms);
  const auto l2 = p.add_link("l2", 1 * Gbps, 1 * ms);
  const auto l3 = p.add_link("l3", 1 * Gbps, 1 * ms);
  const auto shortcut = p.add_link("shortcut", 1 * Kbps, 1 * ms);
  p.connect(a, r1, l1);
  p.connect(r1, r2, l2);
  p.connect(r2, b, l3);
  p.connect(a, r2, shortcut);
  const Route& r = p.route(a, b);
  ASSERT_EQ(r.hops.size(), 2u);  // shortcut + l3 is the 2-hop path
  EXPECT_EQ(r.hops[0].link, shortcut);
  EXPECT_EQ(r.hops[1].link, l3);
  EXPECT_DOUBLE_EQ(r.latency, 2 * ms);
}

TEST(Platform, RouteThrowsWhenDisconnected) {
  Platform p;
  const auto a = p.add_host("a", 1e9, Ipv4{10, 0, 0, 1});
  const auto b = p.add_host("b", 1e9, Ipv4{10, 0, 0, 2});
  EXPECT_THROW(p.route(a, b), std::runtime_error);
}

TEST(Platform, ExplicitRouteOverridesBfs) {
  Platform p;
  const auto a = p.add_host("a", 1e9, Ipv4{10, 0, 0, 1});
  const auto b = p.add_host("b", 1e9, Ipv4{10, 0, 0, 2});
  const auto direct = p.add_link("direct", 1 * Gbps, 1 * ms);
  const auto scenic = p.add_link("scenic", 1 * Gbps, 9 * ms);
  p.connect(a, b, direct);
  p.connect(a, b, scenic);
  p.set_route(a, b, {Hop{scenic, 0}});
  EXPECT_EQ(p.route(a, b).hops[0].link, scenic);
  // Symmetric reverse route installed with flipped direction.
  const Route& back = p.route(b, a);
  ASSERT_EQ(back.hops.size(), 1u);
  EXPECT_EQ(back.hops[0].link, scenic);
  EXPECT_EQ(back.hops[0].dir, 1);
}

TEST(Platform, ReverseRouteUsesOppositeDirections) {
  Platform p;
  const auto a = p.add_host("a", 1e9, Ipv4{10, 0, 0, 1});
  const auto b = p.add_host("b", 1e9, Ipv4{10, 0, 0, 2});
  const auto r = p.add_router("r");
  const auto l1 = p.add_link("l1", 1 * Gbps, 1 * ms);
  const auto l2 = p.add_link("l2", 1 * Gbps, 1 * ms);
  p.connect(a, r, l1);
  p.connect(r, b, l2);
  const Route& fwd = p.route(a, b);
  const Route& rev = p.route(b, a);
  ASSERT_EQ(fwd.hops.size(), 2u);
  ASSERT_EQ(rev.hops.size(), 2u);
  EXPECT_EQ(fwd.hops[0].link, rev.hops[1].link);
  EXPECT_NE(fwd.hops[0].dir, rev.hops[1].dir);
}

TEST(Platform, FindByNameAndIp) {
  Platform p;
  p.add_host("alpha", 1e9, Ipv4{10, 1, 0, 1});
  p.add_router("r");
  p.add_host("beta", 1e9, Ipv4{10, 1, 0, 2});
  EXPECT_EQ(p.find_by_name("beta"), p.host(1));
  EXPECT_EQ(p.find_by_ip(Ipv4{10, 1, 0, 1}), p.host(0));
  EXPECT_FALSE(p.find_by_name("gamma").has_value());
  EXPECT_FALSE(p.find_by_ip(Ipv4{9, 9, 9, 9}).has_value());
}

TEST(Builders, ClusterMatchesPaperStage1Parameters) {
  const Platform p = build_star(bordeplage_cluster_spec(8));
  EXPECT_EQ(p.host_count(), 8);
  // Every host pair routes NIC -> backbone -> NIC.
  const Route& r = p.route(p.host(0), p.host(5));
  ASSERT_EQ(r.hops.size(), 3u);
  EXPECT_DOUBLE_EQ(p.link(r.hops[0].link).bandwidth_Bps, 1 * Gbps);
  EXPECT_DOUBLE_EQ(p.link(r.hops[1].link).bandwidth_Bps, 10 * Gbps);
  EXPECT_DOUBLE_EQ(p.link(r.hops[2].link).bandwidth_Bps, 1 * Gbps);
  EXPECT_DOUBLE_EQ(r.latency, 300 * us);  // 3 hops x 100 us
  // Node speed: Xeon 3 GHz.
  EXPECT_DOUBLE_EQ(p.node(p.host(0)).speed_hz, 3e9);
}

TEST(Builders, LanMatchesPaperStage2BParameters) {
  const Platform p = build_star(lan_spec(4));
  const Route& r = p.route(p.host(1), p.host(2));
  ASSERT_EQ(r.hops.size(), 3u);
  EXPECT_DOUBLE_EQ(p.link(r.hops[0].link).bandwidth_Bps, 100 * Mbps);
  EXPECT_DOUBLE_EQ(p.link(r.hops[1].link).bandwidth_Bps, 1 * Gbps);
}

TEST(Builders, DaisyHasPaperNodeCountAndStructure) {
  DaisySpec spec;
  Rng rng{42};
  const Platform p = build_daisy(spec, rng);
  EXPECT_EQ(daisy_host_count(spec), 1024);
  EXPECT_EQ(p.host_count(), 1024);
  // Last-mile bandwidths within [5,10] Mbps.
  for (int i = 0; i < p.host_count(); i += 37) {
    const Route& r = p.route(p.host(i), p.host((i + 511) % 1024));
    ASSERT_GE(r.hops.size(), 2u);
    const double first_bw = p.link(r.hops.front().link).bandwidth_Bps;
    EXPECT_GE(first_bw, 5 * Mbps - 1);
    EXPECT_LE(first_bw, 10 * Mbps + 1);
  }
}

TEST(Builders, DaisyIpProximityCorrelatesWithTopology) {
  DaisySpec spec;
  Rng rng{42};
  const Platform p = build_daisy(spec, rng);
  // Two nodes on the same DSLAM share a longer prefix than nodes on
  // different petals, and their route is shorter.
  const Ipv4 same_dslam_a = p.node(p.host(30)).ip;  // extra-DSLAM area
  Ipv4 same_dslam_b;
  Ipv4 other_petal;
  int idx_same = -1, idx_other = -1;
  for (int i = 0; i < p.host_count(); ++i) {
    const Ipv4 ip = p.node(p.host(i)).ip;
    if (i != 30 && (ip.bits() >> 8) == (same_dslam_a.bits() >> 8) && idx_same < 0) {
      same_dslam_b = ip;
      idx_same = i;
    }
    if (((ip.bits() >> 16) & 0xFF) != ((same_dslam_a.bits() >> 16) & 0xFF) && idx_other < 0) {
      other_petal = ip;
      idx_other = i;
    }
  }
  ASSERT_GE(idx_same, 0);
  ASSERT_GE(idx_other, 0);
  EXPECT_GT(common_prefix_len(same_dslam_a, same_dslam_b),
            common_prefix_len(same_dslam_a, other_petal));
  EXPECT_LT(p.route(p.host(30), p.host(idx_same)).hops.size(),
            p.route(p.host(30), p.host(idx_other)).hops.size());
}

TEST(Builders, DaisyDeterministicForFixedSeed) {
  DaisySpec spec;
  Rng r1{7}, r2{7};
  const Platform p1 = build_daisy(spec, r1);
  const Platform p2 = build_daisy(spec, r2);
  ASSERT_EQ(p1.link_count(), p2.link_count());
  for (int l = 0; l < p1.link_count(); l += 101)
    EXPECT_DOUBLE_EQ(p1.link(l).bandwidth_Bps, p2.link(l).bandwidth_Bps);
}

// Zero counts used to crash the generators (empty vectors indexed, a
// modulo by zero routers); they are argument errors now.
TEST(Builders, DegenerateGeneratorCountsThrow) {
  Rng rng{42};
  for (int DaisySpec::*count : {&DaisySpec::central_routers, &DaisySpec::routers_per_petal,
                                &DaisySpec::dslams_per_router}) {
    DaisySpec spec;
    spec.*count = 0;
    EXPECT_THROW(build_daisy(spec, rng), std::invalid_argument);
  }
  WanSpec wan;
  wan.routers = 0;
  EXPECT_THROW(build_wan(wan, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pdc::net
