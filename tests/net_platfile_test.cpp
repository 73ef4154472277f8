#include "net/platfile.hpp"

#include <gtest/gtest.h>

#include "net/builders.hpp"
#include "support/time.hpp"

namespace pdc::net {
namespace {

using namespace pdc::units;

const char* kSample = R"(
# two hosts behind a router
host a speed 3GHz ip 10.0.0.1
host b speed 2.4GHz ip 10.0.0.2
router r
link up bw 100Mbps lat 50us
link down bw 1Gbps lat 100us
edge a r up
edge r b down
route a b up down
)";

TEST(PlatFile, ParsesHostsRoutersLinks) {
  const Platform p = parse_platform(kSample);
  EXPECT_EQ(p.host_count(), 2);
  EXPECT_EQ(p.node_count(), 3);
  EXPECT_EQ(p.link_count(), 2);
  const auto a = p.find_by_name("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(p.node(*a).speed_hz, 3e9);
  EXPECT_EQ(p.node(*a).ip.to_string(), "10.0.0.1");
  const auto up = p.route(*a, *p.find_by_name("b"));
  ASSERT_EQ(up.hops.size(), 2u);
  EXPECT_DOUBLE_EQ(p.link(up.hops[0].link).bandwidth_Bps, 100 * Mbps);
  EXPECT_NEAR(up.latency, 150 * us, 1e-12);
}

TEST(PlatFile, ExplicitRouteDirectionsInferred) {
  const Platform p = parse_platform(kSample);
  const auto a = *p.find_by_name("a");
  const auto b = *p.find_by_name("b");
  const Route& fwd = p.route(a, b);
  EXPECT_EQ(fwd.hops[0].dir, 0);  // a->r traverses edge (a,r) forward
  const Route& rev = p.route(b, a);
  EXPECT_EQ(rev.hops[1].dir, 1);
}

TEST(PlatFile, ErrorsCarryLineNumbers) {
  try {
    parse_platform("router r\nhost broken speed 3GHz\n");
    FAIL() << "expected PlatFileError";
  } catch (const PlatFileError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(PlatFile, RejectsUnknownKeyword) {
  EXPECT_THROW(parse_platform("frobnicate x\n"), PlatFileError);
}

TEST(PlatFile, RejectsDuplicateNames) {
  EXPECT_THROW(parse_platform("router r\nrouter r\n"), PlatFileError);
  EXPECT_THROW(parse_platform("link l bw 1Mbps lat 1us\nlink l bw 1Mbps lat 1us\n"),
               PlatFileError);
}

TEST(PlatFile, RejectsUnknownNodeInEdge) {
  EXPECT_THROW(parse_platform("router r\nlink l bw 1Mbps lat 1us\nedge r ghost l\n"),
               PlatFileError);
}

TEST(PlatFile, RejectsBadUnits) {
  EXPECT_THROW(parse_platform("link l bw 1furlong lat 1us\n"), PlatFileError);
  EXPECT_THROW(parse_platform("host h speed fast ip 1.2.3.4\n"), PlatFileError);
  EXPECT_THROW(parse_platform("host h speed 3GHz ip 999.2.3.4\n"), PlatFileError);
}

TEST(PlatFile, RejectsRouteThatIsNotAPath) {
  const char* text = R"(
host a speed 1GHz ip 10.0.0.1
host b speed 1GHz ip 10.0.0.2
router r
link l1 bw 1Mbps lat 1us
link l2 bw 1Mbps lat 1us
edge a r l1
edge r b l2
route a b l2 l1
)";
  EXPECT_THROW(parse_platform(text), PlatFileError);
}

TEST(PlatFile, RenderParseRoundTrip) {
  const Platform original = build_star(bordeplage_cluster_spec(4));
  const std::string text = render_platform(original);
  const Platform reparsed = parse_platform(text);
  EXPECT_EQ(reparsed.node_count(), original.node_count());
  EXPECT_EQ(reparsed.link_count(), original.link_count());
  EXPECT_EQ(reparsed.edge_count(), original.edge_count());
  EXPECT_EQ(reparsed.host_count(), original.host_count());
  for (int l = 0; l < original.link_count(); ++l) {
    EXPECT_NEAR(reparsed.link(l).bandwidth_Bps, original.link(l).bandwidth_Bps, 1.0);
    EXPECT_NEAR(reparsed.link(l).latency, original.link(l).latency, 1e-9);
  }
  for (int h = 0; h < original.host_count(); ++h)
    EXPECT_EQ(reparsed.node(reparsed.host(h)).ip, original.node(original.host(h)).ip);
}

// Regression: render_platform used to drop routing metadata, so a
// re-parsed star platform silently fell back to BFS paths that skip the
// shared backbone. The star now routes hierarchically through its trunk
// (no explicit route table), and that must survive the round trip via the
// "hier trunk" directive.
TEST(PlatFile, RenderParseRoundTripPreservesRoutes) {
  const Platform original = build_star(bordeplage_cluster_spec(4));
  ASSERT_TRUE(original.hierarchical_routing());
  const std::string text = render_platform(original);
  EXPECT_NE(text.find("hier trunk backbone"), std::string::npos);
  const Platform reparsed = parse_platform(text);
  for (int a = 0; a < original.host_count(); ++a) {
    for (int b = 0; b < original.host_count(); ++b) {
      if (a == b) continue;
      const Route& want = original.route(original.host(a), original.host(b));
      const Route& got = reparsed.route(reparsed.host(a), reparsed.host(b));
      ASSERT_EQ(got.hops.size(), want.hops.size()) << a << "->" << b;
      for (std::size_t i = 0; i < want.hops.size(); ++i) {
        EXPECT_EQ(reparsed.link(got.hops[i].link).name, original.link(want.hops[i].link).name)
            << a << "->" << b << " hop " << i;
        EXPECT_EQ(got.hops[i].dir, want.hops[i].dir) << a << "->" << b << " hop " << i;
      }
      EXPECT_NEAR(got.latency, want.latency, 1e-12);
    }
  }
  // Idempotent: rendering the reparsed platform gives the same text.
  EXPECT_EQ(render_platform(reparsed), text);
}

TEST(PlatFile, HierRejectsNonHierarchicalPlatform) {
  // Host with two uplinks: hierarchical resolution cannot apply.
  const char* text = R"(
host a speed 1GHz ip 10.0.0.1
router r1
router r2
link l1 bw 1Mbps lat 1us
link l2 bw 1Mbps lat 1us
edge a r1 l1
edge a r2 l2
hier
)";
  EXPECT_THROW(parse_platform(text), PlatFileError);
}

TEST(PlatFile, HierRejectsUnknownTrunkAndBadShape) {
  EXPECT_THROW(parse_platform("router r\nhier trunk nosuchlink\n"), PlatFileError);
  EXPECT_THROW(parse_platform("router r\nhier trunk\n"), PlatFileError);
  EXPECT_THROW(parse_platform("router r\nhier bogus x\n"), PlatFileError);
}

// Fabric links (no edge) carry their direction in the route line.
TEST(PlatFile, FabricLinkRouteRoundTrip) {
  const char* text = R"(
host a speed 1GHz ip 10.0.0.1
host b speed 1GHz ip 10.0.0.2
router r
link l1 bw 1Mbps lat 1us
link l2 bw 1Mbps lat 1us
link fabric bw 10Mbps lat 5us
edge a r l1
edge r b l2
route a b l1 fabric:fwd l2
)";
  const Platform p = parse_platform(text);
  const auto a = *p.find_by_name("a");
  const auto b = *p.find_by_name("b");
  ASSERT_EQ(p.route(a, b).hops.size(), 3u);
  EXPECT_EQ(p.route(a, b).hops[1].dir, 0);
  EXPECT_EQ(p.route(b, a).hops[1].dir, 1);  // symmetric install flips the fabric hop
  const Platform back = parse_platform(render_platform(p));
  EXPECT_EQ(render_platform(back), render_platform(p));
  EXPECT_EQ(back.route(*back.find_by_name("b"), *back.find_by_name("a")).hops[1].dir, 1);
}

TEST(PlatFile, UnitValueParsers) {
  EXPECT_DOUBLE_EQ(kSpeed.parse("2.5GHz", "speed"), 2.5e9);
  EXPECT_DOUBLE_EQ(kBandwidth.parse("1Gbps", "bandwidth"), 1e9 / 8);
  EXPECT_DOUBLE_EQ(kLatency.parse("100us", "latency"), 100e-6);
  EXPECT_THROW(kSpeed.parse("fast", "speed"), std::invalid_argument);
  EXPECT_THROW(kBandwidth.parse("1Gb", "bandwidth"), std::invalid_argument);
}

TEST(PlatFile, CommentsAndBlankLinesIgnored)
{
  const Platform p = parse_platform("# nothing\n\n   \nrouter r # trailing\n");
  EXPECT_EQ(p.node_count(), 1);
}

}  // namespace
}  // namespace pdc::net
