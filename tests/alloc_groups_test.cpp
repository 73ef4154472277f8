#include "alloc/groups.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "net/builders.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pdc::alloc {
namespace {

overlay::PeerRef peer(int node, Ipv4 ip, double cpu = 3e9) {
  return overlay::PeerRef{node, ip, overlay::PeerResources{cpu, 1e9, 1e9}};
}

TEST(Groups, EmptyInputYieldsNoGroups) {
  EXPECT_TRUE(form_groups({}).empty());
}

TEST(Groups, SingleGroupUnderCmax) {
  std::vector<overlay::PeerRef> peers;
  for (int i = 0; i < 10; ++i) peers.push_back(peer(i, Ipv4{10, 0, 0, static_cast<std::uint8_t>(i + 1)}));
  const auto groups = form_groups(peers);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 10u);
}

TEST(Groups, SplitsAtCmaxBoundary) {
  std::vector<overlay::PeerRef> peers;
  for (int i = 0; i < 33; ++i)
    peers.push_back(peer(i, Ipv4{10, 0, static_cast<std::uint8_t>(i / 8), static_cast<std::uint8_t>(i + 1)}));
  const auto groups = form_groups(peers);  // Cmax = 32 -> split at a /24 gap
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size() + groups[1].members.size(), 33u);
  for (const auto& g : groups) EXPECT_LE(g.members.size(), 32u);
  // The split happens at a subnet boundary (multiple of 8 here), not at an
  // arbitrary midpoint.
  EXPECT_EQ(groups[0].members.size() % 8, 0u);
}

TEST(Groups, NeverExceedsCmax) {
  Rng rng{5};
  for (int n : {1, 31, 32, 33, 64, 65, 100, 129}) {
    std::vector<overlay::PeerRef> peers;
    for (int i = 0; i < n; ++i)
      peers.push_back(peer(i, Ipv4{static_cast<std::uint32_t>(rng.next_u64())}));
    const auto groups = form_groups(peers);
    std::size_t total = 0;
    for (const auto& g : groups) {
      EXPECT_LE(g.members.size(), static_cast<std::size_t>(kCmax));
      EXPECT_FALSE(g.members.empty());
      total += g.members.size();
    }
    EXPECT_EQ(total, static_cast<std::size_t>(n));
  }
}

TEST(Groups, GroupingIsByIpProximity) {
  // Two IP clusters must not be interleaved across groups.
  std::vector<overlay::PeerRef> peers;
  for (int i = 0; i < 40; ++i) peers.push_back(peer(i, Ipv4{10, 0, 0, static_cast<std::uint8_t>(i + 1)}));
  for (int i = 0; i < 40; ++i) peers.push_back(peer(100 + i, Ipv4{82, 5, 0, static_cast<std::uint8_t>(i + 1)}));
  const auto groups = form_groups(peers);
  for (const auto& g : groups) {
    std::set<std::uint32_t> nets;
    for (const auto& m : g.members) nets.insert(m.ip.bits() >> 24);
    // 80 peers -> 3 groups of <=32; each group fits inside one /8.
    EXPECT_EQ(nets.size(), 1u);
  }

  // §III-C: grouping by proximity makes coordinator-member communication
  // faster. 128 volunteers on the Daisy xDSL platform: IP-prefix groups
  // average 6.88 route hops (4.98 ms) from coordinator to member, random
  // groups of the same sizes 10.47 hops (5.69 ms).
  peers.clear();
  Rng rng{42};
  const net::Platform plat = net::build_daisy(net::DaisySpec{}, rng);
  for (int i = 0; i < 128; ++i) {
    const net::NodeIdx h = plat.host((i * 8 + 3) % plat.host_count());
    peers.push_back(overlay::PeerRef{h, plat.node(h).ip, overlay::PeerResources{3e9, 1e9, 1e9}});
  }
  auto distance = [&plat](const std::vector<Group>& groups) {
    RunningStats hops, latency;
    for (const auto& g : groups) {
      const net::NodeIdx coord = g.coordinator_ref().node;
      for (const auto& m : g.members) {
        if (m.node == coord) continue;
        const net::Route& r = plat.route(coord, m.node);
        hops.add(static_cast<double>(r.hops.size()));
        latency.add(r.latency);
      }
    }
    return std::pair{hops.mean(), latency.mean()};
  };

  const std::vector<Group> proximity = form_groups(peers);
  Rng shuffle_rng{7};
  shuffle_rng.shuffle(peers);
  std::vector<Group> random;
  auto at = peers.begin();
  for (const auto& g : proximity) {
    random.emplace_back().members.assign(at, at + static_cast<std::ptrdiff_t>(g.members.size()));
    at += static_cast<std::ptrdiff_t>(g.members.size());
  }
  const auto [near_hops, near_latency] = distance(proximity);
  const auto [far_hops, far_latency] = distance(random);
  EXPECT_LT(near_hops, 0.75 * far_hops) << near_hops << " vs " << far_hops << " hops";
  EXPECT_LT(near_latency, far_latency);
}

TEST(Groups, CoordinatorIsFastestMember) {
  std::vector<overlay::PeerRef> peers;
  peers.push_back(peer(0, Ipv4{10, 0, 0, 1}, 2e9));
  peers.push_back(peer(1, Ipv4{10, 0, 0, 2}, 3.4e9));
  peers.push_back(peer(2, Ipv4{10, 0, 0, 3}, 3e9));
  const auto groups = form_groups(peers);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].coordinator_ref().node, 1);
}

TEST(Groups, CoordinatorTieBreaksByLowestIp) {
  std::vector<overlay::PeerRef> peers;
  peers.push_back(peer(7, Ipv4{10, 0, 0, 9}, 3e9));
  peers.push_back(peer(3, Ipv4{10, 0, 0, 2}, 3e9));
  peers.push_back(peer(5, Ipv4{10, 0, 0, 5}, 3e9));
  const auto groups = form_groups(peers);
  EXPECT_EQ(groups[0].coordinator_ref().node, 3);
}

TEST(Groups, MembersSortedByIpWithinGroup) {
  Rng rng{11};
  std::vector<overlay::PeerRef> peers;
  for (int i = 0; i < 50; ++i)
    peers.push_back(peer(i, Ipv4{static_cast<std::uint32_t>(rng.next_u64())}));
  const auto groups = form_groups(peers, 8);
  Ipv4 prev{0u};
  for (const auto& g : groups)
    for (const auto& m : g.members) {
      EXPECT_GE(m.ip.bits(), prev.bits());
      prev = m.ip;
    }
}

}  // namespace
}  // namespace pdc::alloc
