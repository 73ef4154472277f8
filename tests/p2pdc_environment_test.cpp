// End-to-end tests of the P2PDC runtime: submit -> collect -> hierarchical
// allocation -> per-rank execution with P2PSAP -> result gathering.
#include "p2pdc/environment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "net/builders.hpp"
#include "scenario/runner.hpp"

namespace pdc::p2pdc {
namespace {

struct EnvFixture {
  explicit EnvFixture(int hosts) : plat(net::build_star(net::bordeplage_cluster_spec(hosts))) {
    env = std::make_unique<Environment>(eng, plat);
    env->boot_server(plat.host(0));
    env->boot_tracker(plat.host(1), true);
    // Host 2 is the submitter; hosts 3.. are workers.
    env->boot_peer(plat.host(2), overlay::PeerResources{3e9, 2e9, 80e9});
    for (int i = 3; i < hosts; ++i)
      env->boot_peer(plat.host(i), overlay::PeerResources{3e9, 2e9, 80e9});
    env->finish_bootstrap();
  }

  sim::Engine eng;
  net::Platform plat;
  std::unique_ptr<Environment> env;
};

TEST(Environment, RunsTrivialComputation) {
  EnvFixture f{8};
  TaskSpec spec;
  spec.peers_needed = 4;
  spec.subtask_bytes = 4096;
  spec.result_bytes = 512;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    co_await ctx.compute(0.5);
    ctx.set_result({static_cast<double>(ctx.rank()) * 10.0});
  });
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_EQ(result.peers, 4);
  EXPECT_EQ(result.groups, 1);
  ASSERT_EQ(result.results.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(result.results.at(r).size(), 1u);
    EXPECT_DOUBLE_EQ(result.results.at(r)[0], r * 10.0);
  }
  // Phases are ordered and non-negative.
  EXPECT_GE(result.collection_time(), 0.0);
  EXPECT_GE(result.allocation_time(), 0.0);
  EXPECT_GT(result.total_time(), 0.5);  // at least the modelled compute
}

TEST(Environment, FailsCleanlyWhenPeersInsufficient) {
  EnvFixture f{6};  // only 3 workers available
  TaskSpec spec;
  spec.peers_needed = 16;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext&) -> sim::Task<void> {
    ADD_FAILURE() << "must not run";
    co_return;
  });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("not enough peers"), std::string::npos);
  // Reserved peers were released again.
  f.eng.run_until(f.eng.now() + 10.0);
  for (overlay::PeerActor* p : f.env->over().peers()) EXPECT_FALSE(p->busy());
}

TEST(Environment, MultipleGroupsWithSmallCmax) {
  EnvFixture f{14};
  TaskSpec spec;
  spec.peers_needed = 10;
  spec.cmax = 4;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    ctx.set_result({1.0});
    co_return;
  });
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_GE(result.groups, 3);  // at least ceil(10/4); proximity splits may add more
  EXPECT_LE(result.groups, 5);
  EXPECT_EQ(result.results.size(), 10u);
}

TEST(Environment, RanksExchangeMessages) {
  EnvFixture f{8};
  TaskSpec spec;
  spec.peers_needed = 4;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    // Ring: send my rank right, receive from left, report what I saw.
    const int n = ctx.nprocs();
    const int right = (ctx.rank() + 1) % n;
    const int left = (ctx.rank() + n - 1) % n;
    co_await ctx.send(right, 42, 1024,
                      std::make_shared<std::vector<double>>(1, static_cast<double>(ctx.rank())));
    const auto msg = co_await ctx.recv(left, 42);
    ctx.set_result({(*msg.values)[0]});
  });
  ASSERT_TRUE(result.ok) << result.failure;
  for (int r = 0; r < 4; ++r)
    EXPECT_DOUBLE_EQ(result.results.at(r)[0], static_cast<double>((r + 3) % 4));
}

TEST(Environment, AllreduceMaxIsGlobalAcrossGroups) {
  EnvFixture f{14};
  TaskSpec spec;
  spec.peers_needed = 9;
  spec.cmax = 3;  // 3 groups -> exercises the two-level reduction
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    const double local = ctx.rank() == 5 ? 99.5 : static_cast<double>(ctx.rank());
    const double global = co_await ctx.allreduce_max(local);
    ctx.set_result({global});
  });
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_GE(result.groups, 3);  // multi-group: exercises the two-level tree
  for (int r = 0; r < 9; ++r) EXPECT_DOUBLE_EQ(result.results.at(r)[0], 99.5);
}

TEST(Environment, RepeatedAllreducesStayConsistent) {
  EnvFixture f{10};
  TaskSpec spec;
  spec.peers_needed = 6;
  spec.cmax = 3;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    std::vector<double> seen;
    for (int k = 0; k < 5; ++k) {
      const double g = co_await ctx.allreduce_max(static_cast<double>(ctx.rank() + 10 * k));
      seen.push_back(g);
    }
    ctx.set_result(std::move(seen));
  });
  ASSERT_TRUE(result.ok) << result.failure;
  for (int r = 0; r < 6; ++r)
    for (int k = 0; k < 5; ++k)
      EXPECT_DOUBLE_EQ(result.results.at(r)[static_cast<std::size_t>(k)], 5.0 + 10 * k);
}

TEST(Environment, AsynchronousSchemeDeliversLatestValue) {
  EnvFixture f{8};
  TaskSpec spec;
  spec.peers_needed = 2;
  spec.scheme = p2psap::Scheme::Asynchronous;
  auto result = f.env->run_computation(f.plat.host(2), spec, [](PeerContext& ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) {
      // Burst of updates; only the last should be visible once settled.
      for (int i = 1; i <= 5; ++i)
        co_await ctx.send(1, 7, 256, std::make_shared<std::vector<double>>(1, i * 1.0));
      co_await ctx.compute(1.0);
    } else {
      co_await ctx.compute(1.0);  // let the burst land
      const auto m = ctx.try_recv(0, 7);
      ctx.set_result({m && m->values ? (*m->values)[0] : -1.0});
    }
  });
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_DOUBLE_EQ(result.results.at(1)[0], 5.0);
}

TEST(Environment, FlatAllocationSlowerThanHierarchicalForManyPeers) {
  // The paper's §III-C argument: succession of connections at the submitter
  // vs parallel distribution through coordinators.
  auto run = [&](AllocationMode mode) {
    EnvFixture f{40};
    TaskSpec spec;
    spec.peers_needed = 32;
    spec.cmax = 8;
    spec.allocation = mode;
    // Small subtasks: the cost is dominated by the succession of
    // per-peer connection round trips, which coordinators parallelize.
    spec.subtask_bytes = 64e3;
    spec.result_bytes = 1024;
    auto result = f.env->run_computation(f.plat.host(2), spec,
                                         [](PeerContext& ctx) -> sim::Task<void> {
                                           co_await ctx.compute(0.01);
                                         });
    EXPECT_TRUE(result.ok) << result.failure;
    return result.allocation_time();
  };
  const Time hier = run(AllocationMode::Hierarchical);
  const Time flat = run(AllocationMode::Flat);
  EXPECT_LT(hier, flat) << "hierarchical allocation should be faster";

  // The same on the Grid5000 deployment with 64 KiB results to gather. Flat
  // allocation doubles with the peer count (13.4 / 27.1 / 54.6 ms at 8 / 16 /
  // 32 peers) while hierarchical grows slower (8.9 / 13.0 / 21.2 ms), so the
  // gap widens. The gathering bottleneck makes flat lose the total time too
  // from 16 peers on (36.7 vs 39.3 ms, then 62.8 vs 76.4 ms); at 8 peers
  // flat still wins it (20.7 vs 23.6 ms).
  auto deployed = [](int peers, AllocationMode mode) {
    scenario::RunSpec run;
    run.peers = peers;
    auto d = scenario::deploy(scenario::PlatformSpec::grid5000(), run);
    TaskSpec spec;
    spec.peers_needed = peers;
    spec.cmax = 8;
    spec.allocation = mode;
    spec.subtask_bytes = 64e3;
    spec.result_bytes = 64e3;
    auto result = d->env->run_computation(d->submitter, spec,
                                          [](PeerContext& ctx) -> sim::Task<void> {
                                            co_await ctx.compute(0.001);
                                          });
    EXPECT_TRUE(result.ok) << result.failure;
    return result;
  };
  double prev_ratio = 1.0;
  for (int peers : {8, 16, 32}) {
    SCOPED_TRACE(peers);
    const ComputationResult h = deployed(peers, AllocationMode::Hierarchical);
    const ComputationResult f = deployed(peers, AllocationMode::Flat);
    const double ratio = f.allocation_time() / h.allocation_time();
    EXPECT_GT(ratio, prev_ratio) << "the flat/hierarchical allocation gap should widen";
    prev_ratio = ratio;
    if (peers >= 16) {
      EXPECT_LT(h.total_time(), f.total_time()) << "hierarchy should win the total time";
    }
  }
}

TEST(Environment, PeersReleasedAfterComputation) {
  EnvFixture f{8};
  TaskSpec spec;
  spec.peers_needed = 4;
  auto result = f.env->run_computation(f.plat.host(2), spec,
                                       [](PeerContext& ctx) -> sim::Task<void> {
                                         co_await ctx.compute(0.1);
                                       });
  ASSERT_TRUE(result.ok);
  f.eng.run_until(f.eng.now() + 10.0);
  for (overlay::PeerActor* p : f.env->over().peers()) EXPECT_FALSE(p->busy());
}

TEST(Environment, BackToBackComputationsReusePeers) {
  EnvFixture f{8};
  TaskSpec spec;
  spec.peers_needed = 4;
  auto main = [](PeerContext& ctx) -> sim::Task<void> {
    co_await ctx.compute(0.1);
    ctx.set_result({1.0});
  };
  auto r1 = f.env->run_computation(f.plat.host(2), spec, main);
  ASSERT_TRUE(r1.ok) << r1.failure;
  auto r2 = f.env->run_computation(f.plat.host(2), spec, main, /*warmup=*/10.0);
  ASSERT_TRUE(r2.ok) << r2.failure;
  EXPECT_EQ(r2.results.size(), 4u);
}

TEST(Environment, SubtaskBytesShapeAllocationTime) {
  auto run = [&](double subtask_bytes) {
    EnvFixture f{10};
    TaskSpec spec;
    spec.peers_needed = 6;
    spec.subtask_bytes = subtask_bytes;
    auto result = f.env->run_computation(f.plat.host(2), spec,
                                         [](PeerContext& ctx) -> sim::Task<void> {
                                           co_await ctx.compute(0.01);
                                         });
    EXPECT_TRUE(result.ok) << result.failure;
    return result.allocation_time();
  };
  EXPECT_LT(run(1024), run(50e6));
}

}  // namespace
}  // namespace pdc::p2pdc
