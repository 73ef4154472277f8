// Gap-fill integration tests: flat-allocation results, WAN channel
// adaptation on the Daisy platform, dPerf pipeline on non-obstacle
// programs, and trace-file round trips through the full replay path.
#include <gtest/gtest.h>

#include "dperf/dperf.hpp"
#include "net/builders.hpp"
#include "obstacle/minic_kernel.hpp"
#include "p2pdc/environment.hpp"
#include "support/rng.hpp"

namespace pdc {
namespace {

TEST(IntegrationGaps, FlatAllocationDeliversAllResults) {
  sim::Engine eng;
  const net::Platform plat = net::build_star(net::bordeplage_cluster_spec(12));
  p2pdc::Environment env{eng, plat};
  env.boot_server(plat.host(0));
  env.boot_tracker(plat.host(1), true);
  for (int i = 2; i < 12; ++i)
    env.boot_peer(plat.host(i), overlay::PeerResources{3e9, 1e9, 1e9});
  env.finish_bootstrap();

  p2pdc::TaskSpec spec;
  spec.peers_needed = 8;
  spec.allocation = p2pdc::AllocationMode::Flat;
  spec.subtask_bytes = 4096;
  spec.result_bytes = 256;
  auto result = env.run_computation(plat.host(2), spec,
                                    [](p2pdc::PeerContext& ctx) -> sim::Task<void> {
                                      ctx.set_result({ctx.rank() + 0.5});
                                      co_return;
                                    });
  ASSERT_TRUE(result.ok) << result.failure;
  ASSERT_EQ(result.results.size(), 8u);
  for (int r = 0; r < 8; ++r) EXPECT_DOUBLE_EQ(result.results.at(r)[0], r + 0.5);
}

TEST(IntegrationGaps, DaisyPeersGetWanProfiles) {
  // Two xDSL peers on different petals communicate over the WAN profile;
  // same-DSLAM peers get the intra-zone profile.
  sim::Engine eng;
  net::DaisySpec spec;
  Rng rng{42};
  const net::Platform plat = net::build_daisy(spec, rng);
  net::FlowNet flownet{eng, plat};
  p2psap::Fabric fabric{eng, flownet, plat};
  auto& wan = fabric.channel(plat.host(0), plat.host(700), p2psap::Scheme::Synchronous);
  EXPECT_EQ(wan.config().profile, "SYNC/TCP-wan");
  auto& local = fabric.channel(plat.host(0), plat.host(3), p2psap::Scheme::Synchronous);
  EXPECT_EQ(local.config().profile, "SYNC/TCP-intrazone");
  auto& wan_async = fabric.channel(plat.host(0), plat.host(700), p2psap::Scheme::Asynchronous);
  EXPECT_EQ(wan_async.config().profile, "ASYNC/DCCP-wan");
}

TEST(IntegrationGaps, DperfHandlesProgramWithoutCommLoops) {
  // A pure-compute program: no iteration marks, trace = one compute event,
  // no scale-up path, replay still works.
  const char* src = R"(
int main() {
  int n = p2p_param(0);
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + i * 0.5; }
  if (s < 0.0) { return 1; }
  return 0;
}
)";
  dperf::DperfOptions opt;
  opt.level = ir::OptLevel::O2;
  const dperf::Dperf pipeline{src, opt};
  EXPECT_EQ(pipeline.instrumented().iter_loops, 0);
  dperf::Workload w;
  w.int_params = {5000};
  const auto traces = pipeline.traces(w, 2);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].count(dperf::TraceEvent::Kind::Send), 0u);
  EXPECT_GT(traces[0].total_compute_ns(), 0u);

  sim::Engine eng;
  const net::Platform plat = net::build_star(net::bordeplage_cluster_spec(5));
  p2pdc::Environment env{eng, plat};
  env.boot_server(plat.host(0));
  env.boot_tracker(plat.host(1), true);
  for (int i = 2; i < 5; ++i)
    env.boot_peer(plat.host(i), overlay::PeerResources{3e9, 1e9, 1e9});
  env.finish_bootstrap();
  const auto pred = dperf::replay_on(env, plat.host(2), p2pdc::TaskSpec{},
                                     std::make_shared<const std::vector<dperf::Trace>>(traces));
  ASSERT_TRUE(pred.computation.ok) << pred.computation.failure;
  EXPECT_GT(pred.solve_seconds, 0);
}

TEST(IntegrationGaps, TraceSurvivesSerializationThroughReplay) {
  // Save + load the kernel traces, replay the loaded copies: identical
  // prediction as replaying the originals.
  obstacle::ObstacleProblem p;
  p.n = 34;
  dperf::DperfOptions opt;
  opt.level = ir::OptLevel::O1;
  opt.chunk = 5;
  opt.sample_iters = 15;
  const dperf::Dperf pipeline{obstacle::minic_kernel_source(), opt};
  const auto traces = pipeline.traces(obstacle::kernel_workload(p, 60, 5), 3);

  std::vector<dperf::Trace> reloaded;
  for (const auto& t : traces) reloaded.push_back(dperf::load_trace(dperf::save_trace(t)));

  auto predict = [&](const std::vector<dperf::Trace>& ts) {
    sim::Engine eng;
    const net::Platform plat = net::build_star(net::bordeplage_cluster_spec(6));
    p2pdc::Environment env{eng, plat};
    env.boot_server(plat.host(0));
    env.boot_tracker(plat.host(1), true);
    for (int i = 2; i < 6; ++i)
      env.boot_peer(plat.host(i), overlay::PeerResources{3e9, 1e9, 1e9});
    env.finish_bootstrap();
    const auto pred = dperf::replay_on(env, plat.host(2), p2pdc::TaskSpec{},
                                     std::make_shared<const std::vector<dperf::Trace>>(ts));
    EXPECT_TRUE(pred.computation.ok) << pred.computation.failure;
    return pred.solve_seconds;
  };
  EXPECT_DOUBLE_EQ(predict(traces), predict(reloaded));
}

TEST(IntegrationGaps, ReplayOnFasterHostsScalesComputeDown) {
  // Traces measured at 3 GHz replayed on 6 GHz hosts: compute halves.
  const char* src = R"(
int main() {
  double s = 0.0;
  for (int i = 0; i < 200000; i = i + 1) { s = s + i * 0.5; }
  if (s < 0.0) { return 1; }
  return 0;
}
)";
  dperf::DperfOptions opt;
  const dperf::Dperf pipeline{src, opt};
  const auto traces = pipeline.traces(dperf::Workload{}, 1);

  auto predict_at = [&](double hz) {
    sim::Engine eng;
    net::StarSpec sp = net::bordeplage_cluster_spec(4);
    sp.host_speed_hz = hz;
    const net::Platform plat = net::build_star(sp);
    p2pdc::Environment env{eng, plat};
    env.boot_server(plat.host(0));
    env.boot_tracker(plat.host(1), true);
    env.boot_peer(plat.host(2), overlay::PeerResources{hz, 1e9, 1e9});
    env.boot_peer(plat.host(3), overlay::PeerResources{hz, 1e9, 1e9});
    env.finish_bootstrap();
    const auto pred = dperf::replay_on(env, plat.host(2), p2pdc::TaskSpec{},
                                     std::make_shared<const std::vector<dperf::Trace>>(traces));
    EXPECT_TRUE(pred.computation.ok) << pred.computation.failure;
    return pred.solve_seconds;
  };
  const double at3 = predict_at(3e9);
  const double at6 = predict_at(6e9);
  EXPECT_NEAR(at6 / at3, 0.5, 0.02);
}

}  // namespace
}  // namespace pdc
