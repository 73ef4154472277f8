// Obstacle problem: sequential solver correctness, strip partitioning, the
// distributed solver on P2PDC (Real == sequential, Phantom == Real timing),
// cost-profile derivation, and an end-to-end miniature of Fig. 10
// (prediction vs reference on the same platform).
#include <gtest/gtest.h>

#include <cmath>

#include "dperf/dperf.hpp"
#include "net/builders.hpp"
#include "obstacle/distributed.hpp"
#include "obstacle/minic_kernel.hpp"
#include "obstacle/problem.hpp"

namespace pdc::obstacle {
namespace {

TEST(Sequential, ConvergesToFeasibleSolution) {
  ObstacleProblem p;
  p.n = 34;
  const SequentialResult r = solve_sequential(p, 20000, 1e-8);
  EXPECT_LT(r.residual, 1e-8);
  EXPECT_LT(r.iterations, 20000);
  // Feasibility: u >= psi everywhere (up to rounding).
  EXPECT_LE(obstacle_violation(p, r.solution), 1e-12);
  // Boundary is zero.
  for (int j = 0; j < p.n; ++j) {
    EXPECT_EQ(r.solution.at(0, j), 0.0);
    EXPECT_EQ(r.solution.at(p.n - 1, j), 0.0);
    EXPECT_EQ(r.solution.at(j, 0), 0.0);
    EXPECT_EQ(r.solution.at(j, p.n - 1), 0.0);
  }
}

TEST(Sequential, ContactRegionExistsAndPdeHoldsOffContact) {
  ObstacleProblem p;
  p.n = 34;
  const SequentialResult r = solve_sequential(p, 20000, 1e-9);
  // The center is in contact with the obstacle (f pushes down onto it).
  const int mid = p.n / 2;
  EXPECT_NEAR(r.solution.at(mid, mid), p.psi_at(mid, mid), 1e-5);
  // Complementarity: off the contact set, -Δu = f approximately.
  EXPECT_LT(pde_residual_off_contact(p, r.solution, 1e-6), 0.5);
}

TEST(Strips, PartitionCoversInteriorExactly) {
  for (int n : {34, 66, 130}) {
    for (int np : {1, 2, 3, 5, 8, 32}) {
      int covered = 0;
      int expected_first = 1;
      for (int r = 0; r < np; ++r) {
        const Strip s = strip_of(n, r, np);
        EXPECT_EQ(s.first_row, expected_first);
        expected_first += s.rows;
        covered += s.rows;
        EXPECT_GE(s.rows, (n - 2) / np);
        EXPECT_LE(s.rows, (n - 2) / np + 1);
      }
      EXPECT_EQ(covered, n - 2);
    }
  }
}

TEST(CostProfile, DerivedFromBlockBenchmarksPerLevel) {
  ObstacleProblem bench;
  bench.n = 34;
  const CostProfile o0 = derive_cost_profile(ir::OptLevel::O0, bench);
  const CostProfile o3 = derive_cost_profile(ir::OptLevel::O3, bench);
  EXPECT_GT(o0.iter_ns_per_point, 0);
  EXPECT_GT(o0.init_ns_per_point, 0);
  // O0 per-point sweep cost ~3x the optimized one (paper Fig. 9 spread).
  EXPECT_GT(o0.iter_ns_per_point / o3.iter_ns_per_point, 1.8);
  EXPECT_LT(o0.iter_ns_per_point / o3.iter_ns_per_point, 6.0);
}

struct DeployedEnv {
  explicit DeployedEnv(int workers)
      : plat(net::build_star(net::bordeplage_cluster_spec(workers + 3))) {
    env = std::make_unique<p2pdc::Environment>(eng, plat);
    env->boot_server(plat.host(0));
    env->boot_tracker(plat.host(1), true);
    env->boot_peer(plat.host(2), overlay::PeerResources{3e9, 2e9, 80e9});  // submitter
    for (int i = 3; i < workers + 3; ++i)
      env->boot_peer(plat.host(i), overlay::PeerResources{3e9, 2e9, 80e9});
    env->finish_bootstrap();
  }
  sim::Engine eng;
  net::Platform plat;
  std::unique_ptr<p2pdc::Environment> env;
};

DistributedConfig small_config(ValueMode mode, int iters = 120) {
  DistributedConfig cfg;
  cfg.problem.n = 34;
  cfg.iters = iters;
  cfg.rcheck = 10;
  cfg.mode = mode;
  cfg.cost = CostProfile{};  // defaults are fine for timing-only tests
  return cfg;
}

TEST(Distributed, RealModeMatchesSequentialBitForBit) {
  // The synchronous strip solver performs exactly the sequential projected
  // Jacobi sweep, so after the same number of iterations the assembled
  // solution must be identical.
  DeployedEnv d{4};
  const DistributedConfig cfg = small_config(ValueMode::Real, 150);
  const SolveReport rep = run_distributed(*d.env, d.plat.host(2), cfg, 4);
  ASSERT_TRUE(rep.ok) << rep.failure;

  ObstacleProblem p = cfg.problem;
  Grid u = initial_guess(p);
  Grid next = u;
  std::vector<double> psi_cache(u.values.size());
  for (int i = 0; i < p.n; ++i)
    for (int j = 0; j < p.n; ++j)
      psi_cache[static_cast<std::size_t>(i * p.n + j)] = p.psi_at(i, j);
  for (int it = 0; it < cfg.iters; ++it) {
    projected_sweep(p, u.values, next.values, p.n, 1, p.n - 2, 1, psi_cache);
    std::swap(u.values, next.values);
  }
  for (int i = 1; i < p.n - 1; ++i)
    for (int j = 1; j < p.n - 1; ++j)
      ASSERT_EQ(rep.solution.at(i, j), u.at(i, j)) << "mismatch at " << i << "," << j;
}

TEST(Distributed, PhantomAndRealProduceIdenticalTimes) {
  // Timing must not depend on whether the numerics actually run.
  double t_real = 0, t_phantom = 0;
  {
    DeployedEnv d{4};
    const SolveReport rep =
        run_distributed(*d.env, d.plat.host(2), small_config(ValueMode::Real), 4);
    ASSERT_TRUE(rep.ok) << rep.failure;
    t_real = rep.solve_seconds;
  }
  {
    DeployedEnv d{4};
    const SolveReport rep =
        run_distributed(*d.env, d.plat.host(2), small_config(ValueMode::Phantom), 4);
    ASSERT_TRUE(rep.ok) << rep.failure;
    t_phantom = rep.solve_seconds;
  }
  EXPECT_NEAR(t_real, t_phantom, 1e-9);
}

TEST(Distributed, MorePeersRunFaster) {
  auto time_with = [&](int peers) {
    DeployedEnv d{8};
    DistributedConfig cfg = small_config(ValueMode::Phantom, 300);
    cfg.problem.n = 514;  // enough compute for scaling to beat latency
    const SolveReport rep = run_distributed(*d.env, d.plat.host(2), cfg, peers);
    EXPECT_TRUE(rep.ok) << rep.failure;
    return rep.solve_seconds;
  };
  const double t2 = time_with(2);
  const double t8 = time_with(8);
  EXPECT_LT(t8, t2);
  EXPECT_GT(t8, t2 / 8);  // communication keeps it off the ideal line
}

TEST(Distributed, AsynchronousSchemeConverges) {
  DeployedEnv d{4};
  DistributedConfig cfg = small_config(ValueMode::Real, 600);
  cfg.scheme = p2psap::Scheme::Asynchronous;
  const SolveReport rep = run_distributed(*d.env, d.plat.host(2), cfg, 4);
  ASSERT_TRUE(rep.ok) << rep.failure;
  // Async iterations still reach a feasible solution close to sequential.
  EXPECT_LE(obstacle_violation(cfg.problem, rep.solution), 1e-12);
  const SequentialResult seq = solve_sequential(cfg.problem, 20000, 1e-10);
  double worst = 0;
  for (int i = 1; i < cfg.problem.n - 1; ++i)
    for (int j = 1; j < cfg.problem.n - 1; ++j)
      worst = std::max(worst, std::fabs(rep.solution.at(i, j) - seq.solution.at(i, j)));
  EXPECT_LT(worst, 5e-3);
}

TEST(Distributed, EarlyStopHaltsAllRanksTogether) {
  DeployedEnv d{4};
  DistributedConfig cfg = small_config(ValueMode::Real, 20000);
  cfg.early_stop = true;
  cfg.tol = 1e-7;
  cfg.rcheck = 20;
  const SolveReport rep = run_distributed(*d.env, d.plat.host(2), cfg, 4);
  ASSERT_TRUE(rep.ok) << rep.failure;
  EXPECT_LT(rep.iterations, 20000);
  EXPECT_LT(rep.residual, 1e-7);
  EXPECT_EQ(rep.iterations % cfg.rcheck, 0);  // stops at a check boundary
}

// Miniature Fig. 10: dPerf's trace-based prediction vs the reference run on
// the identical platform must be close.
TEST(Prediction, MatchesReferenceOnSamePlatform) {
  const int peers = 4;
  ObstacleProblem p;
  p.n = 66;
  const int iters = 150;
  const int rcheck = 10;

  // Reference execution.
  double reference = 0;
  {
    DeployedEnv d{peers};
    DistributedConfig cfg;
    cfg.problem = p;
    cfg.iters = iters;
    cfg.rcheck = rcheck;
    cfg.mode = ValueMode::Phantom;
    ObstacleProblem bench = p;
    bench.n = 34;
    cfg.cost = derive_cost_profile(ir::OptLevel::O3, bench);
    const SolveReport rep = run_distributed(*d.env, d.plat.host(2), cfg, peers);
    ASSERT_TRUE(rep.ok) << rep.failure;
    reference = rep.solve_seconds;
  }

  // dPerf prediction: instrument -> sampled traces -> replay.
  double predicted = 0;
  {
    DeployedEnv d{peers};
    dperf::DperfOptions opt;
    opt.level = ir::OptLevel::O3;
    opt.chunk = rcheck;
    opt.sample_iters = 3 * rcheck;
    const dperf::Dperf pipeline{minic_kernel_source(), opt};
    auto traces = pipeline.traces(kernel_workload(p, iters, rcheck), peers);
    DistributedConfig cfg;
    cfg.problem = p;
    const dperf::Prediction pred = dperf::replay_on(
        *d.env, d.plat.host(2), make_task_spec(cfg, peers),
        std::make_shared<const std::vector<dperf::Trace>>(std::move(traces)));
    ASSERT_TRUE(pred.computation.ok) << pred.computation.failure;
    predicted = pred.solve_seconds;
  }

  EXPECT_GT(reference, 0);
  EXPECT_GT(predicted, 0);
  EXPECT_NEAR(predicted / reference, 1.0, 0.2)
      << "reference " << reference << "s vs predicted " << predicted << "s";
}

}  // namespace
}  // namespace pdc::obstacle
