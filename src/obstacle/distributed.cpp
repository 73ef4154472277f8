#include "obstacle/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "obstacle/minic_kernel.hpp"

namespace pdc::obstacle {

namespace {
constexpr int kTagToPrev = 1;  // matches the MiniC kernel's tags
constexpr int kTagToNext = 2;
}  // namespace

Strip strip_of(int n, int rank, int nprocs) {
  const int interior = n - 2;
  const int base = interior / nprocs;
  const int extra = interior % nprocs;
  Strip s;
  s.rows = base + (rank < extra ? 1 : 0);
  s.first_row = (rank < extra ? rank * (base + 1) : rank * base + extra) + 1;
  return s;
}

CostProfile derive_cost_profile(ir::OptLevel level, const ObstacleProblem& bench_problem,
                                int bench_iters, int bench_rcheck) {
  dperf::DperfOptions opt;
  opt.level = level;
  const dperf::Dperf pipeline{minic_kernel_source(), opt};
  const dperf::Workload workload =
      kernel_workload(bench_problem, bench_iters, bench_rcheck);
  const dperf::BlockTimings timings = pipeline.benchmark(workload);

  CostProfile profile;
  profile.ref_hz = dperf::kRefHostHz;
  const double init_points = static_cast<double>(bench_problem.n) * bench_problem.n;
  const double iter_points =
      static_cast<double>(bench_problem.n - 2) * (bench_problem.n - 2);
  profile.init_ns_per_point = timings.once_ns() / init_points;
  profile.iter_ns_per_point = timings.per_iteration_ns() / iter_points;
  return profile;
}

p2pdc::TaskSpec make_task_spec(const DistributedConfig& cfg, int peers) {
  p2pdc::TaskSpec spec;
  spec.name = "obstacle";
  spec.peers_needed = peers;
  spec.scheme = cfg.scheme;
  spec.allocation = cfg.allocation;
  spec.cmax = cfg.cmax;
  const Strip widest = strip_of(cfg.problem.n, 0, peers);
  // Subtask: initial strip of u plus the obstacle strip; result: the strip.
  spec.subtask_bytes = 2.0 * (widest.rows + 2) * cfg.problem.n * 8;
  spec.result_bytes = static_cast<double>(widest.rows) * cfg.problem.n * 8;
  return spec;
}

p2pdc::PeerMain make_peer_main(DistributedConfig cfg) {
  return [cfg](p2pdc::PeerContext& ctx) -> sim::Task<void> {
    const ObstacleProblem& p = cfg.problem;
    const int n = p.n;
    const int me = ctx.rank();
    const int np = ctx.nprocs();
    const Strip strip = strip_of(n, me, np);
    const int rows = strip.rows;
    const double time_scale = cfg.cost.ref_hz / ctx.host_speed_hz();
    const bool real = cfg.mode == ValueMode::Real;
    const bool sync = cfg.scheme == p2psap::Scheme::Synchronous;
    const double row_bytes = static_cast<double>(n) * 8;

    // Local strips with halo rows (allocated in Real mode only).
    std::vector<double> u, unew, lower;
    if (real) {
      const auto size = static_cast<std::size_t>((rows + 2) * n);
      u.assign(size, 0.0);
      unew.assign(size, 0.0);
      lower.assign(size, 0.0);
      for (int i = 0; i < rows + 2; ++i) {
        const int gi = strip.first_row - 1 + i;
        for (int j = 0; j < n; ++j) {
          const double psi = p.psi_at(gi, j);
          lower[static_cast<std::size_t>(i * n + j)] = psi;
          double s = std::max(psi, 0.0);
          if (gi == 0 || gi == n - 1 || j == 0 || j == n - 1) s = 0.0;
          u[static_cast<std::size_t>(i * n + j)] = s;
          unew[static_cast<std::size_t>(i * n + j)] = s;
        }
      }
    }

    const Time t_start = ctx.now();
    // One-off setup cost (initialization block of the kernel).
    co_await ctx.compute(cfg.cost.init_ns_per_point * (rows + 2) * n * 1e-9 * time_scale);

    auto row_values = [&](int local_row) {
      auto v = std::make_shared<std::vector<double>>();
      if (real)
        v->assign(u.begin() + static_cast<std::ptrdiff_t>(local_row * n),
                  u.begin() + static_cast<std::ptrdiff_t>((local_row + 1) * n));
      return v;
    };
    auto absorb_row = [&](const p2psap::Message& m, int local_row) {
      if (real && m.values && m.values->size() == static_cast<std::size_t>(n))
        std::copy(m.values->begin(), m.values->end(),
                  u.begin() + static_cast<std::ptrdiff_t>(local_row * n));
    };

    int it = 0;
    double reduced_residual = 0;
    for (; it < cfg.iters; ++it) {
      // Halo exchange in the kernel's order: previous neighbour first.
      if (me > 0) {
        co_await ctx.send(me - 1, kTagToPrev, row_bytes, row_values(1));
        if (sync) {
          absorb_row(co_await ctx.recv(me - 1, kTagToNext), 0);
        } else if (auto m = ctx.try_recv(me - 1, kTagToNext)) {
          absorb_row(*m, 0);
        }
      }
      if (me < np - 1) {
        co_await ctx.send(me + 1, kTagToNext, row_bytes, row_values(rows));
        if (sync) {
          absorb_row(co_await ctx.recv(me + 1, kTagToPrev), rows + 1);
        } else if (auto m = ctx.try_recv(me + 1, kTagToPrev)) {
          absorb_row(*m, rows + 1);
        }
      }

      // The sweep (update + copy + local residual): modelled time, plus the
      // real arithmetic in Real mode.
      co_await ctx.compute(cfg.cost.iter_ns_per_point * rows * (n - 2) * 1e-9 * time_scale);
      double local_res = 0;
      if (real) {
        local_res = projected_sweep(p, u, unew, n, 1, rows, strip.first_row, lower);
        for (int i = 1; i <= rows; ++i)
          for (int j = 1; j < n - 1; ++j)
            u[static_cast<std::size_t>(i * n + j)] = unew[static_cast<std::size_t>(i * n + j)];
      }

      if (it % cfg.rcheck == cfg.rcheck - 1) {
        reduced_residual = co_await ctx.allreduce_max(local_res);
        if (real && cfg.early_stop && reduced_residual < cfg.tol) {
          ++it;
          break;
        }
      }
    }
    const Time t_end = ctx.now();

    std::vector<double> result{t_start, t_end, static_cast<double>(it), reduced_residual,
                               static_cast<double>(rows),
                               static_cast<double>(strip.first_row)};
    if (real) {
      result.reserve(result.size() + static_cast<std::size_t>(rows * n));
      for (int i = 1; i <= rows; ++i)
        for (int j = 0; j < n; ++j)
          result.push_back(u[static_cast<std::size_t>(i * n + j)]);
    }
    ctx.set_result(std::move(result));
  };
}

SolveReport run_distributed(p2pdc::Environment& env, net::NodeIdx submitter_host,
                            const DistributedConfig& cfg, int peers, Time warmup) {
  SolveReport report;
  report.computation = env.run_computation(submitter_host, make_task_spec(cfg, peers),
                                           make_peer_main(cfg), warmup);
  if (!report.computation.ok) {
    report.failure = report.computation.failure;
    return report;
  }
  double first_start = 1e300, last_end = 0;
  const int n = cfg.problem.n;
  if (cfg.mode == ValueMode::Real) {
    report.solution.n = n;
    report.solution.values.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                                  0.0);
  }
  for (const std::vector<double>& values : report.computation.results) {
    if (values.size() < 6) continue;
    first_start = std::min(first_start, values[0]);
    last_end = std::max(last_end, values[1]);
    report.iterations = std::max(report.iterations, static_cast<int>(values[2]));
    report.residual = std::max(report.residual, values[3]);
    const int rows = static_cast<int>(values[4]);
    const int first_row = static_cast<int>(values[5]);
    if (cfg.mode == ValueMode::Real &&
        values.size() == 6 + static_cast<std::size_t>(rows * n)) {
      for (int i = 0; i < rows; ++i)
        for (int j = 0; j < n; ++j)
          report.solution.at(first_row + i, j) = values[6 + static_cast<std::size_t>(i * n + j)];
    }
  }
  report.solve_seconds = last_end > first_start ? last_end - first_start : 0;
  report.ok = true;
  return report;
}

}  // namespace pdc::obstacle
