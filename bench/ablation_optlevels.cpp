// Ablation A5: what each optimization-pipeline stage buys on the obstacle
// kernel -- static code size, executed instructions, executed cycles and the
// per-point sweep cost that drives the Fig. 9 level spread.
#include <cstdio>

#include "dperf/dperf.hpp"
#include "obstacle/minic_kernel.hpp"
#include "obstacle/problem.hpp"
#include "support/table.hpp"
#include "vm/vm.hpp"

int main() {
  using namespace pdc;
  obstacle::ObstacleProblem bench;
  bench.n = 66;
  const dperf::Workload workload = obstacle::kernel_workload(bench, 9, 3);

  std::printf("Ablation A5 -- optimization pipeline on the obstacle kernel (%dx%d, 9 iters)\n\n",
              bench.n, bench.n);
  TextTable table({"Level", "static instrs", "executed instrs", "cycles", "iter ns/pt",
                   "vs O0"});
  double o0_ns = 0;
  for (ir::OptLevel lvl : ir::all_opt_levels()) {
    dperf::DperfOptions opt;
    opt.level = lvl;
    const dperf::Dperf pipeline{obstacle::minic_kernel_source(), opt};
    const ir::IrProgram& prog = pipeline.program();

    vm::Vm m{prog};
    struct Hooks : vm::CommHooks {
      const dperf::Workload* w;
      long long param(int i) override { return w->int_params[static_cast<std::size_t>(i)]; }
      double param_f(int i) override { return w->float_params[static_cast<std::size_t>(i)]; }
    } hooks;
    hooks.w = &workload;
    m.set_hooks(&hooks);
    m.run_main();

    const dperf::BlockTimings t = pipeline.benchmark(workload);
    const double ns_pt = t.per_iteration_ns() / ((bench.n - 2.0) * (bench.n - 2.0));
    if (lvl == ir::OptLevel::O0) o0_ns = ns_pt;
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", o0_ns / ns_pt);
    table.add_row({ir::opt_level_name(lvl), std::to_string(prog.instr_count()),
                   std::to_string(m.papi().instructions),
                   TextTable::num(m.cycles(), 0), TextTable::num(ns_pt, 2), speedup});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
