// Compiler + VM tests: lowering correctness, each optimization pass, the
// O0..O3/Os pipelines and the cycle/vPAPI accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ir/ast_opt.hpp"
#include "ir/pipeline.hpp"
#include "minic/parser.hpp"
#include "minic/token.hpp"
#include "vm/vm.hpp"

namespace pdc {
namespace {

using ir::OptLevel;

long long run_int(const std::string& src, OptLevel lvl = OptLevel::O0) {
  const ir::IrProgram prog = ir::compile_source(src, lvl);
  vm::Vm m{prog};
  return m.run_main();
}

double run_cycles(const std::string& src, OptLevel lvl) {
  const ir::IrProgram prog = ir::compile_source(src, lvl);
  vm::Vm m{prog};
  m.run_main();
  return m.cycles();
}

TEST(Vm, ArithmeticAndControlFlow) {
  EXPECT_EQ(run_int("int main() { return 2 + 3 * 4; }"), 14);
  EXPECT_EQ(run_int("int main() { return (2 + 3) * 4; }"), 20);
  EXPECT_EQ(run_int("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(run_int("int main() { return -7 / 2; }"), -3);
  EXPECT_EQ(run_int("int main() { if (3 < 4) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }"),
            45);
  EXPECT_EQ(run_int("int main() { int i = 0; while (i * i < 50) { i = i + 1; } return i; }"), 8);
}

TEST(Vm, DoubleMathAndBuiltins) {
  EXPECT_EQ(run_int("int main() { double d = sqrt(16.0); if (d == 4.0) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { double d = fmax(1.5, fmin(9.0, 2.5)); if (d == 2.5) { return 1; } return 0; }"), 1);
  EXPECT_EQ(run_int("int main() { double d = fabs(0.0 - 3.5); if (d == 3.5) { return 1; } return 0; }"), 1);
  // int -> double promotion.
  EXPECT_EQ(run_int("int main() { double d = 1; d = d / 2; if (d == 0.5) { return 1; } return 0; }"), 1);
}

TEST(Vm, ShortCircuitSemantics) {
  // The rhs would divide by zero; && must skip it.
  EXPECT_EQ(run_int("int main() { int z = 0; if (z != 0 && 10 / z > 0) { return 1; } return 2; }"), 2);
  EXPECT_EQ(run_int("int main() { int z = 0; if (z == 0 || 10 / z > 0) { return 3; } return 4; }"), 3);
}

TEST(Vm, ArraysAndFunctions) {
  const char* src = R"(
double sum(double a[], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
  return s;
}
int main() {
  double a[10];
  for (int i = 0; i < 10; i = i + 1) { a[i] = 1.0 * i; }
  if (sum(a, 10) == 45.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src), 1);
}

TEST(Vm, ArraysPassByReference) {
  const char* src = R"(
void fill(double a[], int n, double v) {
  for (int i = 0; i < n; i = i + 1) { a[i] = v; }
}
int main() {
  double a[4];
  fill(a, 4, 7.0);
  if (a[3] == 7.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src), 1);
}

TEST(Vm, Recursion) {
  const char* src = R"(
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { return fib(12); }
)";
  EXPECT_EQ(run_int(src), 144);
}

TEST(Vm, TrapsOnOutOfBounds) {
  EXPECT_THROW(run_int("int main() { double a[3]; a[3] = 1.0; return 0; }"), vm::TrapError);
  EXPECT_THROW(run_int("int main() { double a[3]; double x = a[0-1]; return 0; }"), vm::TrapError);
}

TEST(Vm, TrapsOnDivisionByZero) {
  EXPECT_THROW(run_int("int main() { int z = 0; return 1 / z; }"), vm::TrapError);
  EXPECT_THROW(run_int("int main() { int z = 0; return 1 % z; }"), vm::TrapError);
}

TEST(Vm, CycleLimitStopsRunaways) {
  const ir::IrProgram prog =
      ir::compile_source("int main() { int x = 1; while (x > 0) { x = x + 1; } return x; }",
                         OptLevel::O0);
  vm::Vm m{prog};
  m.set_cycle_limit(1e6);
  EXPECT_THROW(m.run_main(), vm::TrapError);
}

// Exercises every point where something can read cycles(): the comm hooks,
// the iteration marker, block timers, allocation, builtin and user calls.
const char* kObservedProgram = R"(
int twice(int x) { return x + x; }
int main() {
  int me = p2p_rank();
  int n = p2p_param(0);
  double a[n];
  double acc = 0.0;
  for (int it = 0; it < 3; it = it + 1) {
    dperf_iter_mark(0);
    dperf_block_begin(1);
    for (int i = 0; i < n; i = i + 1) { a[i] = a[i] + sqrt(1.0 * i) + twice(i); }
    dperf_block_end(1);
    p2p_send(me + 1, 1, a, 0, n);
    p2p_recv(me + 1, 2, a, 1, 2);
    acc = p2p_allreduce_max(acc + a[1]);
  }
  if (acc > 0.0) { return 1; }
  return 0;
}
)";

/// Records cycles() at every send, recv, allreduce and iteration mark.
struct CycleObserver : vm::CommHooks {
  long long param(int) override { return 7; }  // 7 doubles: a quarter-cycle alloc cost
  std::vector<double> seen;
  void send(int, int, vm::ArrayObj&, long long, long long) override {
    seen.push_back(vm_->cycles());
  }
  void recv(int, int, vm::ArrayObj&, long long, long long) override {
    seen.push_back(vm_->cycles());
  }
  double allreduce_max(double v) override {
    seen.push_back(vm_->cycles());
    return v;
  }
  void iter_mark(long long) override { seen.push_back(vm_->cycles()); }
};

// The cycle counts every observer sees, pinned to the values of the
// one-instruction-at-a-time interpreter: any faster dispatch must charge
// exactly what had been executed at each observation point.
TEST(Vm, CycleAccountingAtObservationPoints) {
  struct Expected {
    OptLevel level;
    std::vector<double> seen;
    double cycles;
    std::uint64_t instructions;
    double block_cycles;
  };
  const Expected cases[] = {
      {OptLevel::O0,
       {162.75, 1565.75, 1990.75, 2414.75, 2435.75, 3838.75, 4263.75, 4687.75, 4708.75,
        6111.75, 6536.75, 6960.75},
       6990.75, 727, 2808},
      {OptLevel::O3,
       {153.75, 1266.75, 1683.75, 2103.75, 2112.75, 3225.75, 3642.75, 4062.75, 4071.75,
        5184.75, 5601.75, 6021.75},
       6036.75, 399, 1968},
  };
  for (const Expected& want : cases) {
    SCOPED_TRACE(ir::opt_level_name(want.level));
    const ir::IrProgram prog = ir::compile_source(kObservedProgram, want.level);
    vm::Vm m{prog};
    CycleObserver obs;
    m.set_hooks(&obs);
    EXPECT_EQ(m.run_main(), 1);
    EXPECT_EQ(obs.seen, want.seen);
    EXPECT_EQ(m.cycles(), want.cycles);
    EXPECT_EQ(m.papi().instructions, want.instructions);
    EXPECT_EQ(m.papi().blocks.at(1).executions, 3u);
    EXPECT_EQ(m.papi().blocks.at(1).cycles, want.block_cycles);
  }
}

TEST(Vm, CycleLimitTrapsExactlyAboveTheTotal) {
  for (const OptLevel level : {OptLevel::O0, OptLevel::O3}) {
    SCOPED_TRACE(ir::opt_level_name(level));
    const ir::IrProgram prog = ir::compile_source(kObservedProgram, level);
    double total = 0;
    {
      vm::Vm m{prog};
      CycleObserver obs;
      m.set_hooks(&obs);
      m.run_main();
      total = m.cycles();
    }
    vm::Vm at_total{prog};
    CycleObserver obs;
    at_total.set_hooks(&obs);
    at_total.set_cycle_limit(total);
    EXPECT_EQ(at_total.run_main(), 1);
    EXPECT_EQ(at_total.cycles(), total);

    vm::Vm below{prog};
    below.set_hooks(&obs);
    below.set_cycle_limit(total - 0.25);
    EXPECT_THROW(below.run_main(), vm::TrapError);
  }
}

TEST(Vm, CommHooksReceiveCalls) {
  struct Recorder : vm::CommHooks {
    int rank() override { return 3; }
    int nprocs() override { return 8; }
    long long param(int i) override { return 10 + i; }
    std::vector<std::pair<int, long long>> sends;
    void send(int peer, int, vm::ArrayObj&, long long, long long n) override {
      sends.emplace_back(peer, n);
    }
    void recv(int, int, vm::ArrayObj& arr, long long off, long long n) override {
      for (long long k = 0; k < n; ++k) arr.data[static_cast<std::size_t>(off + k)].f = 9.0;
    }
  };
  const char* src = R"(
int main() {
  int me = p2p_rank();
  int np = p2p_nprocs();
  int n = p2p_param(0);
  double a[n];
  p2p_send(me + 1, 5, a, 0, n);
  p2p_recv(me - 1, 5, a, 2, 3);
  if (a[2] == 9.0 && a[4] == 9.0 && a[5] == 0.0) { return me * 100 + np + n; }
  return 0-1;
}
)";
  const ir::IrProgram prog = ir::compile_source(src, OptLevel::O2);
  vm::Vm m{prog};
  Recorder rec;
  m.set_hooks(&rec);
  EXPECT_EQ(m.run_main(), 3 * 100 + 8 + 10);
  ASSERT_EQ(rec.sends.size(), 1u);
  EXPECT_EQ(rec.sends[0], (std::pair<int, long long>{4, 10}));
}

TEST(Vm, BlockTimersAccumulate) {
  const char* src = R"(
int main() {
  int s = 0;
  for (int k = 0; k < 5; k = k + 1) {
    dperf_block_begin(7);
    for (int i = 0; i < 100; i = i + 1) { s = s + i; }
    dperf_block_end(7);
  }
  return s;
}
)";
  const ir::IrProgram prog = ir::compile_source(src, OptLevel::O0);
  vm::Vm m{prog};
  m.run_main();
  const auto& stat = m.papi().blocks.at(7);
  EXPECT_EQ(stat.executions, 5u);
  EXPECT_GT(stat.cycles, 5 * 100.0);  // at least one cycle per iteration
  EXPECT_GT(m.papi().mean_cycles(7), 100.0);
}

TEST(Vm, MismatchedBlockEndTraps) {
  EXPECT_THROW(run_int("int main() { dperf_block_end(3); return 0; }"), vm::TrapError);
}

// The VM charges each straight-line run pre-summed; that gives the same
// bits as charging one instruction at a time only because every default
// cost is a multiple of 0.25 (quarter-cycle sums are exact doubles).
TEST(CostModel, DefaultCostsAreQuarterCycles) {
  const vm::CostModel m = vm::CostModel::default_model();
  auto quarter = [](double c) { return c >= 0 && std::floor(c * 4) == c * 4; };
  for (int op = 0; op <= static_cast<int>(ir::Op::IterMark); ++op)
    EXPECT_TRUE(quarter(m.op_cost(static_cast<ir::Op>(op))))
        << ir::op_name(static_cast<ir::Op>(op));
  for (std::size_t b = 0; b < vm::kBuiltinCount; ++b)
    EXPECT_TRUE(quarter(m.builtin_cost(static_cast<vm::Builtin>(b)))) << "builtin " << b;
  EXPECT_TRUE(quarter(m.call_overhead));
  EXPECT_TRUE(quarter(m.per_arg_cost));
  EXPECT_TRUE(quarter(m.alloc_base));
  EXPECT_TRUE(quarter(m.alloc_per_elem));
}

TEST(Vm, CyclesScaleWithWork) {
  const double c1 = run_cycles(
      "int main() { int s = 0; for (int i = 0; i < 100; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O0);
  const double c2 = run_cycles(
      "int main() { int s = 0; for (int i = 0; i < 1000; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O0);
  EXPECT_GT(c2, 5 * c1);
  EXPECT_LT(c2, 15 * c1);
}

// --- optimization pipelines ---

const char* kKernel = R"(
int main() {
  int n = 40;
  double u[n * n];
  for (int i = 0; i < n * n; i = i + 1) { u[i] = 0.5; }
  double acc = 0.0;
  for (int i = 1; i < n - 1; i = i + 1) {
    for (int j = 1; j < n - 1; j = j + 1) {
      int idx = i * n + j;
      double v = 0.25 * (u[idx - 1] + u[idx + 1] + u[idx - n] + u[idx + n]);
      u[idx] = v * 1.0 + 0.0;
      acc = acc + v * 2.0;
    }
  }
  if (acc > 0.0) { return 1; }
  return 0;
}
)";

TEST(Pipeline, AllLevelsAgreeOnSemantics) {
  for (OptLevel lvl : ir::all_opt_levels()) EXPECT_EQ(run_int(kKernel, lvl), 1)
      << ir::opt_level_name(lvl);
}

TEST(Pipeline, HigherLevelsExecuteFewerCycles) {
  const double o0 = run_cycles(kKernel, OptLevel::O0);
  const double o1 = run_cycles(kKernel, OptLevel::O1);
  const double o2 = run_cycles(kKernel, OptLevel::O2);
  const double o3 = run_cycles(kKernel, OptLevel::O3);
  const double os = run_cycles(kKernel, OptLevel::Os);
  EXPECT_LT(o1, o0 * 0.8) << "promotion should cut memory traffic";
  EXPECT_LE(o2, o1) << "CSE should not regress";
  EXPECT_LT(o3, o2 * 1.001) << "unroll+LICM should not regress";
  EXPECT_LE(os, o2 * 1.001);
  // The overall O0/O3 spread matches the paper's Fig. 9 character (the O0
  // curve is roughly 3x the optimized ones).
  EXPECT_GT(o0 / o3, 1.8);
}

TEST(Pipeline, OsIsNotLargerThanO3Code) {
  const ir::IrProgram o3 = ir::compile_source(kKernel, OptLevel::O3);
  const ir::IrProgram os = ir::compile_source(kKernel, OptLevel::Os);
  EXPECT_LE(os.instr_count(), o3.instr_count());
}

TEST(Passes, ConstantFoldingFoldsLiterals) {
  const ir::IrProgram prog =
      ir::compile_source("int main() { return 2 + 3 * 4 - 1; }", OptLevel::O1);
  // After folding, main should contain no arithmetic at all.
  for (const auto& blk : prog.functions[0].blocks)
    for (const auto& in : blk.instrs) {
      EXPECT_NE(in.op, ir::Op::AddI);
      EXPECT_NE(in.op, ir::Op::MulI);
      EXPECT_NE(in.op, ir::Op::SubI);
    }
  EXPECT_EQ(run_int("int main() { return 2 + 3 * 4 - 1; }", OptLevel::O1), 13);
}

TEST(Passes, PromotionRemovesScalarMemoryTraffic) {
  const ir::IrProgram prog = ir::compile_source(
      "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } return s; }",
      OptLevel::O1);
  for (const auto& blk : prog.functions[0].blocks)
    for (const auto& in : blk.instrs) {
      EXPECT_NE(in.op, ir::Op::LoadVar);
      EXPECT_NE(in.op, ir::Op::StoreVar);
    }
}

TEST(Passes, CseDeduplicatesIndexArithmetic) {
  const char* src = R"(
int main() {
  int n = 10;
  double a[n * n];
  int i = 3; int j = 4;
  a[i * n + j] = 1.0;
  double x = a[i * n + j];
  if (x == 1.0) { return 1; }
  return 0;
}
)";
  EXPECT_EQ(run_int(src, OptLevel::O2), 1);
  const double o1 = run_cycles(src, OptLevel::O1);
  const double o2 = run_cycles(src, OptLevel::O2);
  EXPECT_LT(o2, o1);
}

TEST(Passes, LicmHoistsInvariantMultiplication) {
  const char* src = R"(
int main() {
  int n = 50;
  int s = 0;
  for (int i = 0; i < 200; i = i + 1) { s = s + n * n; }
  return s;
}
)";
  EXPECT_EQ(run_int(src, OptLevel::Os), 200 * 2500);
  const double o2 = run_cycles(src, OptLevel::O2);
  const double os = run_cycles(src, OptLevel::Os);
  EXPECT_LT(os, o2) << "n*n should be hoisted out of the loop";
}

TEST(Passes, LicmDoesNotHoistFirstIterationObservableDefs) {
  // x is read before being redefined inside the loop; hoisting x = a*b
  // would corrupt the first iteration.
  const char* src = R"(
int main() {
  int a = 6; int b = 7;
  int x = 1;
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    s = s + x;
    x = a * b;
  }
  return s;  // 1 + 42 + 42 = 85
}
)";
  for (OptLevel lvl : ir::all_opt_levels()) EXPECT_EQ(run_int(src, lvl), 85)
      << ir::opt_level_name(lvl);
}

TEST(Passes, UnrollPreservesTripCountsIncludingRemainder) {
  for (int n : {0, 1, 3, 4, 5, 7, 8, 9, 17}) {
    const std::string src =
        "int main() { int s = 0; for (int i = 0; i < " + std::to_string(n) +
        "; i = i + 1) { s = s + i; } return s; }";
    const long long want = static_cast<long long>(n) * (n - 1) / 2;
    EXPECT_EQ(run_int(src, OptLevel::O3), want) << "n=" << n;
  }
}

TEST(Passes, UnrollSkipsLoopsWithCalls) {
  minic::Program p = minic::parse(R"(
int f(int x) { return x + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) { s = f(s); }
  return s;
}
)");
  EXPECT_EQ(ir::unroll_loops(p, 4), 0);
}

TEST(Passes, UnrollTransformsEligibleLoops) {
  minic::Program p = minic::parse(
      "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } return s; }");
  EXPECT_EQ(ir::unroll_loops(p, 4), 1);
}

TEST(Pipeline, ParseOptLevelNames) {
  EXPECT_EQ(ir::parse_opt_level("0"), OptLevel::O0);
  EXPECT_EQ(ir::parse_opt_level("O3"), OptLevel::O3);
  EXPECT_EQ(ir::parse_opt_level("s"), OptLevel::Os);
  EXPECT_THROW(ir::parse_opt_level("fast"), std::invalid_argument);
}

}  // namespace
}  // namespace pdc
