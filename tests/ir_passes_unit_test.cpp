// Pass-level unit tests that inspect the IR directly (complementing the
// black-box equivalence suite): CFG analyses, individual pass effects,
// pipeline composition invariants.
#include <gtest/gtest.h>

#include "ir/cfg.hpp"
#include "ir/lower.hpp"
#include "ir/passes.hpp"
#include "ir/pipeline.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "vm/vm.hpp"

namespace pdc::ir {
namespace {

IrProgram lower_only(const std::string& src) {
  minic::Program p = minic::parse(src);
  minic::check(p);
  return lower(p);
}

int count_ops(const IrFunction& fn, Op op) {
  int n = 0;
  for (const auto& blk : fn.blocks)
    for (const auto& in : blk.instrs) n += in.op == op ? 1 : 0;
  return n;
}

TEST(Cfg, DominatorsOfDiamond) {
  // if/else creates a diamond: entry dominates all; join dominated only by
  // entry and itself.
  IrProgram prog = lower_only(
      "int main() { int x = 1; if (x > 0) { x = 2; } else { x = 3; } return x; }");
  IrFunction& fn = prog.functions[0];
  const Cfg cfg = analyze_cfg(fn);
  // Entry dominates everything.
  for (int b = 0; b < static_cast<int>(fn.blocks.size()); ++b)
    if (!cfg.preds[static_cast<std::size_t>(b)].empty() || b == 0) {
      EXPECT_TRUE(cfg.dominates(0, b)) << "entry must dominate block " << b;
    }
  // The then-block does not dominate the join.
  const auto succs = fn.successors(0);
  ASSERT_EQ(succs.size(), 2u);
  // Find the join: the common successor of both branches.
  const auto then_succs = fn.successors(succs[0]);
  ASSERT_FALSE(then_succs.empty());
  const int join = then_succs[0];
  EXPECT_FALSE(cfg.dominates(succs[0], join));
  EXPECT_FALSE(cfg.dominates(succs[1], join));
}

TEST(Cfg, NaturalLoopDiscovery) {
  IrProgram prog = lower_only(
      "int main() { int s = 0; for (int i = 0; i < 9; i = i + 1) { s = s + i; } return s; }");
  IrFunction& fn = prog.functions[0];
  const Cfg cfg = analyze_cfg(fn);
  const auto loops = find_loops(fn, cfg);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_GE(loops[0].blocks.size(), 2u);  // header + body at least
  EXPECT_TRUE(loops[0].has(loops[0].header));
}

TEST(Cfg, NestedLoopsFoundInnermostFirst) {
  IrProgram prog = lower_only(R"(
int main() {
  int s = 0;
  for (int i = 0; i < 4; i = i + 1) {
    for (int j = 0; j < 4; j = j + 1) { s = s + 1; }
  }
  return s;
}
)");
  IrFunction& fn = prog.functions[0];
  const auto loops = find_loops(fn, analyze_cfg(fn));
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_LT(loops[0].blocks.size(), loops[1].blocks.size());  // inner first
}

TEST(PassUnits, PromotionThenDceRemovesAllScalarSlots) {
  IrProgram prog = lower_only(
      "int main() { int a = 3; int b = 4; int c = a * b; return c; }");
  IrFunction& fn = prog.functions[0];
  EXPECT_GT(count_ops(fn, Op::LoadVar), 0);
  promote_variables(fn);
  EXPECT_EQ(count_ops(fn, Op::LoadVar), 0);
  EXPECT_EQ(count_ops(fn, Op::StoreVar), 0);
  // The extra Movs introduced by promotion disappear after cleanup.
  propagate_copies(fn);
  eliminate_dead_code(fn);
  fold_constants(fn);
  eliminate_dead_code(fn);
  vm::Vm m{prog};
  EXPECT_EQ(m.run_main(), 12);
}

TEST(PassUnits, FoldingIsIterative) {
  // (1+2)*(3+4) folds fully once copies propagate.
  IrProgram prog = lower_only("int main() { return (1 + 2) * (3 + 4); }");
  IrFunction& fn = prog.functions[0];
  promote_variables(fn);
  for (int i = 0; i < 4; ++i) {
    fold_constants(fn);
    propagate_copies(fn);
    eliminate_dead_code(fn);
  }
  EXPECT_EQ(count_ops(fn, Op::MulI), 0);
  EXPECT_EQ(count_ops(fn, Op::AddI), 0);
}

TEST(PassUnits, DivByZeroIsNeverFoldedAway) {
  // A trapping division must survive folding and DCE even if dead.
  IrProgram prog = lower_only("int main() { int z = 0; int d = 1 / z; return 7; }");
  IrFunction& fn = prog.functions[0];
  promote_variables(fn);
  for (int i = 0; i < 4; ++i) {
    fold_constants(fn);
    propagate_copies(fn);
    eliminate_dead_code(fn);
  }
  EXPECT_EQ(count_ops(fn, Op::DivI), 1) << "trapping op must not be removed";
  vm::Vm m{prog};
  EXPECT_THROW(m.run_main(), vm::TrapError);
}

TEST(PassUnits, CseRespectsArrayStores) {
  // a[0] read, a[0] written, a[0] read again: the second load must remain.
  IrProgram prog = lower_only(R"(
int main() {
  double a[4];
  a[0] = 1.0;
  double x = a[0];
  a[0] = 2.0;
  double y = a[0];
  if (x + y == 3.0) { return 1; }
  return 0;
}
)");
  IrFunction& fn = prog.functions[0];
  promote_variables(fn);
  eliminate_common_subexpressions(fn);
  EXPECT_GE(count_ops(fn, Op::LoadIdx), 2);
  vm::Vm m{prog};
  EXPECT_EQ(m.run_main(), 1);
}

TEST(PassUnits, LicmCreatesPreheader) {
  IrProgram prog = lower_only(R"(
int main() {
  int n = 100;
  int s = 0;
  for (int i = 0; i < 50; i = i + 1) { s = s + n * n; }
  return s;
}
)");
  IrFunction& fn = prog.functions[0];
  const auto blocks_before = fn.blocks.size();
  promote_variables(fn);
  propagate_copies(fn);
  eliminate_dead_code(fn);
  const bool hoisted = hoist_loop_invariants(fn);
  EXPECT_TRUE(hoisted);
  EXPECT_GT(fn.blocks.size(), blocks_before);  // preheader added
  vm::Vm m{prog};
  EXPECT_EQ(m.run_main(), 50 * 100 * 100);
}

TEST(PassUnits, PipelinesNeverGrowExecutedWork) {
  // For a batch of small programs, each level must execute no more *cycles*
  // than the previous one. (Instruction counts are not strictly monotone:
  // CSE may replace a 3-cycle multiply with a surviving 1-cycle Mov.)
  const char* programs[] = {
      "int main() { int s = 0; for (int i = 0; i < 20; i = i + 1) { s = s + i * 2; } return s; }",
      "int main() { double x = 1.5; for (int i = 0; i < 10; i = i + 1) { x = x * 1.0 + 0.0; } if (x == 1.5) { return 1; } return 0; }",
      "int main() { int n = 8; double a[n]; for (int i = 0; i < n; i = i + 1) { a[i] = i * 1.0; } double s = 0.0; for (int i = 0; i < n; i = i + 1) { s = s + a[i]; } if (s == 28.0) { return 1; } return 0; }",
  };
  for (const char* src : programs) {
    double prev = 1e300;
    double o0 = 0;
    for (OptLevel lvl : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      const IrProgram prog = compile_source(src, lvl);
      vm::Vm m{prog};
      m.run_main();
      if (lvl == OptLevel::O0) o0 = m.cycles();
      // Allow a few cycles of slack: on micro-loops CSE can trade a fold
      // opportunity for a surviving Mov, exactly like real compilers.
      EXPECT_LE(m.cycles(), prev * 1.02 + 4) << src << " at " << opt_level_name(lvl);
      prev = m.cycles();
    }
    EXPECT_LT(prev, o0 * 0.85) << src << ": O2 must clearly beat O0";
  }
}

TEST(PassUnits, InstrumentationMarkersSurviveOptimization) {
  // Block markers are side-effecting: no pass may drop or reorder them.
  const char* src = R"(
int main() {
  dperf_block_begin(3);
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) { s = s + i; }
  dperf_block_end(3);
  return s;
}
)";
  for (OptLevel lvl : all_opt_levels()) {
    const IrProgram prog = compile_source(src, lvl);
    vm::Vm m{prog};
    EXPECT_EQ(m.run_main(), 45);
    EXPECT_EQ(m.papi().blocks.at(3).executions, 1u) << opt_level_name(lvl);
    EXPECT_GT(m.papi().blocks.at(3).cycles, 0.0);
  }
}

}  // namespace
}  // namespace pdc::ir
