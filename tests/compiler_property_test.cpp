// Property test: every optimization level computes the same result as -O0
// on randomly generated MiniC programs. This is the compiler's main
// soundness net: folding, promotion, CSE and LICM must all be
// semantics-preserving.
#include <gtest/gtest.h>

#include <string>

#include "ir/pipeline.hpp"
#include "support/rng.hpp"
#include "vm/vm.hpp"

namespace pdc {
namespace {

/// Generates random but well-formed programs: int/double scalars, one
/// double array, nested counted loops, if/else, arithmetic with literal
/// divisors only (no division traps), all accumulated into a checksum.
class ProgramGen {
 public:
  explicit ProgramGen(Rng& rng) : rng_(rng) {}

  std::string generate() {
    body_.clear();
    depth_ = 1;
    int_vars_ = {"a", "b", "c"};
    writable_int_vars_ = {"a", "b", "c"};
    dbl_vars_ = {"x", "y"};
    line("int a = " + std::to_string(rng_.uniform_int(-5, 5)) + ";");
    line("int b = " + std::to_string(rng_.uniform_int(1, 7)) + ";");
    line("int c = " + std::to_string(rng_.uniform_int(-3, 9)) + ";");
    line("double x = " + std::to_string(rng_.uniform_int(-4, 4)) + ".5;");
    line("double y = 0.25;");
    line("double arr[16];");
    line("for (int q = 0; q < 16; q = q + 1) { arr[q] = 0.5 * q; }");
    const int stmts = static_cast<int>(rng_.uniform_int(4, 9));
    for (int i = 0; i < stmts; ++i) statement();
    // Checksum: mix everything into an int in a wrap-safe way. Guard
    // against NaN (x != x) and Inf (bounded halving loop).
    line("double chk = x + y + arr[3] + arr[11] + a + b + c;");
    line("if (chk != chk) { chk = 0.125; }");
    line("if (chk < 0.0) { chk = 0.0 - chk; }");
    line("int guard = 0;");
    line("while (chk > 500.0 && guard < 4000) { chk = chk / 2.0; guard = guard + 1; }");
    line("if (chk > 500.0) { chk = 0.25; }");
    line("int ichk = 0;");
    line("while (chk >= 1.0 && ichk < 2000) { chk = chk - 1.0; ichk = ichk + 1; }");
    line("return a % 97 + b % 89 + c % 83 + ichk;");
    std::string out = "int main() {\n";
    for (const auto& l : body_) out += "  " + l + "\n";
    out += "}\n";
    return out;
  }

 private:
  void line(std::string s) { body_.push_back(std::move(s)); }

  std::string pick(const std::vector<std::string>& v) {
    return v[static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(v.size()) - 1))];
  }

  std::string int_expr(int depth = 0) {
    const int choice = static_cast<int>(rng_.uniform_int(0, depth > 2 ? 1 : 5));
    switch (choice) {
      case 0: return std::to_string(rng_.uniform_int(-9, 9));
      case 1: return pick(int_vars_);
      case 2: return "(" + int_expr(depth + 1) + " + " + int_expr(depth + 1) + ")";
      case 3: return "(" + int_expr(depth + 1) + " * " + int_expr(depth + 1) + ")";
      case 4: return "(" + int_expr(depth + 1) + " - " + int_expr(depth + 1) + ")";
      default:
        // Division/modulo by non-zero literals only.
        return "(" + int_expr(depth + 1) + (rng_.bernoulli(0.5) ? " / " : " % ") +
               std::to_string(rng_.uniform_int(1, 9)) + ")";
    }
  }

  std::string dbl_expr(int depth = 0) {
    const int choice = static_cast<int>(rng_.uniform_int(0, depth > 2 ? 1 : 6));
    switch (choice) {
      case 0: return std::to_string(rng_.uniform_int(-9, 9)) + ".25";
      case 1: return pick(dbl_vars_);
      case 2: return "(" + dbl_expr(depth + 1) + " + " + dbl_expr(depth + 1) + ")";
      case 3: return "(" + dbl_expr(depth + 1) + " * " + dbl_expr(depth + 1) + ")";
      case 4: return "(" + dbl_expr(depth + 1) + " - " + dbl_expr(depth + 1) + ")";
      case 5: return "fabs(" + dbl_expr(depth + 1) + ")";
      default: return "arr[(" + int_expr(depth + 1) + " % 16 + 16) % 16]";
    }
  }

  std::string cond_expr() {
    const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
    std::string c = int_expr(1) + " " + ops[rng_.uniform_int(0, 5)] + " " + int_expr(1);
    if (rng_.bernoulli(0.3))
      c += rng_.bernoulli(0.5) ? " && " + cond_simple() : " || " + cond_simple();
    return c;
  }
  std::string cond_simple() {
    return int_expr(2) + (rng_.bernoulli(0.5) ? " < " : " != ") + int_expr(2);
  }

  void statement() {
    if (depth_ > 3) {
      assign();
      return;
    }
    switch (rng_.uniform_int(0, 5)) {
      case 0:
      case 1: assign(); break;
      case 2: {  // counted loop over a fresh induction variable
        const std::string iv = "i" + std::to_string(counter_++);
        const int trips = static_cast<int>(rng_.uniform_int(0, 9));
        line("for (int " + iv + " = 0; " + iv + " < " + std::to_string(trips) + "; " + iv +
             " = " + iv + " + 1) {");
        ++depth_;
        int_vars_.push_back(iv);
        assign();
        if (rng_.bernoulli(0.5)) assign();
        int_vars_.pop_back();
        --depth_;
        line("}");
        break;
      }
      case 3: {
        line("if (" + cond_expr() + ") {");
        ++depth_;
        assign();
        --depth_;
        if (rng_.bernoulli(0.5)) {
          line("} else {");
          ++depth_;
          assign();
          --depth_;
        }
        line("}");
        break;
      }
      case 4: {  // array store
        line("arr[(" + int_expr(1) + " % 16 + 16) % 16] = " + dbl_expr(1) + ";");
        break;
      }
      default: {  // bounded while
        const std::string wv = "w" + std::to_string(counter_++);
        line("int " + wv + " = " + std::to_string(rng_.uniform_int(0, 6)) + ";");
        line("while (" + wv + " > 0) {");
        ++depth_;
        int_vars_.push_back(wv);
        assign();
        line(wv + " = " + wv + " - 1;");
        int_vars_.pop_back();
        --depth_;
        line("}");
        break;
      }
    }
  }

  void assign() {
    if (rng_.bernoulli(0.5)) {
      const std::string v = pick(writable_int_vars_);
      // Keep magnitudes bounded so int results never overflow.
      line(v + " = (" + int_expr() + ") % 1000;");
    } else {
      const std::string v = pick(dbl_vars_);
      line(v + " = " + dbl_expr() + ";");
      line("if (fabs(" + v + ") > 100000.0) { " + v + " = 1.5; }");
    }
  }

  Rng& rng_;
  std::vector<std::string> body_;
  std::vector<std::string> int_vars_, dbl_vars_;
  // Only non-induction variables may be assignment targets, so generated
  // loops always terminate.
  std::vector<std::string> writable_int_vars_;
  int depth_ = 1;
  int counter_ = 0;
};

class OptEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptEquivalence, AllLevelsMatchO0) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 13};
  ProgramGen gen{rng};
  const std::string src = gen.generate();
  SCOPED_TRACE(src);

  long long reference = 0;
  {
    const ir::IrProgram prog = ir::compile_source(src, ir::OptLevel::O0);
    vm::Vm m{prog};
    m.set_cycle_limit(5e7);
    reference = m.run_main();
  }
  for (ir::OptLevel lvl :
       {ir::OptLevel::O1, ir::OptLevel::O2, ir::OptLevel::O3, ir::OptLevel::Os}) {
    const ir::IrProgram prog = ir::compile_source(src, lvl);
    vm::Vm m{prog};
    m.set_cycle_limit(5e7);
    EXPECT_EQ(m.run_main(), reference) << "level " << ir::opt_level_name(lvl);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, OptEquivalence, ::testing::Range(0, 60));

}  // namespace
}  // namespace pdc
