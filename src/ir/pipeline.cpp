#include "ir/pipeline.hpp"

#include <stdexcept>

#include "ir/lower.hpp"
#include "ir/passes.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"

namespace pdc::ir {

const char* opt_level_name(OptLevel lvl) {
  switch (lvl) {
    case OptLevel::O0: return "O0";
    case OptLevel::O1: return "O1";
    case OptLevel::O2: return "O2";
    case OptLevel::O3: return "O3";
    case OptLevel::Os: return "Os";
  }
  return "?";
}

OptLevel parse_opt_level(const std::string& text) {
  std::string t = text;
  if (t.size() == 2 && (t[0] == 'O' || t[0] == 'o')) t = t.substr(1);
  if (t == "0") return OptLevel::O0;
  if (t == "1") return OptLevel::O1;
  if (t == "2") return OptLevel::O2;
  if (t == "3") return OptLevel::O3;
  if (t == "s" || t == "S") return OptLevel::Os;
  throw std::invalid_argument("unknown optimization level '" + text + "'");
}

const std::vector<OptLevel>& all_opt_levels() {
  static const std::vector<OptLevel> kAll{OptLevel::O0, OptLevel::O1, OptLevel::O2,
                                          OptLevel::O3, OptLevel::Os};
  return kAll;
}

namespace {

void run_to_fixpoint(IrFunction& fn, bool with_cse) {
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    changed |= fold_constants(fn);
    changed |= propagate_copies(fn);
    if (with_cse) changed |= eliminate_common_subexpressions(fn);
    changed |= propagate_copies(fn);
    changed |= eliminate_dead_code(fn);
    if (!changed) break;
  }
}

}  // namespace

IrProgram compile(const minic::Program& program, OptLevel level) {
  minic::Program ast = program.clone();
  minic::check(ast);
  IrProgram ir = lower(ast);
  if (level == OptLevel::O0) return ir;

  for (IrFunction& fn : ir.functions) {
    promote_variables(fn);
    const bool with_cse = level != OptLevel::O1;
    run_to_fixpoint(fn, with_cse);
    if (level == OptLevel::O3 || level == OptLevel::Os) {
      hoist_loop_invariants(fn);
      run_to_fixpoint(fn, with_cse);
    }
  }
  return ir;
}

IrProgram compile_source(const std::string& source, OptLevel level) {
  return compile(minic::parse(source), level);
}

}  // namespace pdc::ir
