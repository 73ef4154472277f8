// Optimization level pipelines, mirroring the GCC levels the paper compiles
// the obstacle problem with ("the transformed source code is compiled, in
// turn, using GCC optimization levels 0, 1, 2, 3 and s", §III-D):
//
//   O0: naive lowering, every scalar access through memory;
//   O1: variable promotion (mem2reg), constant folding, copy propagation,
//       dead-code elimination;
//   O2: O1 + local CSE + strength reduction (inside the folder);
//   O3: O2 + loop-invariant code motion (LICM);
//   Os: the same passes as O3. The cost model has no code-size-vs-speed
//       trade-off, so the paper's `3` and `s` columns coincide.
#pragma once

#include <string>

#include "ir/ir.hpp"
#include "minic/ast.hpp"

namespace pdc::ir {

enum class OptLevel { O0, O1, O2, O3, Os };

const char* opt_level_name(OptLevel lvl);
/// Parses "0","1","2","3","s" (or "O0".."Os").
OptLevel parse_opt_level(const std::string& text);
/// All levels, in the paper's order {0, 1, 2, 3, s}.
const std::vector<OptLevel>& all_opt_levels();

/// Type checks, lowers and optimizes the program at the given level. The
/// input AST is not modified.
IrProgram compile(const minic::Program& program, OptLevel level);

/// Convenience: parse + compile from source text.
IrProgram compile_source(const std::string& source, OptLevel level);

}  // namespace pdc::ir
