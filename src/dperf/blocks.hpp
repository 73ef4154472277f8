// dPerf automatic static analysis: block decomposition + instrumentation
// (paper §III-D, "the AST representation allows dPerf to analyze the most
// basic instruction blocks in search for communication calls ... this point
// in the analysis process is responsible for inserting calls to the PAPI
// library for obtaining accurate measurement of time duration").
//
// Decomposition rules:
//  * a *block* is a maximal run of consecutive statements containing no
//    communication call anywhere inside (whole comm-free loops stay inside
//    one block — their cost scales with trip counts, which is what the
//    paper's "benchmarking by block ... scaled-up" relies on);
//  * statements containing communication are descended into (loop bodies
//    and if-branches are decomposed recursively);
//  * every outermost communication-carrying loop gets a dperf_iter_mark()
//    at the top of its body, giving the trace generator the iteration
//    boundaries it needs for scale-up.
#pragma once

#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace pdc::dperf {

struct BlockInfo {
  int id = 0;
  std::string function;
  int first_line = 0;     // of the first statement in the block
  int comm_loop_depth = 0;  // 0: outside any comm loop -> executed O(1) times
};

struct InstrumentedProgram {
  minic::Program program;           // the transformed AST
  std::vector<BlockInfo> blocks;
  int iter_loops = 0;               // number of marked outer comm loops
};

/// Clones and instruments a program. The input must be semantically valid.
InstrumentedProgram instrument(const minic::Program& program);

/// True if any statement in the subtree performs communication.
bool contains_comm(const minic::Stmt& stmt);

}  // namespace pdc::dperf
