// The unparser: turns an AST back into MiniC source text. dPerf uses it
// after instrumentation ("once all transformations at AST level are made,
// dPerf unparses the modified AST into a source code of the same
// programming language as the input one", paper §III-D). unparse(parse(s))
// is a fixpoint up to whitespace.
#pragma once

#include <string>

#include "minic/ast.hpp"

namespace pdc::minic {

std::string unparse(const Program& program);

}  // namespace pdc::minic
