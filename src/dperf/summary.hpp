// What the analytic planner (dperf::plan_on) reads of a rank's trace beyond
// the events it walks: the allreduce count, which it checks across ranks,
// and the send destinations of the steady iteration body, which price the
// contended per-phase rates. The planner walks the trace itself, so a
// summary copies no event. Iteration bodies are not worth run-length
// encoding: each iteration's compute time is data-dependent, so at paper
// sizing none of the 4 x 428 bodies of grid5000.scn and analytic.scn
// equals its neighbour.
#pragma once

#include <cstdint>
#include <vector>

#include "dperf/trace.hpp"

namespace pdc::dperf {

struct TraceSummary {
  /// Allreduce count over the whole trace.
  std::uint64_t collectives = 0;
  /// Send destinations, in order, of the steady iteration body: the first
  /// of the longest runs of identical consecutive iteration bodies. A body
  /// spans the events after one iteration marker up to the next marker;
  /// the last body runs to the end of the trace (post-loop events
  /// included). Empty for a marker-free trace.
  std::vector<int> steady_sends;
};

/// One pass over the trace; never fails.
TraceSummary summarize_trace(const Trace& trace);

}  // namespace pdc::dperf
