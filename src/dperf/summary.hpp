// Compact per-iteration trace summaries: the input to the analytic planner
// (dperf::plan_on). A dPerf trace is collapsed once into its pre-loop events
// plus run-length-encoded iteration bodies — extrapolated traces, whose
// steady chunks are literal copies, compress to a handful of blocks — and
// its collective count, which the planner checks across ranks.
#pragma once

#include <cstdint>
#include <vector>

#include "dperf/trace.hpp"

namespace pdc::dperf {

/// One run of identical iteration bodies. `ops` holds the events of a single
/// iteration with the IterMark stripped (marker ids differ per iteration and
/// carry no cost, so dropping them is what makes bodies comparable).
struct IterBlock {
  std::vector<TraceEvent> ops;
  std::uint64_t repeats = 1;
};

struct TraceSummary {
  int rank = 0;
  int nprocs = 1;
  double host_hz = 3e9;

  /// Events before the first iteration marker (setup, first sends).
  std::vector<TraceEvent> pre;
  /// RLE-compressed iteration bodies. Iteration i spans [marker_i,
  /// marker_{i+1}); the final block additionally holds everything after the
  /// last marker (the closing iteration plus post-loop events).
  std::vector<IterBlock> blocks;
  /// Allreduce count over the whole trace.
  std::uint64_t collectives = 0;
};

/// One pass over the trace; never fails (a marker-free trace summarizes to
/// pre-only with no blocks).
TraceSummary summarize_trace(const Trace& trace);

}  // namespace pdc::dperf
