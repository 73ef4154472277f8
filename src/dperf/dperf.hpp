// The dPerf facade: the full prediction pipeline of the paper's Fig. 6.
//
//   source code -> automatic static analysis (block decomposition) ->
//   automatically instrumented code (unparsed to *source text* and
//   re-parsed, as ROSE does) -> execution of the instrumented code
//   (block benchmarking / trace recording in the VM, vPAPI timers) ->
//   traces for each process -> trace-based network simulation on a
//   platform description -> predicted time.
//
// A Dperf's optimization level is fixed, so its constructor also compiles
// the instrumented program once, at that level; block benchmarking and
// every rank's trace run that one IrProgram in a fresh VM.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dperf/blocks.hpp"
#include "dperf/trace.hpp"
#include "dperf/tracegen.hpp"
#include "ir/pipeline.hpp"
#include "p2pdc/environment.hpp"

namespace pdc::dperf {

/// Frequency of the measurement platform: block timings and trace compute
/// segments are in cycles of a host at this speed.
inline constexpr double kRefHostHz = 3e9;
/// The int workload parameter that is the outer trip count (the kernel's
/// `iters`).
inline constexpr std::size_t kItersParamIndex = 1;

struct DperfOptions {
  ir::OptLevel level = ir::OptLevel::O0;
  int sample_iters = 75;  // iterations actually executed when tracing
  int chunk = 25;         // steady-state replication unit (>= residual period)
};

class Dperf {
 public:
  /// Parses, checks and instruments `source`; the instrumented AST is
  /// unparsed to text and re-parsed (round trip through source code), then
  /// compiled at `options.level`. Throws minic::CompileError on invalid input.
  Dperf(const std::string& source, DperfOptions options);

  const DperfOptions& options() const { return options_; }
  const std::string& instrumented_source() const { return instrumented_source_; }
  const InstrumentedProgram& instrumented() const { return inst_; }
  /// The instrumented program compiled at options().level.
  const ir::IrProgram& program() const { return program_; }

  /// Block benchmarking at the configured optimization level.
  BlockTimings benchmark(const Workload& workload, int rank = 0, int nprocs = 1) const;

  /// Produces the trace of one rank for the full workload: the program runs
  /// with the iteration parameter reduced to sample_iters, then the trace is
  /// extrapolated back to the full count (dPerf's scale-up).
  Trace trace_for_rank(const Workload& full_workload, int rank, int nprocs) const;

  /// Traces for every rank.
  std::vector<Trace> traces(const Workload& full_workload, int nprocs) const;

 private:
  DperfOptions options_;
  InstrumentedProgram inst_;
  std::string instrumented_source_;
  ir::IrProgram program_;
};

/// Result of a trace-based replay on a P2PDC deployment.
struct Prediction {
  p2pdc::ComputationResult computation;
  /// Wall-clock span of the replayed execution proper (first rank start to
  /// last rank end), the quantity the paper's figures report.
  double solve_seconds = 0;
  /// Including P2PDC peers collection / task allocation / result gathering.
  double total_seconds = 0;
};

/// Replays one trace per rank through a P2PDC computation on `env`'s
/// platform: compute segments become simulated busy time (rescaled by the
/// target host frequency), communication events travel the modelled
/// network through P2PSAP channels. This is the "trace-based network
/// simulation" stage with P2PDC in the role of SimGrid's MSG. The ranks
/// read the shared trace set in place, so a memoized set replays uncopied.
Prediction replay_on(p2pdc::Environment& env, net::NodeIdx submitter_host,
                     p2pdc::TaskSpec spec, std::shared_ptr<const std::vector<Trace>> traces,
                     Time warmup = 12.0);

}  // namespace pdc::dperf
