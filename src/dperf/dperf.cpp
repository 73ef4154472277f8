#include "dperf/dperf.hpp"

#include <algorithm>
#include <stdexcept>

#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "minic/unparse.hpp"
#include "obs/trace.hpp"

namespace pdc::dperf {

Dperf::Dperf(const std::string& source, DperfOptions options) : options_(options) {
  minic::Program ast = minic::parse(source);
  minic::check(ast);
  InstrumentedProgram inst = instrument(ast);
  // Unparse the transformed AST to source text and parse it back: the
  // instrumented *source code* is the pipeline artifact, as in the paper.
  instrumented_source_ = minic::unparse(inst.program);
  inst_.program = minic::parse(instrumented_source_);
  minic::check(inst_.program);
  inst_.blocks = std::move(inst.blocks);
  inst_.iter_loops = inst.iter_loops;
  program_ = ir::compile(inst_.program, options_.level);
}

BlockTimings Dperf::benchmark(const Workload& workload, int rank, int nprocs) const {
  return benchmark_blocks(program_, inst_.blocks, workload, kRefHostHz, rank, nprocs);
}

Trace Dperf::trace_for_rank(const Workload& full, int rank, int nprocs) const {
  // Programs without marked communication loops (or without an iteration
  // parameter) have nothing to sample and scale: trace the full run.
  if (inst_.iter_loops == 0 || kItersParamIndex >= full.int_params.size())
    return generate_trace(program_, full, rank, nprocs, kRefHostHz);
  const int target = static_cast<int>(full.int_params[kItersParamIndex]);
  int sample = std::min(options_.sample_iters, target);
  // Keep the extrapolation preconditions: sample >= 3*chunk and
  // (target - sample) divisible by chunk.
  if (target <= 3 * options_.chunk || sample < 3 * options_.chunk)
    return generate_trace(program_, full, rank, nprocs, kRefHostHz);
  sample = 3 * options_.chunk + (target - 3 * options_.chunk) % options_.chunk;
  Workload sampled_workload = full;
  sampled_workload.int_params[kItersParamIndex] = sample;
  Trace sampled = generate_trace(program_, sampled_workload, rank, nprocs, kRefHostHz);
  return extrapolate(sampled, sample, target, options_.chunk);
}

std::vector<Trace> Dperf::traces(const Workload& full, int nprocs) const {
  std::vector<Trace> out;
  out.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) out.push_back(trace_for_rank(full, r, nprocs));
  return out;
}

Prediction replay_on(p2pdc::Environment& env, net::NodeIdx submitter_host,
                     p2pdc::TaskSpec spec, std::shared_ptr<const std::vector<Trace>> traces,
                     Time warmup) {
  spec.peers_needed = static_cast<int>(traces->size());

  auto main = [traces, &env](p2pdc::PeerContext& ctx) -> sim::Task<void> {
    const Trace& trace = (*traces)[static_cast<std::size_t>(ctx.rank())];
    const double host_hz = env.platform().node(ctx.host()).speed_hz;
    const double scale = trace.host_hz / host_hz;  // reference-cycles -> local seconds
    const Time started = ctx.now();
    for (const TraceEvent& e : trace.events) {
      switch (e.kind) {
        case TraceEvent::Kind::Compute:
          co_await ctx.compute(static_cast<double>(e.ns) * 1e-9 * scale);
          break;
        case TraceEvent::Kind::Send:
          co_await ctx.send(e.peer, e.tag, e.bytes);
          break;
        case TraceEvent::Kind::Recv:
          (void)co_await ctx.recv(e.peer, e.tag);
          break;
        case TraceEvent::Kind::Allreduce:
          (void)co_await ctx.allreduce_max(0.0);
          break;
        case TraceEvent::Kind::IterMark:
          break;  // markers carry no replay cost
      }
    }
    // Retroactive per-rank replay span: B at the recorded start, E at the
    // moment the trace ran dry.
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr) {
      const obs::TrackId t = tr->track("rank/" + std::to_string(ctx.rank()));
      tr->span_begin(t, "replay", started,
                     {{"rank", ctx.rank()},
                      {"events", static_cast<std::uint64_t>(trace.events.size())}});
      tr->span_end(t, ctx.now());
    }
    ctx.set_result({started, ctx.now()});
  };

  Prediction pred;
  pred.computation = env.run_computation(submitter_host, std::move(spec), main, warmup);
  if (pred.computation.ok) {
    double first_start = 1e300, last_end = 0;
    for (const std::vector<double>& values : pred.computation.results) {
      if (values.size() >= 2) {
        first_start = std::min(first_start, values[0]);
        last_end = std::max(last_end, values[1]);
      }
    }
    pred.solve_seconds = last_end > first_start ? last_end - first_start : 0;
    pred.total_seconds = pred.computation.total_time();
  }
  return pred;
}

}  // namespace pdc::dperf
