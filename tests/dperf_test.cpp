// dPerf pipeline tests: block decomposition, instrumentation round trip,
// trace format, scale-up extrapolation and block benchmarking.
#include <gtest/gtest.h>

#include "dperf/dperf.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "minic/unparse.hpp"
#include "obstacle/minic_kernel.hpp"
#include "obstacle/problem.hpp"

namespace pdc::dperf {
namespace {

const char* kCommProgram = R"(
int main() {
  int n = p2p_param(0);
  int iters = p2p_param(1);
  double a[n];
  for (int i = 0; i < n; i = i + 1) { a[i] = 1.0 * i; }
  for (int it = 0; it < iters; it = it + 1) {
    p2p_send(1, 5, a, 0, n);
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
    p2p_recv(1, 6, a, 0, n);
  }
  return 0;
}
)";

TEST(Instrument, DetectsCommInStatements) {
  minic::Program p = minic::parse(kCommProgram);
  minic::check(p);
  const auto& body = p.functions[0].body;
  // decl n, decl iters, decl a, init loop (no comm), comm loop.
  EXPECT_FALSE(contains_comm(*body[3]));
  EXPECT_TRUE(contains_comm(*body[4]));
}

TEST(Instrument, WrapsCommFreeRunsAndMarksCommLoops) {
  minic::Program p = minic::parse(kCommProgram);
  minic::check(p);
  const InstrumentedProgram inst = instrument(p);
  ASSERT_GE(inst.blocks.size(), 2u);
  EXPECT_EQ(inst.iter_loops, 1);  // one outer comm loop marked
  // At least one block outside comm loops (the init section) and one inside
  // (the summation between send and recv).
  bool outside = false, inside = false;
  for (const auto& b : inst.blocks) {
    if (b.comm_loop_depth == 0) outside = true;
    if (b.comm_loop_depth > 0) inside = true;
  }
  EXPECT_TRUE(outside);
  EXPECT_TRUE(inside);
  // The instrumented program unparses and re-checks.
  const std::string src = minic::unparse(inst.program);
  EXPECT_NE(src.find("dperf_block_begin("), std::string::npos);
  EXPECT_NE(src.find("dperf_iter_mark("), std::string::npos);
  minic::Program round = minic::parse(src);
  EXPECT_NO_THROW(minic::check(round));
}

TEST(Instrument, CommFreeProgramIsOneBlockPerRun) {
  minic::Program p = minic::parse(
      "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) { s = s + i; } return s; }");
  minic::check(p);
  const InstrumentedProgram inst = instrument(p);
  // The whole body (before return) is comm-free: a single block, no loops
  // marked. The return statement is part of the block.
  EXPECT_EQ(inst.iter_loops, 0);
  ASSERT_EQ(inst.blocks.size(), 1u);
  EXPECT_EQ(inst.blocks[0].comm_loop_depth, 0);
}

TEST(TraceFormat, SaveLoadRoundTrip) {
  Trace t;
  t.rank = 2;
  t.nprocs = 8;
  t.host_hz = 3e9;
  TraceEvent c;
  c.kind = TraceEvent::Kind::Compute;
  c.ns = 123456789;
  t.events.push_back(c);
  TraceEvent s;
  s.kind = TraceEvent::Kind::Send;
  s.peer = 3;
  s.bytes = 8192;
  s.tag = 1;
  t.events.push_back(s);
  TraceEvent r;
  r.kind = TraceEvent::Kind::Recv;
  r.peer = 1;
  r.tag = 2;
  t.events.push_back(r);
  TraceEvent a;
  a.kind = TraceEvent::Kind::Allreduce;
  t.events.push_back(a);
  TraceEvent m;
  m.kind = TraceEvent::Kind::IterMark;
  m.iter_id = 0;
  t.events.push_back(m);

  const Trace back = load_trace(save_trace(t));
  EXPECT_EQ(back.rank, 2);
  EXPECT_EQ(back.nprocs, 8);
  EXPECT_DOUBLE_EQ(back.host_hz, 3e9);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) EXPECT_EQ(back.events[i], t.events[i]);
}

TEST(TraceFormat, RejectsMalformedInput) {
  EXPECT_THROW(load_trace("not a trace"), std::runtime_error);
  EXPECT_THROW(load_trace("dperf-trace v1\nproc x\nend\n"), std::runtime_error);
  EXPECT_THROW(load_trace("dperf-trace v1\nproc 0 of 2 hz 3e9\nfrobnicate\nend\n"),
               std::runtime_error);
  EXPECT_THROW(load_trace("dperf-trace v1\nproc 0 of 2 hz 3e9\ncompute 5\n"),
               std::runtime_error);  // missing end
}

Trace synthetic_trace(int iters, std::uint64_t ns_per_iter) {
  Trace t;
  for (int i = 0; i < iters; ++i) {
    TraceEvent m;
    m.kind = TraceEvent::Kind::IterMark;
    t.events.push_back(m);
    TraceEvent c;
    c.kind = TraceEvent::Kind::Compute;
    c.ns = ns_per_iter;
    t.events.push_back(c);
    TraceEvent s;
    s.kind = TraceEvent::Kind::Send;
    s.peer = 1;
    s.bytes = 64;
    t.events.push_back(s);
  }
  TraceEvent tail;
  tail.kind = TraceEvent::Kind::Compute;
  tail.ns = 7;
  t.events.push_back(tail);
  return t;
}

TEST(ScaleUp, ReplicatesSteadyChunk) {
  const Trace sampled = synthetic_trace(15, 100);  // 3 chunks of 5
  const Trace full = extrapolate(sampled, 15, 40, 5);
  EXPECT_EQ(full.count(TraceEvent::Kind::IterMark), 40u);
  EXPECT_EQ(full.count(TraceEvent::Kind::Send), 40u);
  EXPECT_EQ(full.total_compute_ns(), 40u * 100 + 7);
}

TEST(ScaleUp, IdentityWhenTargetEqualsSample) {
  const Trace sampled = synthetic_trace(15, 100);
  const Trace same = extrapolate(sampled, 15, 15, 5);
  EXPECT_EQ(same.events.size(), sampled.events.size());
}

TEST(ScaleUp, RejectsBadParameters) {
  const Trace sampled = synthetic_trace(10, 100);
  EXPECT_THROW(extrapolate(sampled, 10, 20, 5), std::runtime_error);   // sample < 3*chunk
  EXPECT_THROW(extrapolate(sampled, 10, 13, 2), std::runtime_error);   // not divisible
  EXPECT_THROW(extrapolate(sampled, 12, 20, 4), std::runtime_error);   // marker mismatch
}

TEST(Benchmark, KernelBlocksHaveMeaningfulTimings) {
  obstacle::ObstacleProblem p;
  p.n = 34;
  DperfOptions opt;
  opt.level = ir::OptLevel::O0;
  const Dperf pipeline{obstacle::minic_kernel_source(), opt};
  const Workload w = obstacle::kernel_workload(p, /*iters=*/6, /*rcheck=*/3);
  const BlockTimings timings = pipeline.benchmark(w);
  EXPECT_GT(timings.once_ns(), 0);
  EXPECT_GT(timings.per_iteration_ns(), 0);
  // The per-iteration sweep dominates the one-off init per execution.
  bool found_loop_block = false;
  for (const auto& e : timings.entries) {
    if (e.info.comm_loop_depth > 0 && e.executions >= 6) found_loop_block = true;
  }
  EXPECT_TRUE(found_loop_block);
}

TEST(Benchmark, OptimizationLevelsShrinkBlockTimes) {
  obstacle::ObstacleProblem p;
  p.n = 34;
  const Workload w = obstacle::kernel_workload(p, 6, 3);
  double per_iter_o0 = 0, per_iter_o3 = 0;
  {
    DperfOptions opt;
    opt.level = ir::OptLevel::O0;
    per_iter_o0 = Dperf{obstacle::minic_kernel_source(), opt}.benchmark(w).per_iteration_ns();
  }
  {
    DperfOptions opt;
    opt.level = ir::OptLevel::O3;
    per_iter_o3 = Dperf{obstacle::minic_kernel_source(), opt}.benchmark(w).per_iteration_ns();
  }
  EXPECT_GT(per_iter_o0, per_iter_o3 * 1.8) << "O0 should be ~3x slower than O3";
}

TEST(TraceGen, KernelTraceHasExpectedShape) {
  obstacle::ObstacleProblem p;
  p.n = 34;
  DperfOptions opt;
  opt.level = ir::OptLevel::O1;
  const Dperf pipeline{obstacle::minic_kernel_source(), opt};
  const Workload w = obstacle::kernel_workload(p, /*iters=*/12, /*rcheck=*/3);
  // Rank 0 of 3 talks only to rank 1: one send + one recv per iteration.
  const Trace t = generate_trace(pipeline.program(), w, 0, 3, 3e9);
  EXPECT_EQ(t.count(TraceEvent::Kind::IterMark), 12u);
  EXPECT_EQ(t.count(TraceEvent::Kind::Send), 12u);
  EXPECT_EQ(t.count(TraceEvent::Kind::Recv), 12u);
  EXPECT_EQ(t.count(TraceEvent::Kind::Allreduce), 4u);  // every 3rd iteration
  EXPECT_GT(t.total_compute_ns(), 0u);
  // A middle rank exchanges with both sides.
  const Trace mid = generate_trace(pipeline.program(), w, 1, 3, 3e9);
  EXPECT_EQ(mid.count(TraceEvent::Kind::Send), 24u);
  EXPECT_EQ(mid.count(TraceEvent::Kind::Recv), 24u);
  // Ghost rows are n doubles.
  for (const auto& e : mid.events)
    if (e.kind == TraceEvent::Kind::Send) {
      EXPECT_DOUBLE_EQ(e.bytes, 34 * 8.0);
    }
}

TEST(TraceGen, ScaledUpTraceMatchesFullRunClosely) {
  obstacle::ObstacleProblem p;
  p.n = 34;
  DperfOptions opt;
  opt.level = ir::OptLevel::O2;
  opt.chunk = 5;
  opt.sample_iters = 15;
  const Dperf pipeline{obstacle::minic_kernel_source(), opt};
  const Workload full = obstacle::kernel_workload(p, /*iters=*/60, /*rcheck=*/5);

  const Trace direct = generate_trace(pipeline.program(), full, 0, 2, 3e9);
  const Trace scaled = pipeline.trace_for_rank(full, 0, 2);
  // Identical communication structure...
  EXPECT_EQ(scaled.count(TraceEvent::Kind::Send), direct.count(TraceEvent::Kind::Send));
  EXPECT_EQ(scaled.count(TraceEvent::Kind::Recv), direct.count(TraceEvent::Kind::Recv));
  EXPECT_EQ(scaled.count(TraceEvent::Kind::Allreduce),
            direct.count(TraceEvent::Kind::Allreduce));
  EXPECT_EQ(scaled.count(TraceEvent::Kind::IterMark),
            direct.count(TraceEvent::Kind::IterMark));
  // ...and compute time within a few percent (the contact set evolves, so
  // per-iteration cycle counts drift slightly: that is the modelling error
  // dPerf's block benchmarking accepts).
  const double d = static_cast<double>(direct.total_compute_ns());
  const double s = static_cast<double>(scaled.total_compute_ns());
  EXPECT_NEAR(s / d, 1.0, 0.05);
}

TEST(Facade, InstrumentedSourceIsTheArtifact) {
  DperfOptions opt;
  const Dperf pipeline{kCommProgram, opt};
  // The stored program was parsed back from the unparsed text.
  EXPECT_FALSE(pipeline.instrumented_source().empty());
  EXPECT_NE(pipeline.instrumented_source().find("dperf_block_begin(0)"), std::string::npos);
  EXPECT_GE(pipeline.instrumented().blocks.size(), 2u);
}

}  // namespace
}  // namespace pdc::dperf
