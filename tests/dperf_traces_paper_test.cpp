// The dPerf front end at paper sizing (grid 1538, iters 428, rcheck 4): the
// `save_trace` digests of the two 4-rank keys a cold grid5000.scn (O3) and
// analytic.scn (O0) request derives, in the format of
// tests/golden/dperf_traces.quick.txt. A faster compiler or VM must leave
// every byte unchanged. Several seconds per key, so its ctest entry carries
// the `paper` label (`ctest -LE paper` skips it).
//
// Regenerate with:
//   PDC_UPDATE_GOLDEN=1 ./build/tests/dperf_traces_paper_test
#include <gtest/gtest.h>

#include "golden_file.hpp"
#include "scenario/runner.hpp"

namespace pdc {
namespace {

TEST(GoldenRecord, DperfTracesAtPaperSizingAreByteStable) {
  std::string text;
  for (const ir::OptLevel level : {ir::OptLevel::O3, ir::OptLevel::O0}) {
    scenario::RunSpec run;  // paper sizing
    ASSERT_EQ(run.grid_n, 1538);
    ASSERT_EQ(run.iters, 428);
    ASSERT_EQ(run.rcheck, 4);
    run.level = level;
    run.peers = 4;
    text += trace_digest_line(
        level, run.peers,
        scenario::Runner{{"golden", scenario::PlatformSpec::lan(), run}}.traces());
  }
  check_against_golden(text, "dperf_traces.paper.txt");
}

}  // namespace
}  // namespace pdc
