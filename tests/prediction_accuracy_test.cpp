// Accuracy gate for dPerf's replayed prediction: on every synchronous cell
// of the quick grid, the predicted solve time must stay within 2% of the
// reference simulation it stands in for. The asynchronous half of the grid
// is not gated yet: its replay waits on every traced receive, while the
// reference only polls its halo (ROADMAP item 1(b)).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>

#include "scenario/runner.hpp"

namespace pdc::scenario {
namespace {

TEST(PredictionAccuracy, SyncCellsOfTheQuickGridWithinTwoPercent) {
  // The stock wan preset has 16 hosts; hosts 0 sizes it to the peer count
  // like the two paper platforms.
  PlatformSpec wan = PlatformSpec::wan();
  std::get<net::WanSpec>(wan.spec).hosts = 0;
  const std::pair<const char*, PlatformSpec> platforms[] = {
      {"lan", PlatformSpec::lan()}, {"xdsl", PlatformSpec::xdsl()}, {"wan", wan}};
  for (const auto& [name, platform] : platforms)
    for (const int peers : {4, 32})
      for (const ir::OptLevel level : {ir::OptLevel::O0, ir::OptLevel::O3})
        for (const p2pdc::AllocationMode alloc :
             {p2pdc::AllocationMode::Hierarchical, p2pdc::AllocationMode::Flat}) {
          RunSpec run;
          run.grid_n = 258;
          run.iters = 100;
          run.peers = peers;
          run.level = level;
          run.allocation = alloc;
          run.scheme = p2psap::Scheme::Synchronous;
          run.mode = Mode::Both;
          const std::string cell =
              std::string(name) + " peers=" + std::to_string(peers) + " " +
              ir::opt_level_name(level) +
              (alloc == p2pdc::AllocationMode::Flat ? " flat" : " hierarchical");
          const RunRecord rec = Runner{{"accuracy", platform, run}}.run();
          ASSERT_TRUE(rec.ok()) << cell << ": " << rec.error;
          ASSERT_TRUE(rec.prediction_error.has_value()) << cell;
          EXPECT_LT(*rec.prediction_error, 0.02)
              << cell << ": reference " << rec.reference->solve_seconds
              << " s, predicted " << rec.predicted->solve_seconds << " s";
        }
}

}  // namespace
}  // namespace pdc::scenario
