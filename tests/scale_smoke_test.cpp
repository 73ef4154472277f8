// The 10^4-peer scale contract, end to end through Runner::try_run at quick
// sizing (pinned in the spec text): a 32-rank computation on a Barabási–
// Albert overlay must stay on the allocation-free engine path and resolve
// routes hierarchically (no all-pairs table), and a full-population
// (`ranks 0`) prediction must collapse its concurrent flows into far fewer
// max-min equivalence classes. The 1500 B/peer memory budget is the
// `bench_micro_scale_budget` ctest entry.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

JsonValue run_record(const char* text) {
  return parse_json(Runner{parse_scenario(text, RunSpec{})}.try_run().to_json());
}

TEST(ScaleSmoke, TenThousandPeerScaleFreeScenario) {
  const JsonValue doc = run_record(
      "scenario scale-smoke\nplatform scale_free routers=64\npeers 10000\nranks 32\n"
      "boot lazy\ntrackers 4\nopt 0\nmode both\nseed 42\ngrid 258\niters 100\n");
  ASSERT_FALSE(doc.has("error")) << doc.at("error").as_string();
  for (const char* phase : {"reference", "predicted"}) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(doc.at(phase).at("engine").at("closures_heap").as_double(), 0);
    const JsonValue& routes = doc.at(phase).at("routes");
    EXPECT_GT(routes.at("routes_computed").as_double(), 0);
    EXPECT_LE(routes.at("cache_entries").as_double(), 4096);
  }
}

TEST(ScaleSmoke, TenThousandPeerFullPopulationCollapsesIntoClasses) {
  const JsonValue doc = run_record(
      "scenario fullpop-smoke\nplatform scale_free routers=64\npeers 10000\nranks 0\n"
      "boot lazy\ntrackers 4\ngrid 258\niters 2\nopt 0\nmode predict\nseed 42\n");
  ASSERT_FALSE(doc.has("error")) << doc.at("error").as_string();
  const JsonValue& flownet = doc.at("predicted").at("flownet");
  const double flows = flownet.at("flows_started").as_double();
  EXPECT_GT(flows, 100000);
  EXPECT_LT(flownet.at("classes_active").as_double() * 20, flows);
}

}  // namespace
}  // namespace pdc::scenario
