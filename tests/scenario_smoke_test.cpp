// Every shipped scenario file runs clean at quick sizing (grid 258, iters
// 100): no record error, and every executed phase dispatched events with all
// of its closures on the engine's allocation-free inline path. The analytic
// phase plans without an engine, so only reference and predicted count; a
// record that measures the plan against the replay (`analytic_error`) must
// keep it within the analytic contract's 10% bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "golden_file.hpp"
#include "scenario/runner.hpp"
#include "support/json.hpp"

namespace pdc::scenario {
namespace {

namespace fs = std::filesystem;

TEST(ScenarioSmoke, EveryShippedScenarioRunsClean) {
  RunSpec base;
  base.grid_n = 258;
  base.iters = 100;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(PDC_TEST_DATA_DIR) / ".." / "examples" / "scenarios"))
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    // Checked on the record's JSON, read back through the support reader,
    // as `pdc_scenario` writes it.
    const std::string text = read_file(file).value_or("");
    const JsonValue doc = parse_json(Runner{parse_scenario(text, base)}.try_run().to_json());
    EXPECT_FALSE(doc.has("error")) << doc.at("error").as_string();
    int executed = 0;
    for (const char* phase : {"reference", "predicted"}) {
      if (!doc.has(phase)) continue;
      ++executed;
      const JsonValue& engine = doc.at(phase).at("engine");
      EXPECT_GT(engine.at("events_dispatched").as_double(), 0) << phase;
      EXPECT_EQ(engine.at("closures_heap").as_double(), 0) << phase;
    }
    EXPECT_GT(executed, 0) << "record has no executed phase";
    if (doc.has("analytic_error")) {
      EXPECT_LT(doc.at("analytic_error").as_double(), 0.10);
    }
  }
}

}  // namespace
}  // namespace pdc::scenario
