// Distributed campaign fabric: shard selection must partition the run
// matrix (disjoint, exhaustive, order-preserving for every 0/n..n-1/n), and
// merging shard output directories must reproduce — byte for byte — the
// canonical report of a single-process -j1 execution. This is the contract
// that makes `--shard i/n` + `--merge` a drop-in replacement for one big
// run.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/spec.hpp"
#include "expect_json_equal.hpp"

namespace pdc::campaign {
namespace {

namespace fs = std::filesystem;

/// Fast multi-axis grid (2 peers x 2 seeds x 2 reps = 8 runs, ~10 ms each).
CampaignSpec sweep_campaign() {
  CampaignSpec spec;
  spec.name = "shardsweep";
  spec.base.name = "shardsweep";
  spec.base.platform = scenario::PlatformSpec::lan();
  spec.base.run.mode = scenario::Mode::Reference;
  spec.base.run.grid_n = 34;
  spec.base.run.iters = 6;
  spec.base.run.bench_n = 18;
  spec.base.run.bench_iters = 3;
  spec.base.run.bench_rcheck = 2;
  spec.peers = {2, 3};
  spec.seeds = {1, 2};
  spec.repetitions = 2;
  return spec;
}

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const char* name) : path(fs::path("shard_test_out") / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

TEST(ShardRuns, EveryPartitionIsDisjointExhaustiveAndOrdered) {
  const std::vector<CampaignRun> all = expand(sweep_campaign());
  ASSERT_EQ(all.size(), 8u);
  for (int n = 1; n <= static_cast<int>(all.size()) + 1; ++n) {
    std::set<std::string> seen;
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) {
      const std::vector<CampaignRun> shard = shard_runs(all, i, n);
      std::size_t prev_index = 0;
      bool first = true;
      for (const CampaignRun& run : shard) {
        // Disjoint: no key may appear in two shards.
        EXPECT_TRUE(seen.insert(run.key).second) << run.key << " in two shards";
        // Shards keep the original expansion index (resume/merge depend on
        // it) in increasing order.
        EXPECT_EQ(run.index % static_cast<std::size_t>(n),
                  static_cast<std::size_t>(i));
        if (!first) {
          EXPECT_GT(run.index, prev_index);
        }
        prev_index = run.index;
        first = false;
      }
      total += shard.size();
      // Round-robin balance: shard sizes differ by at most one.
      EXPECT_GE(shard.size(), all.size() / static_cast<std::size_t>(n));
      EXPECT_LE(shard.size(), all.size() / static_cast<std::size_t>(n) + 1);
    }
    // Exhaustive: the shards cover the whole matrix.
    EXPECT_EQ(total, all.size()) << "n=" << n;
    EXPECT_EQ(seen.size(), all.size()) << "n=" << n;
  }
}

TEST(ShardRuns, RejectsBadShardArguments) {
  const std::vector<CampaignRun> all = expand(sweep_campaign());
  EXPECT_THROW(shard_runs(all, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_runs(all, -1, 2), std::invalid_argument);
  EXPECT_THROW(shard_runs(all, 2, 2), std::invalid_argument);
}

TEST(ShardMerge, TwoShardsMergeByteIdenticalToSingleProcess) {
  const CampaignSpec spec = sweep_campaign();

  // Ground truth: one sequential process.
  ScratchDir single{"single"};
  ExecutorOptions so;
  so.jobs = 1;
  so.out_dir = single.path.string();
  Executor sx{spec, so};
  const CampaignReport sr = sx.execute();
  ASSERT_EQ(sr.errors, 0u);

  // Two shard "processes" writing separate directories.
  ScratchDir s0{"s0"}, s1{"s1"};
  for (int i = 0; i < 2; ++i) {
    ExecutorOptions o;
    o.out_dir = (i == 0 ? s0 : s1).path.string();
    o.shard_index = i;
    o.shard_count = 2;
    Executor ex{spec, o};
    const CampaignReport r = ex.execute();
    EXPECT_EQ(r.total, 4u);
    EXPECT_EQ(r.errors, 0u);
    // Sharded sessions write a shard-suffixed partial report, never
    // report.json (concurrent shards may share a directory).
    EXPECT_TRUE(fs::exists((i == 0 ? s0 : s1).path /
                           ("report-shard" + std::to_string(i) + "of2.json")));
    EXPECT_FALSE(fs::exists((i == 0 ? s0 : s1).path / "report.json"));
  }

  // Merge the two shard directories.
  ScratchDir merged{"merged"};
  ExecutorOptions mo;
  mo.out_dir = merged.path.string();
  Executor mx{spec, mo};
  const CampaignReport mr = mx.merge({s0.path.string(), s1.path.string()});
  EXPECT_EQ(mr.total, 8u);
  EXPECT_EQ(mr.errors, 0u);

  // The canonical JSON must be byte-identical to the single process's, and
  // the CSV (no session fields) identical outright.
  EXPECT_EQ(mr.to_json(/*canonical=*/true), sr.to_json(/*canonical=*/true));
  EXPECT_EQ(mr.to_csv(), sr.to_csv());

  // Field-by-field too, so a mismatch names the offending path.
  expect_json_equal(parse_json(mr.to_json(true)), parse_json(sr.to_json(true)),
                    "report");

  // The merge directory holds the full record set and the canonical report.
  for (const CampaignRun& run : expand(spec))
    EXPECT_TRUE(fs::exists(merged.path / "runs" / (run.key + ".json"))) << run.key;
  EXPECT_TRUE(fs::exists(merged.path / "report.json"));
}

TEST(ShardMerge, ShardsMayShareOneDirectoryAsAWorkQueue) {
  const CampaignSpec spec = sweep_campaign();
  ScratchDir shared{"shared"};
  for (int i = 0; i < 2; ++i) {
    ExecutorOptions o;
    o.out_dir = shared.path.string();
    o.shard_index = i;
    o.shard_count = 2;
    Executor ex{spec, o};
    EXPECT_EQ(ex.execute().errors, 0u);
  }
  ScratchDir merged{"shared_merged"};
  ExecutorOptions mo;
  mo.out_dir = merged.path.string();
  Executor mx{spec, mo};
  const CampaignReport mr = mx.merge({shared.path.string()});

  ExecutorOptions so;
  Executor sx{spec, so};
  const CampaignReport sr = sx.execute();
  EXPECT_EQ(mr.to_json(true), sr.to_json(true));
}

TEST(ShardMerge, MissingRecordBecomesAnError) {
  const CampaignSpec spec = sweep_campaign();
  ScratchDir s0{"partial"};
  ExecutorOptions o;
  o.out_dir = s0.path.string();
  o.shard_index = 0;
  o.shard_count = 2;  // only half the matrix present
  Executor ex{spec, o};
  ASSERT_EQ(ex.execute().errors, 0u);

  ScratchDir merged{"partial_merged"};
  ExecutorOptions mo;
  mo.out_dir = merged.path.string();
  Executor mx{spec, mo};
  const CampaignReport mr = mx.merge({s0.path.string()});
  EXPECT_EQ(mr.total, 8u);
  EXPECT_EQ(mr.errors, 4u);  // the shard-1 records are missing
  for (const Outcome& out : mx.outcomes())
    if (!out.ok()) {
      EXPECT_NE(out.error.find("missing record"), std::string::npos);
    }
}

TEST(ShardMerge, MergeRequiresUnshardedExecutor) {
  ExecutorOptions o;
  o.shard_index = 0;
  o.shard_count = 2;
  Executor ex{sweep_campaign(), o};
  EXPECT_THROW(ex.merge({"nowhere"}), std::logic_error);
}

}  // namespace
}  // namespace pdc::campaign
