// Declarative parameter-sweep campaigns: one base scenario crossed with
// sweep axes (platform variants x peers x opt levels x P2PSAP schemes x
// allocation modes x seeds) and repeated `repetitions` times per grid
// point. A campaign is plain data — built in code (the figure benches),
// parsed from a small text format (the pdc_campaign CLI) and rendered
// back — and expands to a deterministic run matrix that campaign::Executor
// runs across a thread pool.
//
// Text format (.cmp), a superset of the scenario format: every scenario
// keyword (platform, peers, opt, mode, ..., churn, including `platform
// inline ... end` blocks) sets the *base* scenario, plus:
//
//   campaign <name>                 # campaign (and default record) name
//   sweep peers 2,4,8               # axis: worker counts
//   sweep opt 0,2,s                 # axis: optimization levels
//   sweep scheme sync,async         # axis: P2PSAP schemes
//   sweep alloc hierarchical,flat   # axis: allocation modes
//   sweep seed 41,42,43             # axis: workload seeds
//   sweep churn_rate 0,0.002,0.01   # axis: peer crash rates (/s/worker);
//                                   #   overrides the base `churn rate`
//   sweep churn_seed 1,2,3          # axis: churn event-stream seeds
//   sweep platform grid5000 lan     # axis: platform presets (grid5000 |
//                                   #   lan | xdsl | federation | wan |
//                                   #   scale_free | small_world)
//   variant star hosts=8 speed=2GHz # axis: one parameterized platform
//   variant file my_network.plat    #   variant per `variant` line (same
//                                   #   syntax as a `platform ...` line)
//   repetitions <n>                 # repeated runs per grid point
//
// Sweep values are comma- or space-separated, and each parses exactly as
// the scenario keyword it sweeps (`churn_rate` as `churn rate`). Unswept
// axes keep the base scenario's value (an axis of size one). See
// examples/campaigns/.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace pdc::campaign {

/// Base scenario x sweep axes x repetitions. Empty axis = keep the base
/// value. `platforms` lists complete variants (presets and/or fully
/// parameterized specs from `variant` lines).
struct CampaignSpec {
  std::string name = "campaign";
  scenario::ScenarioSpec base;

  std::vector<scenario::PlatformSpec> platforms;
  std::vector<int> peers;
  std::vector<ir::OptLevel> levels;
  std::vector<p2psap::Scheme> schemes;
  std::vector<p2pdc::AllocationMode> allocations;
  std::vector<std::uint64_t> seeds;
  /// Churn axes: values override the base scenario's `churn rate` / `churn
  /// seed`, so prediction error can be tabulated as a function of
  /// volatility. Swept axes add "-cr<rate>" / "-cs<seed>" key segments;
  /// unswept campaigns keep their pre-churn keys (stable resume).
  std::vector<double> churn_rates;
  std::vector<std::uint64_t> churn_seeds;
  int repetitions = 1;

  /// The grid size: product of axis sizes (empty axes count 1), including
  /// repetitions. An upper bound on expand().size(): duplicate values on a
  /// sweep axis collapse during expansion.
  std::size_t total_runs() const;
};

/// One cell of the expanded run matrix. `point_key` identifies the grid
/// point (all axis values, no repetition); `key` additionally carries the
/// repetition index and names the run record file. Both are filesystem-safe.
struct CampaignRun {
  std::size_t index = 0;  // position in expansion order
  std::string key;        // "<point_key>-r<repetition>"
  std::string point_key;  // e.g. "grid5000-p8-o3-sync-hier-s42"
  int repetition = 0;
  scenario::ScenarioSpec spec;  // complete scenario for this cell
};

/// Expands the sweep grid in deterministic order (platform-major, then
/// peers, opt, scheme, alloc, seed; repetitions innermost). Run scenario
/// names are "<campaign>/<key>". Throws std::invalid_argument on an empty
/// grid (repetitions < 1).
std::vector<CampaignRun> expand(const CampaignSpec& spec);

/// Deterministic shard selection over an expanded matrix: keeps the runs
/// whose expansion index i satisfies i % shard_count == shard_index,
/// preserving order (and each run's original `index`). Round-robin striping
/// balances repetitions — the innermost axis — across shards, so equal-cost
/// repeated points spread instead of clumping on one worker. The shards of
/// any n partition the matrix disjointly and exhaustively; campaign::merge
/// reassembles their run directories into the unsharded report. Throws
/// std::invalid_argument on shard_count < 1 or shard_index outside [0, n).
std::vector<CampaignRun> shard_runs(std::vector<CampaignRun> runs, int shard_index,
                                    int shard_count);

/// Parses the campaign text format. Unset base keys keep the defaults of
/// `base` (pass RunSpec::from_env() to honour PDC_QUICK). Throws
/// scenario::ScenarioError with the 1-based line in the original text.
CampaignSpec parse_campaign(const std::string& text,
                            const scenario::RunSpec& base = scenario::RunSpec{});

/// Renders a campaign back to the text format; parse(render(c)) reproduces
/// the same spec.
std::string render_campaign(const CampaignSpec& spec);

}  // namespace pdc::campaign
