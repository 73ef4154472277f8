// pdc_campaign: expand and execute a parameter-sweep campaign from a
// declarative .cmp file — the batch sibling of pdc_scenario. See
// examples/campaigns/ for ready-made files and examples/README.md for the
// format, resume semantics and CSV columns.
//
//   $ ./example_pdc_campaign examples/campaigns/smoke.cmp
//   $ ./example_pdc_campaign -j 4 -o out examples/campaigns/fig9.cmp
//   $ printf 'sweep peers 2,4\n' | PDC_QUICK=1 ./example_pdc_campaign -
//
// Distributed execution — split the matrix across worker processes, then
// reassemble (see examples/README.md "Serving & sharding"):
//
//   $ ./example_pdc_campaign --shard 0/2 -o s0 sweep.cmp &
//   $ ./example_pdc_campaign --shard 1/2 -o s1 sweep.cmp &
//   $ wait
//   $ ./example_pdc_campaign --merge -o merged sweep.cmp s0 s1
//
// Options:
//   -j <n>       run up to n grid cells concurrently (default 1)
//   -o <dir>     output directory (default CAMPAIGN_<name>); holds
//                runs/<key>.json per run plus report.json / report.csv
//   --shard i/n  execute only the i-th of n deterministic shards of the run
//                matrix (0-based). Shards may share one -o directory — the
//                atomic record protocol makes runs/ a lock-free work queue —
//                and write report-shard<i>of<n>.json instead of report.json
//   --merge      merge mode: positional arguments after the campaign file
//                are input directories holding runs/<key>.json records;
//                loads every record of the matrix, copies them into -o, and
//                writes the canonical report.json/report.csv (byte-identical
//                for any complete partition of the matrix — two shards or
//                one -j1 run)
//   --render     print the canonical campaign text and exit (no run)
//   --list       print the expanded run matrix and exit (no run)
//   --no-resume  re-execute runs even when their record already exists
//   --trace-dir <dir>  write a Chrome-trace JSON per executed run as
//                <dir>/<key>.trace.json (defaults to PDC_TRACE_DIR when set;
//                does not affect run keys, records or the report)
//
// Completed runs found in <dir>/runs are skipped on restart, so an
// interrupted campaign continues where it stopped. The final summary line
// (`campaign done: ...` / `campaign merged: ...`) is stable for scripting.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/file.hpp"
#include "support/spec_keys.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pdc;
  const char* spec_path = nullptr;
  const char* out_dir = nullptr;
  int jobs = 1;
  bool render_only = false;
  bool list_only = false;
  bool resume = true;
  bool merge = false;
  int shard_index = 0, shard_count = 1;
  // Per-run tracing; the flag overrides the PDC_TRACE_DIR default.
  std::string trace_dir = env_str("PDC_TRACE_DIR");
  std::vector<std::string> merge_dirs;  // positional args after the spec file
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc)
        jobs = keys::Int{.min = 1}.parse(argv[++i], "-j");
      else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) out_dir = argv[++i];
      else if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc)
        trace_dir = argv[++i];
      else if (std::strcmp(argv[i], "--render") == 0) render_only = true;
      else if (std::strcmp(argv[i], "--list") == 0) list_only = true;
      else if (std::strcmp(argv[i], "--no-resume") == 0) resume = false;
      else if (std::strcmp(argv[i], "--merge") == 0) merge = true;
      else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
        const std::string_view shard = argv[++i];
        const std::size_t slash = shard.find('/');
        if (slash == std::string_view::npos)
          throw std::invalid_argument("--shard wants i/n, e.g. --shard 0/4");
        shard_index = keys::Int{.min = 0}.parse(shard.substr(0, slash), "--shard index");
        shard_count = keys::Int{.min = 1}.parse(shard.substr(slash + 1), "--shard count");
      } else if (argv[i][0] == '-' && std::strcmp(argv[i], "-") != 0) {
        std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
        return 2;
      } else if (spec_path == nullptr) {
        spec_path = argv[i];
      } else {
        merge_dirs.push_back(argv[i]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pdc_campaign: %s\n", e.what());
    return 2;
  }
  if (spec_path == nullptr) {
    std::fprintf(stderr,
                 "usage: pdc_campaign [-j n] [-o dir] [--shard i/n] [--render] [--list] "
                 "[--no-resume] [--trace-dir dir] <campaign-file|->\n"
                 "       pdc_campaign --merge [-o dir] <campaign-file|-> <run-dir>...\n");
    return 2;
  }
  if (shard_index >= shard_count) {
    std::fprintf(stderr, "--shard %d/%d is out of range\n", shard_index, shard_count);
    return 2;
  }
  if (!merge && !merge_dirs.empty()) {
    std::fprintf(stderr, "input run directories only make sense with --merge\n");
    return 2;
  }
  if (merge && (merge_dirs.empty() || shard_count != 1)) {
    std::fprintf(stderr, "--merge wants input run directories (and no --shard)\n");
    return 2;
  }

  std::string text;
  if (std::strcmp(spec_path, "-") == 0) {
    std::stringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else if (std::optional<std::string> file = read_file(spec_path)) {
    text = std::move(*file);
  } else {
    std::fprintf(stderr, "cannot open campaign file '%s'\n", spec_path);
    return 1;
  }

  campaign::CampaignSpec spec;
  try {
    spec = campaign::parse_campaign(text, scenario::RunSpec::from_env());
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s: %s\n", spec_path, e.what());
    return 1;
  }

  if (render_only) {
    std::fputs(campaign::render_campaign(spec).c_str(), stdout);
    return 0;
  }

  campaign::ExecutorOptions opts;
  opts.jobs = jobs;
  opts.resume = resume;
  opts.progress = !merge;
  opts.out_dir = out_dir != nullptr ? out_dir : "CAMPAIGN_" + spec.name;
  opts.shard_index = shard_index;
  opts.shard_count = shard_count;
  opts.trace_dir = trace_dir;
  campaign::Executor executor{std::move(spec), opts};

  if (list_only) {
    for (const campaign::CampaignRun& run : executor.runs())
      std::printf("%4zu  %s\n", run.index, run.key.c_str());
    if (shard_count > 1)
      std::printf("%zu runs in shard %d/%d\n", executor.runs().size(), shard_index,
                  shard_count);
    else
      std::printf("%zu runs\n", executor.runs().size());
    return 0;
  }

  campaign::CampaignReport report;
  try {
    report = merge ? executor.merge(merge_dirs) : executor.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  TextTable table({"Point", "reps", "err", "metric", "mean", "stddev", "min", "max"});
  for (const campaign::PointReport& p : report.points) {
    // One headline metric per point keeps the console readable; the full
    // metric set is in report.json / report.csv.
    const char* headline = p.metrics.count("reference_solve_seconds")
                               ? "reference_solve_seconds"
                               : "predicted_solve_seconds";
    auto it = p.metrics.find(headline);
    if (it == p.metrics.end()) {
      table.add_row({p.key, std::to_string(p.repetitions), std::to_string(p.errors), "-",
                     "-", "-", "-", "-"});
      continue;
    }
    const Summary& s = it->second;
    table.add_row({p.key, std::to_string(p.repetitions), std::to_string(p.errors),
                   headline, TextTable::num(s.mean, 3), TextTable::num(s.stddev, 3),
                   TextTable::num(s.min, 3), TextTable::num(s.max, 3)});
  }
  std::printf("%s", table.render().c_str());

  if (merge) {
    std::printf("wrote %s/report.json and report.csv (canonical)\n",
                opts.out_dir.c_str());
    std::printf("campaign merged: total=%zu loaded=%zu errors=%zu\n", report.total,
                report.total - report.errors, report.errors);
  } else if (shard_count > 1) {
    std::printf("wrote %s/report-shard%dof%d.json and .csv\n", opts.out_dir.c_str(),
                shard_index, shard_count);
    std::printf(
        "campaign shard %d/%d done: runs=%zu executed=%zu skipped=%zu errors=%zu "
        "wall=%.2fs\n",
        shard_index, shard_count, report.total, report.executed, report.skipped,
        report.errors, report.wall_seconds);
  } else {
    std::printf("wrote %s/report.json and report.csv\n", opts.out_dir.c_str());
    std::printf(
        "campaign done: total=%zu executed=%zu skipped=%zu errors=%zu wall=%.2fs\n",
        report.total, report.executed, report.skipped, report.errors,
        report.wall_seconds);
  }
  return report.errors == 0 ? 0 : 3;
}
