// pdc_scenario: run any prediction experiment from a declarative scenario
// file -- no recompiling, no per-experiment driver. See examples/scenarios/
// for ready-made files and examples/README.md for the format.
//
//   $ ./example_pdc_scenario examples/scenarios/lan.scn
//   $ ./example_pdc_scenario -o out.json examples/scenarios/wan.scn
//   $ echo 'platform federation' | ./example_pdc_scenario -
//
// Options:
//   -o <path>   RunRecord JSON output path (default RUN_<name>.json)
//   --render    print the canonical spec text and exit (no run)
//
// PDC_QUICK=1 shrinks the default obstacle sizing for smoke runs; explicit
// `grid` / `iters` lines in the file always win.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>

#include "scenario/runner.hpp"
#include "support/file.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pdc;
  const char* spec_path = nullptr;
  const char* out_path = nullptr;
  bool render_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) out_path = argv[++i];
    else if (std::strcmp(argv[i], "--render") == 0) render_only = true;
    else if (argv[i][0] == '-' && std::strcmp(argv[i], "-") != 0) {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      spec_path = argv[i];
    }
  }
  if (spec_path == nullptr) {
    std::fprintf(stderr,
                 "usage: pdc_scenario [-o out.json] [--render] <spec-file|->\n");
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
    std::fprintf(stderr, "cannot open scenario file '%s'\n", spec_path);
    return 1;
  }

  scenario::ScenarioSpec spec;
  try {
    spec = scenario::parse_scenario(text, scenario::RunSpec::from_env());
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "%s: %s\n", spec_path, e.what());
    return 1;
  }

  if (render_only) {
    std::fputs(scenario::render_scenario(spec).c_str(), stdout);
    return 0;
  }

  const scenario::Runner runner{spec};
  std::printf("scenario %s: platform %s (%s), %d peers, %s, mode %s\n", spec.name.c_str(),
              spec.platform.label.c_str(), spec.platform.kind(), spec.run.peers,
              ir::opt_level_name(spec.run.level), scenario::mode_name(spec.run.mode));

  scenario::RunRecord rec;
  try {
    rec = runner.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario failed: %s\n", e.what());
    return 1;
  }

  TextTable table({"Phase", "solve [s]", "total [s]", "peers", "groups"});
  if (rec.reference)
    table.add_row({"reference", TextTable::num(rec.reference->solve_seconds, 3),
                   TextTable::num(rec.reference->total_seconds, 3),
                   std::to_string(rec.reference->computation.peers),
                   std::to_string(rec.reference->computation.groups)});
  if (rec.predicted)
    table.add_row({"predicted", TextTable::num(rec.predicted->solve_seconds, 3),
                   TextTable::num(rec.predicted->total_seconds, 3),
                   std::to_string(rec.predicted->computation.peers),
                   std::to_string(rec.predicted->computation.groups)});
  if (rec.analytic)
    table.add_row({"analytic", TextTable::num(rec.analytic->solve_seconds, 3),
                   TextTable::num(rec.analytic->total_seconds, 3),
                   std::to_string(rec.analytic->computation.peers),
                   std::to_string(rec.analytic->computation.groups)});
  std::printf("%s", table.render().c_str());
  if (rec.prediction_error)
    std::printf("prediction error: %.2f%%\n", 100.0 * *rec.prediction_error);
  if (rec.analytic_error)
    std::printf("analytic error: %.2f%%\n", 100.0 * *rec.analytic_error);

  const std::string path =
      out_path != nullptr ? std::string(out_path) : "RUN_" + spec.name + ".json";
  try {
    write_file_atomic(path, rec.to_json());
  } catch (const std::exception&) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%d hosts modelled)\n", path.c_str(), rec.platform_hosts);
  return 0;
}
