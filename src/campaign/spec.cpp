#include "campaign/spec.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace pdc::campaign {

namespace {

using scenario::PlatformSpec;
using scenario::ScenarioError;

/// Sweep values may be comma- and/or space-separated; flatten both.
std::vector<std::string> sweep_values(const std::vector<std::string>& tok,
                                      std::size_t first, int line) {
  std::vector<std::string> out;
  for (std::size_t i = first; i < tok.size(); ++i) {
    std::string item;
    std::istringstream in(tok[i]);
    while (std::getline(in, item, ','))
      if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw ScenarioError(line, "sweep axis with no values");
  return out;
}

/// Keys name run-record files: keep [A-Za-z0-9._-], map the rest to '_'.
std::string sanitize_key(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                    c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

/// Run-key abbreviation of the allocation mode: part of every run key, so
/// of every campaign's resume identity.
const char* alloc_key(p2pdc::AllocationMode a) {
  return a == p2pdc::AllocationMode::Hierarchical ? "hier" : "flat";
}

/// The scalar sweep axes, in render order: each calls
/// `visit(axis, scenario keyword, values, field)`, where `field` picks the
/// swept RunSpec field. Values parse and render through the keyword's row.
template <class Campaign, class Visit>
void for_each_axis(Campaign& c, Visit&& visit) {
  using scenario::RunSpec;
  visit("peers", "peers", c.peers, [](RunSpec& r) -> auto& { return r.peers; });
  visit("opt", "opt", c.levels, [](RunSpec& r) -> auto& { return r.level; });
  visit("scheme", "scheme", c.schemes, [](RunSpec& r) -> auto& { return r.scheme; });
  visit("alloc", "alloc", c.allocations, [](RunSpec& r) -> auto& { return r.allocation; });
  visit("seed", "seed", c.seeds, [](RunSpec& r) -> auto& { return r.seed; });
  visit("churn_rate", "churn rate", c.churn_rates,
        [](RunSpec& r) -> auto& { return r.churn.peer_crash_rate; });
  visit("churn_seed", "churn seed", c.churn_seeds,
        [](RunSpec& r) -> auto& { return r.churn.seed; });
}

}  // namespace

std::size_t CampaignSpec::total_runs() const {
  auto axis = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  return axis(platforms.size()) * axis(peers.size()) * axis(levels.size()) *
         axis(schemes.size()) * axis(allocations.size()) * axis(seeds.size()) *
         axis(churn_rates.size()) * axis(churn_seeds.size()) *
         static_cast<std::size_t>(repetitions < 1 ? 0 : repetitions);
}

std::vector<CampaignRun> expand(const CampaignSpec& spec) {
  if (spec.repetitions < 1)
    throw std::invalid_argument("campaign '" + spec.name + "': repetitions < 1");

  // Repeated values on one axis (e.g. `sweep seed 42,42`) would expand to
  // runs with the identical key — same record file, racing temp writes at
  // -j>1, double-counted aggregation. They carry no information
  // (`repetitions` is the way to repeat a point), so collapse them,
  // keeping first-occurrence order.
  auto dedup = [](auto values) {
    auto out = values;
    out.clear();
    for (const auto& v : values)
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    return out;
  };

  // Empty axes collapse to the base scenario's value.
  const std::vector<PlatformSpec> platforms =
      spec.platforms.empty() ? std::vector<PlatformSpec>{spec.base.platform}
                             : spec.platforms;
  const std::vector<int> peers =
      spec.peers.empty() ? std::vector<int>{spec.base.run.peers} : dedup(spec.peers);
  const std::vector<ir::OptLevel> levels =
      spec.levels.empty() ? std::vector<ir::OptLevel>{spec.base.run.level}
                          : dedup(spec.levels);
  const std::vector<p2psap::Scheme> schemes =
      spec.schemes.empty() ? std::vector<p2psap::Scheme>{spec.base.run.scheme}
                           : dedup(spec.schemes);
  const std::vector<p2pdc::AllocationMode> allocations =
      spec.allocations.empty()
          ? std::vector<p2pdc::AllocationMode>{spec.base.run.allocation}
          : dedup(spec.allocations);
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.run.seed}
                         : dedup(spec.seeds);
  // Churn axes contribute key segments only when actually swept, so
  // churn-free campaigns keep their pre-churn run keys and resume records.
  const bool sweep_churn_rate = !spec.churn_rates.empty();
  const bool sweep_churn_seed = !spec.churn_seeds.empty();
  const std::vector<double> churn_rates =
      sweep_churn_rate ? dedup(spec.churn_rates)
                       : std::vector<double>{spec.base.run.churn.peer_crash_rate};
  const std::vector<std::uint64_t> churn_seeds =
      sweep_churn_seed ? dedup(spec.churn_seeds)
                       : std::vector<std::uint64_t>{spec.base.run.churn.seed};

  // Platform key components must be unique per axis value: two `variant
  // star ...` lines without explicit labels would otherwise collide into
  // one grid point (same record file, merged aggregation, wrong resume).
  // First-come keeps the plain label; later duplicates grow a "v<index>"
  // suffix until unique (covering labels that themselves look suffixed).
  std::vector<std::string> platform_keys;
  platform_keys.reserve(platforms.size());
  {
    std::set<std::string> used;
    for (std::size_t i = 0; i < platforms.size(); ++i) {
      std::string key = sanitize_key(platforms[i].label);
      while (!used.insert(key).second) key += "v" + std::to_string(i);
      platform_keys.push_back(std::move(key));
    }
  }

  std::vector<CampaignRun> runs;
  runs.reserve(spec.total_runs());
  for (std::size_t plat = 0; plat < platforms.size(); ++plat)
    for (int p : peers)
      for (ir::OptLevel level : levels)
        for (p2psap::Scheme scheme : schemes)
          for (p2pdc::AllocationMode alloc : allocations)
            for (std::uint64_t seed : seeds)
              for (double churn_rate : churn_rates)
                for (std::uint64_t churn_seed : churn_seeds)
                  for (int rep = 0; rep < spec.repetitions; ++rep) {
                    CampaignRun run;
                    run.index = runs.size();
                    run.repetition = rep;
                    run.spec = spec.base;
                    scenario::RunSpec& r = run.spec.run;
                    run.spec.platform = platforms[plat];
                    r.peers = p;
                    r.level = level;
                    r.scheme = scheme;
                    r.allocation = alloc;
                    r.seed = seed;
                    r.churn.peer_crash_rate = churn_rate;
                    r.churn.seed = churn_seed;
                    run.point_key = platform_keys[plat] + "-p" + std::to_string(p) + "-" +
                                    ir::opt_level_name(level) + "-" +
                                    scenario::render_run_value(r, "scheme") + "-" +
                                    alloc_key(alloc) + "-s" + std::to_string(seed);
                    if (sweep_churn_rate)
                      run.point_key += "-cr" + sanitize_key(format_shortest(churn_rate));
                    if (sweep_churn_seed)
                      run.point_key += "-cs" + std::to_string(churn_seed);
                    run.key = run.point_key + "-r" + std::to_string(rep);
                    run.spec.name = spec.name + "/" + run.key;
                    runs.push_back(std::move(run));
                  }
  return runs;
}

std::vector<CampaignRun> shard_runs(std::vector<CampaignRun> runs, int shard_index,
                                    int shard_count) {
  if (shard_count < 1)
    throw std::invalid_argument("shard count must be >= 1, got " +
                                std::to_string(shard_count));
  if (shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("shard index " + std::to_string(shard_index) +
                                " outside [0, " + std::to_string(shard_count) + ")");
  if (shard_count == 1) return runs;
  std::vector<CampaignRun> out;
  out.reserve(runs.size() / static_cast<std::size_t>(shard_count) + 1);
  for (CampaignRun& run : runs)
    if (run.index % static_cast<std::size_t>(shard_count) ==
        static_cast<std::size_t>(shard_index))
      out.push_back(std::move(run));
  return out;
}

CampaignSpec parse_campaign(const std::string& text, const scenario::RunSpec& base) {
  CampaignSpec spec;
  bool named = false;       // saw a `campaign <name>` line
  bool base_named = false;  // saw an explicit `scenario <name>` line

  // Campaign keywords are consumed here; every other line is forwarded to
  // the scenario parser verbatim. Consumed lines are replaced with blank
  // lines so ScenarioError line numbers match the original .cmp text.
  std::string scenario_text;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool in_inline = false;  // inside a `platform inline ... end` block
  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = keys::tokenize(line);
    if (in_inline) {
      scenario_text += line;
      scenario_text += '\n';
      if (tok.size() == 1 && tok[0] == "end") in_inline = false;
      continue;
    }
    if (tok.size() >= 2 && tok[0] == "platform" && tok[1] == "inline") in_inline = true;

    const std::string kw = tok.empty() ? "" : tok[0];
    if (kw == "campaign") {
      if (tok.size() != 2) throw ScenarioError(lineno, "expected: campaign <name>");
      spec.name = tok[1];
      named = true;
    } else if (kw == "repetitions") {
      if (tok.size() != 2) throw ScenarioError(lineno, "expected: repetitions <n>");
      try {
        spec.repetitions = keys::Int{.min = 1}.parse(tok[1], "repetitions");
      } catch (const std::invalid_argument& e) {
        throw ScenarioError(lineno, e.what());
      }
    } else if (kw == "sweep") {
      if (tok.size() < 3) throw ScenarioError(lineno, "expected: sweep <axis> <values>");
      const std::string& axis = tok[1];
      const auto values = sweep_values(tok, 2, lineno);
      if (axis == "platform") {
        for (const auto& v : values) {
          auto preset = PlatformSpec::preset(v);
          if (!preset)
            throw ScenarioError(lineno, "unknown platform preset '" + v +
                                            "' (use a `variant` line for parameterized "
                                            "platforms)");
          spec.platforms.push_back(std::move(*preset));
        }
      } else {
        bool known = false;
        for_each_axis(spec, [&](const char* name, const char* keyword, auto& axis_values,
                                auto field) {
          if (axis != name) return;
          known = true;
          for (const auto& v : values) {
            scenario::RunSpec run;
            scenario::parse_run_value(run, keyword, v, lineno);
            axis_values.push_back(field(run));
          }
        });
        if (!known) throw ScenarioError(lineno, "unknown sweep axis '" + axis + "'");
      }
    } else if (kw == "variant") {
      if (tok.size() < 2)
        throw ScenarioError(lineno, "expected: variant <platform-kind> [key=value ...]");
      if (tok[1] == "inline")
        throw ScenarioError(lineno, "inline platforms cannot be campaign variants");
      // A variant line is a `platform ...` line naming one axis value.
      std::vector<std::string> platform_tok = tok;
      platform_tok[0] = "platform";
      spec.platforms.push_back(scenario::parse_platform_tokens(platform_tok, lineno));
    } else {
      if (kw == "scenario") base_named = true;
      scenario_text += line;
      scenario_text += '\n';
      continue;
    }
    scenario_text += '\n';  // consumed: keep line numbers aligned
  }

  spec.base = scenario::parse_scenario(scenario_text, base);
  if (named && !base_named) spec.base.name = spec.name;
  return spec;
}

std::string render_campaign(const CampaignSpec& spec) {
  std::ostringstream out;
  out << "campaign " << spec.name << "\n";
  out << scenario::render_scenario(spec.base);
  for (const PlatformSpec& p : spec.platforms) {
    if (const auto* f = std::get_if<scenario::PlatformFileSpec>(&p.spec)) {
      if (f->path.empty())
        throw std::invalid_argument("inline platform variants have no text form");
      out << "variant file " << f->path << "\n";
    } else {
      // render_platform_line emits "platform <kind> ..."; a variant line is
      // the same description under the `variant` keyword.
      const std::string line = scenario::render_platform_line(p);
      out << "variant" << line.substr(std::string("platform").size()) << "\n";
    }
  }
  for_each_axis(spec, [&out](const char* name, const char* keyword, const auto& axis_values,
                              auto field) {
    if (axis_values.empty()) return;
    out << "sweep " << name << " ";
    for (std::size_t i = 0; i < axis_values.size(); ++i) {
      scenario::RunSpec run;
      field(run) = axis_values[i];
      out << (i > 0 ? "," : "") << scenario::render_run_value(run, keyword);
    }
    out << "\n";
  });
  out << "repetitions " << spec.repetitions << "\n";
  return out.str();
}

}  // namespace pdc::campaign
