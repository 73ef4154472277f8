// The paper's evaluation tables (§IV: Fig. 9, Fig. 10, Fig. 11, Table I)
// and ablation A2, printed from the shipped campaign files in
// examples/campaigns/: fig9.cmp, fig10.cmp, fig11.cmp and
// ablation_p2psap.cmp. Each file is parsed over RunSpec::from_env() (so
// PDC_QUICK shrinks the paper sizing) and executed in memory by
// campaign::Executor; PDC_CAMPAIGN_JOBS runs the grid cells concurrently.
// The tables are identical at any job count because every run is an
// independent deterministic simulation.
//
// Fig. 11's reference column and Table I need no campaign of their own:
// the cluster reference is fig9.cmp's O0 column and the desktop-grid
// predictions are fig11.cmp's cells.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "support/env.hpp"
#include "support/file.hpp"
#include "support/table.hpp"

namespace {

using namespace pdc;

/// One executed campaign file: its spec and per-run outcomes.
struct Sweep {
  campaign::CampaignSpec spec;
  std::vector<campaign::Outcome> outcomes;

  /// `metric` of the run on `platform` with `peers` workers at `level`
  /// under `scheme`.
  double at(const std::string& platform, int peers, ir::OptLevel level, const char* metric,
            p2psap::Scheme scheme = p2psap::Scheme::Synchronous) const {
    for (const campaign::Outcome& out : outcomes) {
      const scenario::ScenarioSpec& s = out.run.spec;
      if (s.platform.label == platform && s.run.peers == peers && s.run.level == level &&
          s.run.scheme == scheme)
        return out.metrics.at(metric);
    }
    throw std::out_of_range(spec.name + " has no " + platform + " cell for " +
                            std::to_string(peers) + " peers");
  }
};

Sweep run_campaign_file(const char* name) {
  const std::string path = std::string(PDC_CAMPAIGN_DIR) + "/" + name + ".cmp";
  const std::optional<std::string> text = read_file(path);
  if (!text) throw std::runtime_error("cannot open " + path);
  campaign::ExecutorOptions opts;
  opts.jobs = env_int("PDC_CAMPAIGN_JOBS", 1);
  opts.progress = true;
  campaign::Executor executor{
      campaign::parse_campaign(*text, scenario::RunSpec::from_env()), opts};
  executor.execute();
  for (const campaign::Outcome& out : executor.outcomes())
    if (!out.ok()) throw std::runtime_error("run " + out.run.key + " failed: " + out.error);
  return {executor.spec(), executor.outcomes()};
}

/// The paper's name for a platform preset.
std::string paper_name(const std::string& label) {
  if (label == "grid5000") return "Grid5000";
  if (label == "lan") return "LAN";
  if (label == "xdsl") return "xDSL";
  return label;
}

/// Table I wording: "slightly lower than" = the P2P configuration performs
/// slightly worse, "same as" = equivalent computing power.
std::string classify(double p2p_seconds, double cluster_seconds) {
  const double ratio = p2p_seconds / cluster_seconds;
  if (ratio > 2.0) return "much lower than";
  if (ratio > 1.05) return "slightly lower than";
  if (ratio >= 0.95) return "same as";
  if (ratio >= 0.5) return "slightly higher than";
  return "much higher than";
}

// Fig. 9 (§IV-B.1): Stage-1 reference execution time on the Bordeplage
// cluster for every peer count and optimization level. Expected shape:
// times fall monotonically with peers; the O0 curve is roughly 3x the
// optimized ones; levels >= 1 are clustered together.
void print_fig9(const Sweep& fig9) {
  const scenario::RunSpec& base = fig9.spec.base.run;
  std::printf("Fig. 9 -- Stage-1 reference execution time [s], obstacle problem %dx%d,\n"
              "%d iterations, P2PDC on the Bordeplage cluster model (1 Gbps NICs, 10 Gbps\n"
              "backbone, 3 GHz nodes)\n\n",
              base.grid_n, base.grid_n, base.iters);
  std::vector<std::string> headers{"Peers"};
  for (ir::OptLevel lvl : fig9.spec.levels)
    headers.push_back(std::string("opt ") + (ir::opt_level_name(lvl) + 1));
  TextTable table(headers);
  for (int peers : fig9.spec.peers) {
    std::vector<std::string> row{std::to_string(peers)};
    for (ir::OptLevel lvl : fig9.spec.levels)
      row.push_back(TextTable::num(fig9.at("grid5000", peers, lvl, "reference_solve_seconds")));
    table.add_row(std::move(row));
  }
  std::printf("\n%s\n", table.render().c_str());

  std::printf("Block-benchmark cost model (dPerf, ns per grid point):\n");
  TextTable costs({"Level", "init ns/pt", "iter ns/pt"});
  for (ir::OptLevel lvl : fig9.spec.levels) {
    const auto& c = scenario::cost_profile(lvl, base);
    costs.add_row({ir::opt_level_name(lvl), TextTable::num(c.init_ns_per_point, 2),
                   TextTable::num(c.iter_ns_per_point, 2)});
  }
  std::printf("%s\n", costs.render().c_str());
}

// Fig. 10 (§IV-B.3): reference against dPerf prediction on the identical
// cluster platform; the two curves must nearly coincide.
void print_fig10(const Sweep& fig10) {
  const ir::OptLevel level = fig10.spec.base.run.level;
  std::printf("Fig. 10 -- Stage-1 reference vs dPerf prediction [s], optimization level %s\n\n",
              ir::opt_level_name(level) + 1);
  TextTable table({"Peers", "reference", "dPerf prediction", "error %"});
  double worst_err = 0;
  for (int peers : fig10.spec.peers) {
    const double err = 100.0 * fig10.at("grid5000", peers, level, "prediction_error");
    worst_err = std::max(worst_err, err);
    table.add_row({std::to_string(peers),
                   TextTable::num(fig10.at("grid5000", peers, level, "reference_solve_seconds")),
                   TextTable::num(fig10.at("grid5000", peers, level, "predicted_solve_seconds")),
                   TextTable::num(err, 1)});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("worst prediction error: %.1f%% (paper: curves nearly coincide)\n", worst_err);
}

// Fig. 11 (§IV-B.4): the cluster reference against dPerf predictions on
// every platform of fig11.cmp, all at fig11.cmp's optimization level.
// Expected shape: the xDSL curve sits far above the others (communication
// dominates; adding peers does not pay), the LAN curve tracks the cluster
// within a modest factor.
void print_fig11(const Sweep& fig9, const Sweep& fig11) {
  const ir::OptLevel level = fig11.spec.base.run.level;
  std::printf("Fig. 11 -- reference vs dPerf predictions [s], optimization level %s\n\n",
              ir::opt_level_name(level) + 1);
  std::vector<std::string> headers{"Peers", "reference"};
  for (const scenario::PlatformSpec& p : fig11.spec.platforms)
    headers.push_back("dPerf " + paper_name(p.label));
  TextTable table(headers);
  for (int peers : fig11.spec.peers) {
    std::vector<std::string> row{
        std::to_string(peers),
        TextTable::num(fig9.at("grid5000", peers, level, "reference_solve_seconds"))};
    for (const scenario::PlatformSpec& p : fig11.spec.platforms)
      row.push_back(TextTable::num(fig11.at(p.label, peers, level, "predicted_solve_seconds")));
    table.add_row(std::move(row));
  }
  std::printf("\n%s\n", table.render().c_str());
}

// Table I (§IV-B.4): "comparing equivalent predictions and the
// corresponding computing power in Grid5000" -- the paper's five
// comparisons of a predicted desktop-grid time against the cluster
// reference, classified the way the paper words them.
void print_table1(const Sweep& fig9, const Sweep& fig11) {
  const ir::OptLevel level = fig11.spec.base.run.level;
  std::printf("Table I -- equivalent computing power, optimization level %s\n"
              "(classification by predicted-time ratio; the paper's wording:\n"
              " 'performance slightly lower than' = P2P config slightly slower)\n\n",
              ir::opt_level_name(level) + 1);
  auto cluster = [&](int peers) {
    return fig9.at("grid5000", peers, level, "reference_solve_seconds");
  };
  auto p2p = [&](const char* platform, int peers) {
    return fig11.at(platform, peers, level, "predicted_solve_seconds");
  };

  struct Row {
    int p2p_peers;
    const char* platform;
    int cluster_peers;
    const char* paper_says;
  };
  const Row rows[] = {
      {4, "xdsl", 2, "slightly lower than"},
      {2, "lan", 2, "slightly lower than"},
      {4, "lan", 4, "slightly lower than"},
      {8, "lan", 4, "same as"},
      {32, "lan", 8, "slightly lower than"},
  };
  TextTable table({"Processes", "topology", "measured", "(paper)", "than", "Grid5000"});
  for (const Row& r : rows) {
    const double pt = p2p(r.platform, r.p2p_peers);
    const double ct = cluster(r.cluster_peers);
    table.add_row({std::to_string(r.p2p_peers), paper_name(r.platform), classify(pt, ct),
                   std::string("(") + r.paper_says + ")",
                   TextTable::num(pt, 1) + "s vs " + TextTable::num(ct, 1) + "s",
                   std::to_string(r.cluster_peers)});
  }
  std::printf("\n%s\n", table.render().c_str());

  // Our own equivalence search: for each cluster size, the smallest LAN
  // configuration that matches or beats it.
  std::printf("Measured equivalence (smallest LAN config with time <= cluster):\n");
  TextTable eq({"Grid5000 peers", "cluster [s]", "equivalent LAN peers", "LAN [s]"});
  for (int cpeers : {2, 4, 8}) {
    int best = -1;
    double best_t = 0;
    for (int peers : {2, 4, 8, 32}) {
      const double t = p2p("lan", peers);
      if (t <= cluster(cpeers) * 1.05) {
        best = peers;
        best_t = t;
        break;
      }
    }
    eq.add_row({std::to_string(cpeers), TextTable::num(cluster(cpeers), 1),
                best > 0 ? std::to_string(best) : "none",
                best > 0 ? TextTable::num(best_t, 1) : "-"});
  }
  std::printf("%s\n", eq.render().c_str());
}

// Ablation A2: P2PSAP sync vs async channels per platform.
void print_ablation_p2psap(const Sweep& a2) {
  const scenario::RunSpec& base = a2.spec.base.run;
  std::printf("Ablation A2 -- P2PSAP scheme adaptation, obstacle %dx%d, %d iterations,\n"
              "%d peers (solve seconds; async iterations overlap communication)\n\n",
              base.grid_n, base.grid_n, base.iters, base.peers);
  TextTable table({"Topology", "sync scheme [s]", "async scheme [s]", "async speedup"});
  for (const scenario::PlatformSpec& p : a2.spec.platforms) {
    auto solve = [&](p2psap::Scheme scheme) {
      return a2.at(p.label, base.peers, base.level, "reference_solve_seconds", scheme);
    };
    const double sync = solve(p2psap::Scheme::Synchronous);
    const double async = solve(p2psap::Scheme::Asynchronous);
    table.add_row({paper_name(p.label), TextTable::num(sync, 2), TextTable::num(async, 2),
                   TextTable::num(sync / async, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: async iterations use stale halo data and need more iterations to\n"
              "converge; this table isolates the per-iteration transport cost.\n");
}

}  // namespace

int main() {
  try {
    const Sweep fig9 = run_campaign_file("fig9");
    print_fig9(fig9);
    print_fig10(run_campaign_file("fig10"));
    const Sweep fig11 = run_campaign_file("fig11");
    print_fig11(fig9, fig11);
    print_table1(fig9, fig11);
    print_ablation_p2psap(run_campaign_file("ablation_p2psap"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paper_tables: %s\n", e.what());
    return 1;
  }
  return 0;
}
