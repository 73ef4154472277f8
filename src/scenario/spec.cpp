#include "scenario/spec.hpp"

#include <sstream>
#include <tuple>
#include <type_traits>
#include <vector>

#include "net/platfile.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace pdc::scenario {

namespace {

using keys::field;
using keys::Show;

// --- value codecs beyond support/spec_keys ----------------------------------

struct Ip {
  Ipv4 parse(std::string_view text, std::string_view key) const {
    if (auto ip = Ipv4::parse(std::string(text))) return *ip;
    throw std::invalid_argument("bad " + std::string(key) + " '" + std::string(text) + "'");
  }
  std::string render(Ipv4 ip) const { return ip.to_string(); }
};

/// Comma-separated speeds (`speeds=2GHz,3GHz`).
struct SpeedList {
  std::vector<double> parse(std::string_view text, std::string_view key) const {
    std::vector<double> out;
    std::string item;
    std::istringstream in{std::string(text)};
    while (std::getline(in, item, ','))
      if (!item.empty()) out.push_back(net::kSpeed.parse(item, key));
    if (out.empty()) throw std::invalid_argument("empty speed list '" + std::string(text) + "'");
    return out;
  }
  std::string render(const std::vector<double>& speeds) const {
    std::string out;
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      if (i > 0) out += ',';
      out += net::kSpeed.render(speeds[i]);
    }
    return out;
  }
};

/// `opt` goes through ir's own level names (O0..O3, Os; 0..3 and s parse too).
struct Opt {
  ir::OptLevel parse(std::string_view text, std::string_view) const {
    return ir::parse_opt_level(std::string(text));
  }
  std::string render(ir::OptLevel level) const { return ir::opt_level_name(level); }
};

const keys::Int kCount{.min = 0};

// The one name table per enum.
constexpr std::pair<Mode, const char*> kModeNames[] = {
    {Mode::Reference, "reference"}, {Mode::Predict, "predict"},
    {Mode::Both, "both"},           {Mode::Analytic, "analytic"},
    {Mode::BothAnalytic, "both-analytic"},
};
constexpr std::pair<p2pdc::AllocationMode, const char*> kAllocNames[] = {
    {p2pdc::AllocationMode::Hierarchical, "hierarchical"},
    {p2pdc::AllocationMode::Flat, "flat"},
};
constexpr std::pair<p2psap::Scheme, const char*> kSchemeNames[] = {
    {p2psap::Scheme::Synchronous, "sync"},
    {p2psap::Scheme::Asynchronous, "async"},
};
constexpr std::pair<bool, const char*> kBootNames[] = {{false, "eager"}, {true, "lazy"}};
const keys::Names<Mode> kModes{kModeNames};

/// The RunSpec keywords, in canonical render order.
const std::vector<keys::Row<RunSpec>>& run_rows() {
  static const std::vector<keys::Row<RunSpec>> rows = {
      field("peers", &RunSpec::peers, kCount),
      field("opt", &RunSpec::level, Opt{}),
      field("mode", &RunSpec::mode, kModes),
      field("alloc", &RunSpec::allocation, keys::Names<p2pdc::AllocationMode>{kAllocNames}),
      field("scheme", &RunSpec::scheme, keys::Names<p2psap::Scheme>{kSchemeNames}),
      field("seed", &RunSpec::seed, keys::U64{}),
      field("grid", &RunSpec::grid_n, kCount),
      field("iters", &RunSpec::iters, kCount),
      field("rcheck", &RunSpec::rcheck, keys::Int{.min = 1}),  // `it % rcheck` divides
      {"bench",
       [](RunSpec& r, std::span<const std::string> values) {
         if (values.size() != 3)
           throw std::invalid_argument("expected: bench <n> <iters> <rcheck>");
         r.bench_n = kCount.parse(values[0], "bench n");
         r.bench_iters = kCount.parse(values[1], "bench iters");
         r.bench_rcheck = kCount.parse(values[2], "bench rcheck");
       },
       [](const RunSpec& r) {
         return std::to_string(r.bench_n) + " " + std::to_string(r.bench_iters) + " " +
                std::to_string(r.bench_rcheck);
       }},
      // Finite: the workload memo key orders on omega, and NaN compares
      // equal to every key.
      field("omega", &RunSpec::omega, keys::Real{}),
      field("cmax", &RunSpec::cmax, keys::Int{.min = 1}),  // 0 never ends the chunk split
      // Scale knobs render only when non-default, so older scenarios keep
      // their exact text form (same contract as the churn lines).
      field("boot", &RunSpec::lazy_boot, keys::Names<bool>{kBootNames}, Show::NonDefault),
      field("trackers", &RunSpec::trackers, keys::Int{.min = 1}, Show::NonDefault),
      field("ranks", &RunSpec::ranks, kCount, Show::NonDefault),
      field("trace", &RunSpec::trace_path, keys::Text{}, Show::Never),
  };
  return rows;
}

// --- platform generators ----------------------------------------------------

/// One platform generator's text form: its kind, what `platform <kind>`
/// starts from, and its key=value parameters in render order (`label`,
/// common to every kind, is handled by the caller).
template <class T>
struct Generator {
  const char* kind;
  T fresh;
  std::vector<keys::Row<T>> rows;
};

/// Every generator's text form (a variant alternative without one fails to
/// compile at generator<T>()).
const auto& generators() {
  using Star = net::StarSpec;
  using Daisy = net::DaisySpec;
  using Fed = net::FederationSpec;
  using Wan = net::WanSpec;
  using Ba = net::ScaleFreeSpec;
  using Ws = net::SmallWorldSpec;
  static const std::tuple all{
      Generator<Star>{"star",
                      {.hosts = 0},  // auto-size to the run's peer count
                      {field("hosts", &Star::hosts, kCount),
                       field("speed", &Star::host_speed_hz, net::kSpeed),
                       field("nic_bw", &Star::nic_bw_Bps, net::kBandwidth),
                       field("nic_lat", &Star::nic_latency, net::kLatency),
                       field("bb_bw", &Star::backbone_bw_Bps, net::kBandwidth),
                       field("bb_lat", &Star::backbone_latency, net::kLatency),
                       field("prefix", &Star::name_prefix, keys::Text{}),
                       field("ip", &Star::base_ip, Ip{})}},
      Generator<Daisy>{"daisy",
                       {},
                       {field("petals", &Daisy::central_routers, kCount),
                        field("petal_routers", &Daisy::routers_per_petal, kCount),
                        field("dslams", &Daisy::dslams_per_router, kCount),
                        field("dslam_nodes", &Daisy::nodes_per_dslam, kCount),
                        field("extra", &Daisy::extra_nodes_on_one_dslam, kCount),
                        field("speed", &Daisy::host_speed_hz, net::kSpeed),
                        field("ring_bw", &Daisy::ring_bw_Bps, net::kBandwidth),
                        field("petal_bw", &Daisy::petal_bw_Bps, net::kBandwidth),
                        field("up_bw", &Daisy::dslam_up_bw_Bps, net::kBandwidth),
                        field("lastmile_min", &Daisy::last_mile_min_Bps, net::kBandwidth),
                        field("lastmile_max", &Daisy::last_mile_max_Bps, net::kBandwidth),
                        field("router_lat", &Daisy::router_latency, net::kLatency),
                        field("lastmile_lat", &Daisy::last_mile_latency, net::kLatency)}},
      Generator<Fed>{"federation",
                     {},
                     {field("clusters", &Fed::clusters, kCount),
                      field("hosts", &Fed::hosts_per_cluster, kCount),
                      field("speeds", &Fed::site_speeds_hz, SpeedList{}),
                      field("nic_bw", &Fed::nic_bw_Bps, net::kBandwidth),
                      field("nic_lat", &Fed::nic_latency, net::kLatency),
                      field("wan_bw", &Fed::wan_bw_Bps, net::kBandwidth),
                      field("wan_lat", &Fed::wan_latency, net::kLatency)}},
      Generator<Wan>{"wan",
                     {},
                     {field("hosts", &Wan::hosts, kCount),
                      field("routers", &Wan::routers, kCount),
                      field("extra_links", &Wan::extra_links, kCount),
                      field("speed_min", &Wan::speed_min_hz, net::kSpeed),
                      field("speed_max", &Wan::speed_max_hz, net::kSpeed),
                      field("access_min", &Wan::access_bw_min_Bps, net::kBandwidth),
                      field("access_max", &Wan::access_bw_max_Bps, net::kBandwidth),
                      field("access_lat", &Wan::access_latency, net::kLatency),
                      field("core_bw", &Wan::core_bw_Bps, net::kBandwidth),
                      field("core_lat_min", &Wan::core_lat_min, net::kLatency),
                      field("core_lat_max", &Wan::core_lat_max, net::kLatency)}},
      Generator<Ba>{"scale_free",
                    {.hosts = 0},  // auto-size to the run's peer count
                    {field("hosts", &Ba::hosts, kCount),
                     field("routers", &Ba::routers, kCount),
                     field("m", &Ba::m, kCount),
                     field("speed", &Ba::host_speed_hz, net::kSpeed),
                     field("access_bw", &Ba::access_bw_Bps, net::kBandwidth),
                     field("access_lat", &Ba::access_latency, net::kLatency),
                     field("core_bw", &Ba::core_bw_Bps, net::kBandwidth),
                     field("core_lat", &Ba::core_latency, net::kLatency),
                     field("ip", &Ba::base_ip, Ip{})}},
      Generator<Ws>{"small_world",
                    {.hosts = 0},  // auto-size to the run's peer count
                    {field("hosts", &Ws::hosts, kCount),
                     field("routers", &Ws::routers, kCount),
                     field("k", &Ws::k, kCount),
                     field("beta", &Ws::beta, keys::Real{.min = 0, .max = 1}),
                     field("speed", &Ws::host_speed_hz, net::kSpeed),
                     field("access_bw", &Ws::access_bw_Bps, net::kBandwidth),
                     field("access_lat", &Ws::access_latency, net::kLatency),
                     field("core_bw", &Ws::core_bw_Bps, net::kBandwidth),
                     field("core_lat", &Ws::core_latency, net::kLatency),
                     field("ip", &Ws::base_ip, Ip{})}},
  };
  return all;
}

template <class T>
const Generator<T>& generator() {
  return std::get<Generator<T>>(generators());
}

template <class T>
PlatformSpec generator_defaults() {
  const Generator<T>& g = generator<T>();
  return PlatformSpec{g.kind, g.fresh};
}

/// Parses the key=value parameters of the generator named `kind` into
/// `out`; false when no generator has that name.
bool parse_generator(std::string_view kind, std::span<const std::string> params,
                     PlatformSpec& out) {
  auto try_one = [&](const auto& g) {
    if (kind != g.kind) return false;
    auto spec = g.fresh;
    for (const auto& [key, value] : keys::split_pairs(params)) {
      if (key == "label")
        out.label = value;
      else
        keys::row(g.rows, key, "platform key").parse(spec, std::span(&value, 1));
    }
    out.spec = std::move(spec);
    return true;
  };
  return std::apply([&](const auto&... g) { return (try_one(g) || ...); }, generators());
}

}  // namespace

PlatformSpec parse_platform_tokens(const std::vector<std::string>& tok, int line) {
  const std::string& kind = tok[1];
  if (tok.size() == 2)
    if (auto preset = PlatformSpec::preset(kind)) return *preset;
  if (kind == "file") {
    if (tok.size() != 3) throw ScenarioError(line, "expected: platform file <path>");
    return PlatformSpec::from_file(tok[2]);
  }
  PlatformSpec out;
  out.label = kind;
  try {
    if (!parse_generator(kind, std::span(tok).subspan(2), out))
      throw ScenarioError(line, "unknown platform kind '" + kind + "'");
  } catch (const std::invalid_argument& e) {
    throw ScenarioError(line, e.what());
  }
  return out;
}

std::string render_platform_line(const PlatformSpec& p) {
  return std::visit(
      [&p](const auto& spec) -> std::string {
        using T = std::decay_t<decltype(spec)>;
        if constexpr (std::is_same_v<T, PlatformFileSpec>) {
          throw std::invalid_argument("platform-file specs have no one-line form");
        } else {
          const Generator<T>& g = generator<T>();
          std::string out = std::string("platform ") + g.kind + " label=" + p.label;
          keys::render(out, g.rows, spec, " ", '=', "");
          return out;
        }
      },
      p.spec);
}

const char* PlatformSpec::kind() const {
  return std::visit(
      [](const auto& s) -> const char* {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, PlatformFileSpec>)
          return "file";
        else
          return generator<T>().kind;
      },
      spec);
}

PlatformSpec PlatformSpec::grid5000() {
  net::StarSpec s = net::bordeplage_cluster_spec(0);  // hosts auto-sized at deploy
  return PlatformSpec{"grid5000", s};
}

PlatformSpec PlatformSpec::lan() {
  net::StarSpec s = net::lan_spec(0);
  return PlatformSpec{"lan", s};
}

PlatformSpec PlatformSpec::xdsl() { return PlatformSpec{"xdsl", net::DaisySpec{}}; }

PlatformSpec PlatformSpec::federation() { return generator_defaults<net::FederationSpec>(); }

PlatformSpec PlatformSpec::wan() { return generator_defaults<net::WanSpec>(); }

PlatformSpec PlatformSpec::scale_free() { return generator_defaults<net::ScaleFreeSpec>(); }

PlatformSpec PlatformSpec::small_world() { return generator_defaults<net::SmallWorldSpec>(); }

std::optional<PlatformSpec> PlatformSpec::preset(std::string_view name) {
  for (auto make : {&grid5000, &lan, &xdsl, &federation, &wan, &scale_free, &small_world})
    if (PlatformSpec p = make(); p.label == name) return p;
  return std::nullopt;
}

PlatformSpec PlatformSpec::from_file(std::string path) {
  return PlatformSpec{"file:" + path, PlatformFileSpec{std::move(path), ""}};
}

PlatformSpec PlatformSpec::from_text(std::string platfile_text) {
  return PlatformSpec{"inline", PlatformFileSpec{"", std::move(platfile_text)}};
}

const char* mode_name(Mode m) { return kModes.name(m); }

RunSpec RunSpec::from_env() {
  RunSpec s;
  if (env_flag("PDC_QUICK")) {
    s.grid_n = 258;
    s.iters = 100;
  }
  return s;
}

void parse_run_value(RunSpec& run, std::string_view key, const std::string& value,
                     int line) {
  const std::span<const std::string> values(&value, 1);
  try {
    if (key.starts_with("churn "))
      keys::row(churn::churn_rows(), key.substr(6), "churn key").parse(run.churn, values);
    else
      keys::row(run_rows(), key, "keyword").parse(run, values);
  } catch (const std::invalid_argument& e) {
    throw ScenarioError(line, e.what());
  }
}

std::string render_run_value(const RunSpec& run, std::string_view key) {
  if (key.starts_with("churn "))
    return keys::row(churn::churn_rows(), key.substr(6), "churn key").render(run.churn);
  return keys::row(run_rows(), key, "keyword").render(run);
}

ScenarioSpec parse_scenario(const std::string& text, const RunSpec& base) {
  ScenarioSpec spec;
  spec.run = base;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = keys::tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];
    if (kw == "scenario") {
      if (tok.size() != 2) throw ScenarioError(lineno, "expected: scenario <name>");
      spec.name = tok[1];
    } else if (kw == "platform") {
      if (tok.size() < 2) throw ScenarioError(lineno, "expected: platform <kind> ...");
      if (tok[1] == "inline") {
        // Raw platfile lines until a lone `end`.
        std::string body;
        const int start = lineno;
        bool closed = false;
        while (std::getline(in, line)) {
          ++lineno;
          const auto inner = keys::tokenize(line);
          if (inner.size() == 1 && inner[0] == "end") {
            closed = true;
            break;
          }
          body += line;
          body += '\n';
        }
        if (!closed) throw ScenarioError(start, "'platform inline' without closing 'end'");
        spec.platform = PlatformSpec::from_text(std::move(body));
      } else {
        spec.platform = parse_platform_tokens(tok, lineno);
      }
    } else {
      try {
        if (kw == "churn")
          churn::parse_churn_tokens(tok, spec.run.churn);
        else
          keys::row(run_rows(), kw, "keyword").parse(spec.run, std::span(tok).subspan(1));
      } catch (const std::invalid_argument& e) {
        throw ScenarioError(lineno, e.what());
      }
    }
  }
  return spec;
}

std::string render_scenario(const ScenarioSpec& spec) {
  std::string out = "scenario " + spec.name + "\n";
  if (const auto* f = std::get_if<PlatformFileSpec>(&spec.platform.spec)) {
    if (!f->path.empty()) {
      out += "platform file " + f->path + "\n";
    } else {
      out += "platform inline\n" + f->text;
      if (!f->text.empty() && f->text.back() != '\n') out += "\n";
      out += "end\n";
    }
  } else {
    out += render_platform_line(spec.platform) + "\n";
  }
  keys::render(out, run_rows(), spec.run, "", ' ', "\n");
  // Empty for a default ChurnSpec: churn-free scenarios keep the exact text
  // form they had before churn existed (stable campaign resume identities).
  out += churn::render_churn_lines(spec.run.churn);
  return out;
}

}  // namespace pdc::scenario
