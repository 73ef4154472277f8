#include "net/platfile.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "support/time.hpp"

namespace pdc::net {

namespace {

double parse_with_unit(const std::string& text, const keys::Unit& unit, int line,
                       const char* what) {
  try {
    return unit.parse(text, what);
  } catch (const std::invalid_argument& e) {
    throw PlatFileError(line, e.what());
  }
}

constexpr std::pair<const char*, double> kSpeedSuffixes[] = {
    {"GHz", 1e9}, {"MHz", 1e6}, {"Hz", 1.0}};
constexpr std::pair<const char*, double> kBandwidthSuffixes[] = {
    {"Gbps", 1e9 / 8}, {"Mbps", 1e6 / 8}, {"Kbps", 1e3 / 8}, {"bps", 1.0 / 8}};
constexpr std::pair<const char*, double> kLatencySuffixes[] = {
    {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1.0}};

}  // namespace

const keys::Unit kSpeed{kSpeedSuffixes};
const keys::Unit kBandwidth{kBandwidthSuffixes};
const keys::Unit kLatency{kLatencySuffixes};

Platform parse_platform(const std::string& text) {
  Platform p;
  std::map<std::string, NodeIdx> nodes;
  std::map<std::string, LinkIdx> links;

  auto need_node = [&](const std::string& name, int line) -> NodeIdx {
    auto it = nodes.find(name);
    if (it == nodes.end()) throw PlatFileError(line, "unknown node '" + name + "'");
    return it->second;
  };
  auto need_link = [&](const std::string& name, int line) -> LinkIdx {
    auto it = links.find(name);
    if (it == links.end()) throw PlatFileError(line, "unknown link '" + name + "'");
    return it->second;
  };

  // "hier" applies after all nodes and edges exist, wherever it appears.
  bool saw_hier = false;
  int hier_line = 0;
  std::string trunk_name;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tok = keys::tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];
    if (kw == "host") {
      if (tok.size() != 6 || tok[2] != "speed" || tok[4] != "ip")
        throw PlatFileError(lineno, "expected: host <name> speed <v> ip <addr>");
      if (nodes.count(tok[1])) throw PlatFileError(lineno, "duplicate node '" + tok[1] + "'");
      const double speed = parse_with_unit(tok[3], kSpeed, lineno, "speed");
      auto ip = Ipv4::parse(tok[5]);
      if (!ip) throw PlatFileError(lineno, "bad ip '" + tok[5] + "'");
      nodes[tok[1]] = p.add_host(tok[1], speed, *ip);
    } else if (kw == "router") {
      if (tok.size() != 2) throw PlatFileError(lineno, "expected: router <name>");
      if (nodes.count(tok[1])) throw PlatFileError(lineno, "duplicate node '" + tok[1] + "'");
      nodes[tok[1]] = p.add_router(tok[1]);
    } else if (kw == "link") {
      if (tok.size() != 6 || tok[2] != "bw" || tok[4] != "lat")
        throw PlatFileError(lineno, "expected: link <name> bw <v> lat <v>");
      if (links.count(tok[1])) throw PlatFileError(lineno, "duplicate link '" + tok[1] + "'");
      const double bw = parse_with_unit(tok[3], kBandwidth, lineno, "bandwidth");
      const double lat = parse_with_unit(tok[5], kLatency, lineno, "latency");
      links[tok[1]] = p.add_link(tok[1], bw, lat);
    } else if (kw == "edge") {
      if (tok.size() != 4) throw PlatFileError(lineno, "expected: edge <a> <b> <link>");
      p.connect(need_node(tok[1], lineno), need_node(tok[2], lineno), need_link(tok[3], lineno));
    } else if (kw == "route") {
      if (tok.size() < 4) throw PlatFileError(lineno, "expected: route <src> <dst> <links...>");
      const NodeIdx src = need_node(tok[1], lineno);
      const NodeIdx dst = need_node(tok[2], lineno);
      // Walk the listed links from src, inferring hop directions. Links
      // that participate in no edge are fabric links: they do not advance
      // the walk and take their direction from the :fwd/:rev suffix.
      std::vector<Hop> hops;
      NodeIdx at = src;
      for (std::size_t i = 3; i < tok.size(); ++i) {
        std::string name = tok[i];
        int annotated_dir = 0;
        if (const auto colon = name.rfind(':'); colon != std::string::npos) {
          const std::string suffix = name.substr(colon + 1);
          if (suffix == "fwd") annotated_dir = 0;
          else if (suffix == "rev") annotated_dir = 1;
          else throw PlatFileError(lineno, "bad hop direction ':" + suffix + "'");
          name.resize(colon);
        }
        const LinkIdx l = need_link(name, lineno);
        bool found = false;
        bool link_has_edge = false;
        for (int e = 0; e < p.edge_count() && !found; ++e) {
          const auto& edge = p.edge(e);
          if (edge.link != l) continue;
          link_has_edge = true;
          if (edge.a == at) {
            hops.push_back(Hop{l, 0});
            at = edge.b;
            found = true;
          } else if (edge.b == at) {
            hops.push_back(Hop{l, 1});
            at = edge.a;
            found = true;
          }
        }
        if (!found) {
          if (link_has_edge)
            throw PlatFileError(lineno, "link '" + name + "' does not continue the path");
          hops.push_back(Hop{l, annotated_dir});  // fabric link, stay in place
        }
      }
      if (at != dst) throw PlatFileError(lineno, "route does not end at '" + tok[2] + "'");
      p.set_route(src, dst, std::move(hops));
    } else if (kw == "hier") {
      if (tok.size() != 1 && !(tok.size() == 3 && tok[1] == "trunk"))
        throw PlatFileError(lineno, "expected: hier [trunk <link>]");
      saw_hier = true;
      hier_line = lineno;
      trunk_name = tok.size() == 3 ? tok[2] : "";
    } else {
      throw PlatFileError(lineno, "unknown keyword '" + kw + "'");
    }
  }
  if (saw_hier) {
    const LinkIdx trunk = trunk_name.empty() ? -1 : need_link(trunk_name, hier_line);
    if (!p.enable_hierarchical_routing(trunk))
      throw PlatFileError(hier_line,
                          "hier: every host needs exactly one uplink edge to a router");
  }
  return p;
}

std::string render_platform(const Platform& p) {
  std::ostringstream out;
  char buf[160];
  for (int n = 0; n < p.node_count(); ++n) {
    const NodeInfo& info = p.node(n);
    if (info.is_host) {
      std::snprintf(buf, sizeof buf, "host %s speed %.6gGHz ip %s\n", info.name.c_str(),
                    info.speed_hz / 1e9, info.ip.to_string().c_str());
      out << buf;
    } else {
      out << "router " << info.name << "\n";
    }
  }
  for (int l = 0; l < p.link_count(); ++l) {
    const Link& link = p.link(l);
    std::snprintf(buf, sizeof buf, "link %s bw %.6gMbps lat %.6gus\n", link.name.c_str(),
                  link.bandwidth_Bps * 8 / 1e6, link.latency / units::us);
    out << buf;
  }
  for (int e = 0; e < p.edge_count(); ++e) {
    const auto& edge = p.edge(e);
    out << "edge " << p.node(edge.a).name << " " << p.node(edge.b).name << " "
        << p.link(edge.link).name << "\n";
  }
  if (p.hierarchical_routing()) {
    out << "hier";
    if (p.trunk_link() >= 0) out << " trunk " << p.link(p.trunk_link()).name;
    out << "\n";
  }
  // Explicit routes. A symmetric pair (the common case: set_route installs
  // both directions) collapses to one line, skipping the mirrored entry.
  // Fabric links (no edge) carry an explicit :fwd/:rev direction since the
  // parser cannot infer one from the edge walk.
  std::vector<bool> link_has_edge(static_cast<std::size_t>(p.link_count()), false);
  for (int e = 0; e < p.edge_count(); ++e)
    link_has_edge[static_cast<std::size_t>(p.edge(e).link)] = true;
  const auto routes = p.explicit_route_list();
  auto mirror_of = [](const Route& r) {
    std::vector<Hop> rev;
    for (auto it = r.hops.rbegin(); it != r.hops.rend(); ++it)
      rev.push_back(Hop{it->link, 1 - it->dir});
    return rev;
  };
  std::map<std::pair<NodeIdx, NodeIdx>, const Route*> by_pair;
  for (const auto& er : routes) by_pair[{er.src, er.dst}] = er.route;
  for (const auto& er : routes) {
    if (er.src > er.dst) {
      // Emit the reverse direction only when it is not the mirror of an
      // already-emitted forward line.
      const auto fwd = by_pair.find({er.dst, er.src});
      if (fwd != by_pair.end() && fwd->second->hops == mirror_of(*er.route)) continue;
    }
    out << "route " << p.node(er.src).name << " " << p.node(er.dst).name;
    for (const Hop& h : er.route->hops) {
      out << " " << p.link(h.link).name;
      if (!link_has_edge[static_cast<std::size_t>(h.link)] && h.dir != 0) out << ":rev";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace pdc::net
