// A small text format for platform descriptions, playing the role of the
// SimGrid platform files that dPerf feeds to the MSG module.
//
// Grammar (line oriented, '#' starts a comment):
//
//   host   <name> speed <num><GHz|MHz|Hz> ip <a.b.c.d>
//   router <name>
//   link   <name> bw <num><Gbps|Mbps|Kbps|bps> lat <num><s|ms|us|ns>
//   edge   <nodeA> <nodeB> <link>
//   route  <src> <dst> <hop> [<hop> ...]
//
// `route` installs an explicit symmetric route. Each <hop> is a link name:
// links that appear in `edge` lines must form a connected edge path from
// <src> to <dst> (hop directions are inferred from edge orientation, and a
// malformed path is a parse error); a link with no edges is a *fabric* link
// (e.g. the star builders' shared backbone, crossed by every route without
// being part of the node graph) and takes an optional direction suffix
// `<link>:fwd` / `<link>:rev` (default fwd).
#pragma once

#include <stdexcept>
#include <string>

#include "net/platform.hpp"
#include "support/spec_keys.hpp"

namespace pdc::net {

/// Error with 1-based line information.
class PlatFileError : public std::runtime_error {
 public:
  PlatFileError(int line, const std::string& what)
      : std::runtime_error("platform file line " + std::to_string(line) + ": " + what),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses a platform description from text. Throws PlatFileError.
Platform parse_platform(const std::string& text);

/// Serializes a Platform back to the text format: hosts, routers, links,
/// edges AND explicit routes, so parse(render(p)) reproduces node/link/edge
/// structure and routing. A symmetric route pair becomes one `route` line
/// (re-parsing reinstalls both directions); an asymmetric route installed
/// with set_route(..., symmetric=false) is emitted as its forward line and
/// becomes symmetric on re-parse (the grammar cannot express one-way routes).
std::string render_platform(const Platform& p);

/// Unit-suffixed value codecs shared with the scenario spec format; parse
/// throws std::invalid_argument on malformed input.
extern const keys::Unit kSpeed;      // "3GHz"   -> 3e9 Hz, renders "3e+09Hz"
extern const keys::Unit kBandwidth;  // "1Gbps"  -> 1.25e8 B/s, renders "1e+09bps"
extern const keys::Unit kLatency;    // "100us"  -> 1e-4 s, renders "0.0001s"

}  // namespace pdc::net
