#include "dperf/trace.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace pdc::dperf {

std::uint64_t Trace::total_compute_ns() const {
  std::uint64_t total = 0;
  for (const auto& e : events)
    if (e.kind == TraceEvent::Kind::Compute) total += e.ns;
  return total;
}

std::size_t Trace::count(TraceEvent::Kind kind) const {
  std::size_t n = 0;
  for (const auto& e : events) n += e.kind == kind ? 1 : 0;
  return n;
}

std::string save_trace(const Trace& t) {
  std::ostringstream out;
  out << "dperf-trace v1\n";
  out << "proc " << t.rank << " of " << t.nprocs << " hz " << t.host_hz << "\n";
  char buf[128];
  for (const auto& e : t.events) {
    switch (e.kind) {
      case TraceEvent::Kind::Compute:
        out << "compute " << e.ns << "\n";
        break;
      case TraceEvent::Kind::Send:
        std::snprintf(buf, sizeof buf, "send %d %.17g tag %d\n", e.peer, e.bytes, e.tag);
        out << buf;
        break;
      case TraceEvent::Kind::Recv:
        out << "recv " << e.peer << " tag " << e.tag << "\n";
        break;
      case TraceEvent::Kind::Allreduce:
        out << "allreduce\n";
        break;
      case TraceEvent::Kind::IterMark:
        out << "iter " << e.iter_id << "\n";
        break;
    }
  }
  out << "end\n";
  return out.str();
}

Trace load_trace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  Trace t;
  auto fail = [](const std::string& msg) -> std::runtime_error {
    return std::runtime_error("trace parse error: " + msg);
  };
  if (!std::getline(in, line) || line != "dperf-trace v1")
    throw fail("bad header '" + line + "'");
  if (!std::getline(in, line)) throw fail("missing proc line");
  {
    std::istringstream ls(line);
    std::string kw, of, hz;
    ls >> kw >> t.rank >> of >> t.nprocs >> hz >> t.host_hz;
    if (kw != "proc" || of != "of" || hz != "hz" || ls.fail())
      throw fail("bad proc line '" + line + "'");
    std::string extra;
    if (ls >> extra) throw fail("trailing tokens on proc line '" + line + "'");
    if (t.nprocs <= 0)
      throw fail("proc line has nprocs " + std::to_string(t.nprocs) +
                 ", expected nprocs > 0");
    if (t.rank < 0 || t.rank >= t.nprocs)
      throw fail("proc line has rank " + std::to_string(t.rank) +
                 " outside [0, " + std::to_string(t.nprocs) + ")");
    if (!(t.host_hz > 0))
      throw fail("proc line has hz " + std::to_string(t.host_hz) +
                 ", expected hz > 0");
  }
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    TraceEvent e;
    if (kw == "compute") {
      e.kind = TraceEvent::Kind::Compute;
      // Unsigned extraction wraps a leading minus sign instead of failing.
      if ((ls >> std::ws).peek() == '-') throw fail("negative compute time '" + line + "'");
      ls >> e.ns;
    } else if (kw == "send") {
      e.kind = TraceEvent::Kind::Send;
      std::string tag;
      ls >> e.peer >> e.bytes >> tag >> e.tag;
      if (tag != "tag") throw fail("bad send line '" + line + "'");
    } else if (kw == "recv") {
      e.kind = TraceEvent::Kind::Recv;
      std::string tag;
      ls >> e.peer >> tag >> e.tag;
      if (tag != "tag") throw fail("bad recv line '" + line + "'");
    } else if (kw == "allreduce") {
      e.kind = TraceEvent::Kind::Allreduce;
    } else if (kw == "iter") {
      e.kind = TraceEvent::Kind::IterMark;
      ls >> e.iter_id;
    } else if (kw == "end") {
      ended = true;
      break;
    } else {
      throw fail("unknown record '" + kw + "'");
    }
    if (ls.fail()) throw fail("malformed record '" + line + "'");
    std::string extra;
    if (ls >> extra) throw fail("trailing tokens on record '" + line + "'");
    if (e.kind == TraceEvent::Kind::Send && !(e.bytes >= 0))
      throw fail("record '" + line + "' has a negative byte count");
    if ((e.kind == TraceEvent::Kind::Send || e.kind == TraceEvent::Kind::Recv) &&
        (e.peer < 0 || e.peer >= t.nprocs))
      throw fail("record '" + line + "' has peer " + std::to_string(e.peer) +
                 " outside [0, " + std::to_string(t.nprocs) + ")");
    t.events.push_back(e);
  }
  if (!ended) throw fail("missing end marker");
  return t;
}

Trace extrapolate(const Trace& sampled, int sample_iters, int target_iters, int chunk) {
  // All precondition failures name the trace rank and echo the offending
  // values, so a caller iterating many ranks can tell which one failed.
  auto where = [&sampled, sample_iters, target_iters, chunk] {
    return " (rank " + std::to_string(sampled.rank) + ", sample " +
           std::to_string(sample_iters) + ", target " + std::to_string(target_iters) +
           ", chunk " + std::to_string(chunk) + ")";
  };
  if (sample_iters <= 0)
    throw std::runtime_error("extrapolate: need sample_iters > 0" + where());
  if (target_iters == sample_iters) return sampled;
  if (chunk <= 0 || sample_iters < 3 * chunk)
    throw std::runtime_error("extrapolate: need chunk > 0 and sample_iters >= 3*chunk" +
                             where());
  if (target_iters < sample_iters || (target_iters - sample_iters) % chunk != 0)
    throw std::runtime_error("extrapolate: target must be sample + k*chunk" + where());

  // Locate iteration markers.
  std::vector<std::size_t> marker_pos;
  for (std::size_t i = 0; i < sampled.events.size(); ++i)
    if (sampled.events[i].kind == TraceEvent::Kind::IterMark) marker_pos.push_back(i);
  if (static_cast<int>(marker_pos.size()) != sample_iters)
    throw std::runtime_error("extrapolate: trace has " + std::to_string(marker_pos.size()) +
                             " iteration marks, expected " + std::to_string(sample_iters) +
                             where());

  // Steady chunk: the `chunk` iterations ending one chunk before the end,
  // i.e. events [marker[S-2c], marker[S-c]).
  const auto s = static_cast<std::size_t>(sample_iters);
  const auto c = static_cast<std::size_t>(chunk);
  const std::size_t from = marker_pos[s - 2 * c];
  const std::size_t to = marker_pos[s - c];

  Trace out;
  out.rank = sampled.rank;
  out.nprocs = sampled.nprocs;
  out.host_hz = sampled.host_hz;
  out.events.reserve(sampled.events.size() +
                     (to - from) * static_cast<std::size_t>((target_iters - sample_iters) / chunk));
  // Prefix (up to the steady chunk), then the replicated chunks, then the
  // measured remainder (steady chunk + tail + post-loop events).
  out.events.insert(out.events.end(), sampled.events.begin(),
                    sampled.events.begin() + static_cast<std::ptrdiff_t>(from));
  const int copies = (target_iters - sample_iters) / chunk;
  for (int k = 0; k < copies; ++k)
    out.events.insert(out.events.end(),
                      sampled.events.begin() + static_cast<std::ptrdiff_t>(from),
                      sampled.events.begin() + static_cast<std::ptrdiff_t>(to));
  out.events.insert(out.events.end(),
                    sampled.events.begin() + static_cast<std::ptrdiff_t>(from),
                    sampled.events.end());
  return out;
}

}  // namespace pdc::dperf
