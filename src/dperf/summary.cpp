#include "dperf/summary.hpp"

namespace pdc::dperf {

TraceSummary summarize_trace(const Trace& trace) {
  TraceSummary s;
  s.rank = trace.rank;
  s.nprocs = trace.nprocs;
  s.host_hz = trace.host_hz;
  s.collectives = trace.count(TraceEvent::Kind::Allreduce);

  // Marker positions partition the event stream.
  std::vector<std::size_t> markers;
  for (std::size_t i = 0; i < trace.events.size(); ++i)
    if (trace.events[i].kind == TraceEvent::Kind::IterMark) markers.push_back(i);

  const auto body = [&trace](std::size_t from, std::size_t to) {
    std::vector<TraceEvent> ops;
    ops.reserve(to - from);
    for (std::size_t i = from; i < to; ++i)
      if (trace.events[i].kind != TraceEvent::Kind::IterMark)
        ops.push_back(trace.events[i]);
    return ops;
  };

  const std::size_t first = markers.empty() ? trace.events.size() : markers.front();
  s.pre = body(0, first);

  for (std::size_t m = 0; m < markers.size(); ++m) {
    const std::size_t from = markers[m];
    const std::size_t to = m + 1 < markers.size() ? markers[m + 1] : trace.events.size();
    std::vector<TraceEvent> ops = body(from, to);
    if (!s.blocks.empty() && s.blocks.back().ops == ops)
      ++s.blocks.back().repeats;
    else
      s.blocks.push_back(IterBlock{std::move(ops), 1});
  }
  return s;
}

}  // namespace pdc::dperf
