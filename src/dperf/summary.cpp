#include "dperf/summary.hpp"

#include <algorithm>
#include <span>

namespace pdc::dperf {

TraceSummary summarize_trace(const Trace& trace) {
  TraceSummary s;
  const auto is_mark = [](const TraceEvent& e) { return e.kind == TraceEvent::Kind::IterMark; };
  const auto end = trace.events.end();
  std::span<const TraceEvent> prev, steady;
  std::uint64_t run = 0, longest = 0;
  for (auto it = trace.events.begin(); it != end; ++it) {
    if (it->kind == TraceEvent::Kind::Allreduce) ++s.collectives;
    if (!is_mark(*it)) continue;
    const std::span<const TraceEvent> body(it + 1, std::find_if(it + 1, end, is_mark));
    run = run > 0 && std::ranges::equal(body, prev) ? run + 1 : 1;
    if (run > longest) {
      longest = run;
      steady = body;
    }
    prev = body;
  }
  for (const TraceEvent& e : steady)
    if (e.kind == TraceEvent::Kind::Send) s.steady_sends.push_back(e.peer);
  return s;
}

}  // namespace pdc::dperf
