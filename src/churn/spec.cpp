#include "churn/spec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace pdc::churn {

namespace {

/// Independent per-purpose stream: SplitMix64 decorrelates even adjacent
/// seeds, so mixing a purpose constant is enough for disjoint streams.
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng{seed ^ (0x9E3779B97F4A7C15ULL * (purpose + 1))};
}

/// Inverse-CDF exponential draw with the given rate (events per second).
double exponential(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate;
}

// Churn values are finite: `horizon inf` would make model expansion
// unbounded and `at=nan` would break the engine's event ordering.
const keys::Real kNonNegative{.min = 0};
const keys::Real kScale{.min = 0, .max = 1, .above_min = true};

constexpr std::pair<ChurnEvent::Kind, const char*> kEventKindNames[] = {
    {ChurnEvent::Kind::PeerCrash, "crash-peer"},
    {ChurnEvent::Kind::PeerJoin, "join"},
    {ChurnEvent::Kind::TrackerCrash, "crash-tracker"},
    {ChurnEvent::Kind::LinkDegrade, "degrade"},
    {ChurnEvent::Kind::LinkRestore, "restore"},
};
const keys::Names<ChurnEvent::Kind> kEventKinds{kEventKindNames};

/// The key naming an event's target, or nullptr for kinds without one.
const char* target_key(ChurnEvent::Kind k) {
  switch (k) {
    case ChurnEvent::Kind::PeerCrash: return "peer";
    case ChurnEvent::Kind::PeerJoin: return nullptr;
    case ChurnEvent::Kind::TrackerCrash: return "tracker";
    case ChurnEvent::Kind::LinkDegrade:
    case ChurnEvent::Kind::LinkRestore: return "link";
  }
  return nullptr;
}

ChurnEvent parse_event(const std::vector<std::string>& tok) {
  if (tok.size() < 3) throw std::invalid_argument("expected: churn event <kind> at=<s> ...");
  ChurnEvent ev;
  ev.kind = kEventKinds.parse(tok[2], "churn event kind");
  const char* target = target_key(ev.kind);
  const bool with_scale = ev.kind == ChurnEvent::Kind::LinkDegrade;
  if (with_scale) ev.scale = 0.5;  // halve by default, like ChurnSpec::link_degrade_scale
  bool saw_at = false;
  for (const auto& [key, value] : keys::split_pairs(std::span(tok).subspan(3))) {
    if (key == "at") {
      ev.at = kNonNegative.parse(value, "churn event time");
      saw_at = true;
    } else if (target != nullptr && key == target) {
      ev.target = keys::Int{.min = 0}.parse(value, "churn event target");
    } else if (with_scale && key == "scale") {
      ev.scale = kScale.parse(value, "churn degrade scale");
    } else {
      throw std::invalid_argument("unknown churn event key '" + key + "' for '" + tok[2] +
                                  "'");
    }
  }
  if (!saw_at) throw std::invalid_argument("churn event needs at=<seconds>");
  return ev;
}

std::string render_event(const ChurnEvent& ev) {
  std::string out = "churn event ";
  out += kEventKinds.name(ev.kind);
  out += " at=" + format_shortest(ev.at);
  if (const char* key = target_key(ev.kind); key != nullptr && ev.target >= 0)
    out += std::string(" ") + key + "=" + std::to_string(ev.target);
  if (ev.kind == ChurnEvent::Kind::LinkDegrade) out += " scale=" + format_shortest(ev.scale);
  return out;
}

}  // namespace

const std::vector<keys::Row<ChurnSpec>>& churn_rows() {
  using keys::field;
  static const std::vector<keys::Row<ChurnSpec>> rows = {
      field("rate", &ChurnSpec::peer_crash_rate, kNonNegative),
      field("downtime", &ChurnSpec::mean_downtime, kNonNegative),
      field("link_rate", &ChurnSpec::link_degrade_rate, kNonNegative),
      field("link_scale", &ChurnSpec::link_degrade_scale, kScale),
      field("link_time", &ChurnSpec::mean_degrade_time, kNonNegative),
      field("horizon", &ChurnSpec::horizon, kNonNegative),
      field("seed", &ChurnSpec::seed, keys::U64{}),
      field("attempts", &ChurnSpec::max_attempts, keys::Int{.min = 1}),
  };
  return rows;
}

std::uint64_t injection_seed(const ChurnSpec& spec, std::uint64_t run_seed) {
  return (spec.seed != 0 ? spec.seed : run_seed) ^ 0xC45C3A1EULL;
}

std::vector<ChurnEvent> expand_events(const ChurnSpec& spec, int peers,
                                      std::uint64_t run_seed) {
  std::vector<ChurnEvent> out = spec.events;
  const std::uint64_t seed = spec.seed != 0 ? spec.seed : run_seed;

  if (spec.peer_crash_rate > 0) {
    // One independent stream per worker slot: the timeline of worker i does
    // not shift when `peers` (or any other axis) changes.
    for (int i = 0; i < peers; ++i) {
      Rng rng = stream(seed, 0x100 + static_cast<std::uint64_t>(i));
      const double lifetime = exponential(rng, spec.peer_crash_rate);
      if (lifetime >= spec.horizon) continue;
      out.push_back({ChurnEvent::Kind::PeerCrash, lifetime, i, 1.0});
      if (spec.mean_downtime > 0) {
        const double downtime = exponential(rng, 1.0 / spec.mean_downtime);
        out.push_back({ChurnEvent::Kind::PeerJoin, lifetime + downtime, -1, 1.0});
      }
    }
  }

  if (spec.link_degrade_rate > 0) {
    Rng rng = stream(seed, 0x200);
    for (double t = exponential(rng, spec.link_degrade_rate); t < spec.horizon;
         t += exponential(rng, spec.link_degrade_rate)) {
      out.push_back({ChurnEvent::Kind::LinkDegrade, t, -1, spec.link_degrade_scale});
      if (spec.mean_degrade_time > 0) {
        const double hold = exponential(rng, 1.0 / spec.mean_degrade_time);
        out.push_back({ChurnEvent::Kind::LinkRestore, t + hold, -1, 1.0});
      }
    }
  }

  // Time order; explicit listing order breaks ties (stable sort).
  std::stable_sort(out.begin(), out.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) { return a.at < b.at; });
  return out;
}

void parse_churn_tokens(const std::vector<std::string>& tok, ChurnSpec& spec) {
  if (tok.size() < 2) throw std::invalid_argument("expected: churn <key> <value ...>");
  if (tok[1] == "event") {
    spec.events.push_back(parse_event(tok));
    return;
  }
  const auto& row = keys::row(churn_rows(), tok[1], "churn key");
  if (tok.size() != 3) throw std::invalid_argument("expected: churn " + tok[1] + " <value>");
  try {
    row.parse(spec, std::span(tok).subspan(2));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("churn: ") + e.what());
  }
}

std::string render_churn_lines(const ChurnSpec& spec) {
  if (spec == ChurnSpec{}) return "";
  std::string out;
  keys::render(out, churn_rows(), spec, "churn ", ' ', "\n");
  for (const ChurnEvent& ev : spec.events) out += render_event(ev) + "\n";
  return out;
}

}  // namespace pdc::churn
