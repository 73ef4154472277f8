// Churn & fault-injection descriptions: *what* volatility a run is subjected
// to, as plain sweepable data. A ChurnSpec combines an explicit event list
// (crash this peer at t=40) with a generative model (exponential peer
// lifetimes and downtimes, Poisson link degradations) that expands — purely
// and deterministically from the seed — into the same kind of timeline.
//
// The expansion is independent of the platform and of execution order, so
// the reference execution and the dPerf prediction of one scenario replay
// the *identical* event stream, and a campaign at -j8 records exactly what
// it records at -j1.
//
// Text form (lines inside a scenario/campaign spec; see examples/README.md):
//
//   churn rate <crashes/s/peer>       churn downtime <s>
//   churn link_rate <events/s>        churn link_scale <x>   churn link_time <s>
//   churn horizon <s>                 churn seed <n>         churn attempts <n>
//   churn event crash-peer at=<s> [peer=<i>]
//   churn event join at=<s>
//   churn event crash-tracker at=<s> [tracker=<i>]
//   churn event degrade at=<s> [link=<i>] [scale=<x>]
//   churn event restore at=<s> [link=<i>]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/spec_keys.hpp"
#include "support/time.hpp"

namespace pdc::churn {

/// One scheduled fault event. Times are simulated seconds relative to the
/// moment the injector arms (deployment finished, warmup not yet begun).
struct ChurnEvent {
  enum class Kind { PeerCrash, PeerJoin, TrackerCrash, LinkDegrade, LinkRestore };

  Kind kind = Kind::PeerCrash;
  Time at = 0;
  /// Worker index (PeerCrash), crashable-tracker index (TrackerCrash; 0 is
  /// the deployment's primary tracker, then the churn failover trackers) or
  /// link index (LinkDegrade/LinkRestore); -1 picks seeded at injection.
  int target = -1;
  double scale = 1.0;  // LinkDegrade capacity factor (1.0 for other kinds)

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// Aggregate counters the injector reports into the RunRecord.
struct ChurnStats {
  int events_applied = 0;
  int events_skipped = 0;  // no alive target / no spare host / last tracker
  int peer_crashes = 0;
  int peer_joins = 0;
  int tracker_crashes = 0;
  int link_degrades = 0;
  int link_restores = 0;
};

/// The sweepable churn description attached to a RunSpec.
struct ChurnSpec {
  std::vector<ChurnEvent> events;  // explicit timeline, in listing order

  // Generative model, active when a rate is > 0. Peer churn: each worker
  // draws an exponential lifetime; if it falls inside the horizon the peer
  // crashes then, and a replacement joins after an exponential downtime.
  double peer_crash_rate = 0;  // crashes per second per worker
  double mean_downtime = 30;   // mean crash -> replacement-join delay

  // Link churn: a Poisson process of degradations across the platform; each
  // degraded link is restored after an exponential hold time.
  double link_degrade_rate = 0;  // degradations per second, platform-wide
  double link_degrade_scale = 0.5;
  double mean_degrade_time = 60;

  Time horizon = 300;      // model events are sampled in [0, horizon)
  std::uint64_t seed = 0;  // 0: derive the stream from the run seed
  int max_attempts = 3;    // submissions before the run records an error

  /// True when this spec injects anything at all.
  bool enabled() const {
    return !events.empty() || peer_crash_rate > 0 || link_degrade_rate > 0;
  }

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Expands spec into the concrete, time-sorted event stream for a run with
/// `peers` workers. Pure function of (spec, peers, run_seed): the reference
/// and prediction phases, and every -j level, see the same timeline.
std::vector<ChurnEvent> expand_events(const ChurnSpec& spec, int peers,
                                      std::uint64_t run_seed);

/// The seed the injector's own tie-break draws use (target=-1 picks).
std::uint64_t injection_seed(const ChurnSpec& spec, std::uint64_t run_seed);

// --- text format ------------------------------------------------------------
// The scenario/campaign parsers own file/line handling; these helpers take
// one tokenized `churn ...` line and throw std::invalid_argument on errors
// (wrapped into ScenarioError by the caller).

/// The scalar `churn <key> <value>` keywords, in render order (the
/// campaign's churn sweep axes reach them through scenario::parse_run_value).
const std::vector<keys::Row<ChurnSpec>>& churn_rows();

/// Applies one `churn <key> ...` line (tokens[0] == "churn") to `spec`.
void parse_churn_tokens(const std::vector<std::string>& tokens, ChurnSpec& spec);

/// Renders `spec` as `churn ...` lines (newline-terminated); empty for a
/// default-constructed spec so churn-free scenarios keep their exact
/// pre-churn text form. parse(render(s)) == s.
std::string render_churn_lines(const ChurnSpec& spec);

}  // namespace pdc::churn
