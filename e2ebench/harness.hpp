// Helpers of the end-to-end prediction benchmark that are pure functions of
// their inputs, kept apart from the workload runner (main.cpp) so the
// benchmark's own tests (harness_test.cpp) can check them:
//
//   - tail percentiles that keep at least ten samples beyond them;
//   - the seeded request generators (cold specs, the warm what-if mix, the
//     campaign grid) — the program under test only ever sees their text;
//   - hit/miss classification of what-if answers;
//   - in-memory spans with self-time and coverage accounting;
//   - the digest of a record's simulated-time fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------- statistics

double median(std::vector<double> samples);

/// A high percentile that still has `min_beyond` samples above it.
struct Tail {
  double p = 0;            // the percentile actually used, in [0, 1]
  double value = 0;        // its nearest-rank sample
  std::size_t beyond = 0;  // samples strictly after it in sorted order
};

/// Nearest-rank percentile `target` (0.99 = p99), lowered until at least
/// `min_beyond` samples sort after it. With too few samples for any such
/// percentile it returns the maximum with `beyond` = 0.
Tail tail_percentile(std::vector<double> samples, double target = 0.99,
                     std::size_t min_beyond = 10);

// ------------------------------------------------------------ request texts

/// Quick-class obstacle sizing pinned by every generated spec.
inline constexpr const char* kQuickSizing = "grid 258\niters 100\nrcheck 4\nbench 66 9 3\n";
/// The paper's sizing (the RunSpec defaults), pinned the same way.
inline constexpr const char* kPaperSizing = "grid 1538\niters 428\nrcheck 4\nbench 66 9 3\n";

/// `omega <x>` line that salts a workload's trace-memo key. The relaxation
/// factor is part of the memo key but does not change how much work a
/// trace costs, so distinct salts give equally expensive, distinct keys.
std::string omega_line(double omega);

/// The three cold requests: grid5000.scn (O3, 4 ranks, mode both),
/// analytic.scn (lan, O0, both-analytic) and a 32-rank O3 `mode predict`
/// request. `paper` selects the paper sizing for the first two (the third
/// is always quick-class); `omega` salts all three keys.
std::vector<std::string> cold_specs(bool paper, double omega);

/// The warm workload keys the what-if stream asks about: opt {0,3} x
/// ranks {4,32} at quick sizing, salted by `omega`.
struct HotKey {
  int opt = 0;
  int ranks = 4;
};
std::vector<HotKey> hot_keys();

/// Pre-warm spec of one hot key (mode predict on lan).
std::string hot_key_spec(const HotKey& key, double omega);

enum class WhatIfClass { Predict, Analytic, Churn, Repeat };
const char* class_name(WhatIfClass c);

struct WhatIf {
  WhatIfClass cls = WhatIfClass::Predict;
  /// Index of the request whose text this one repeats (its own index when
  /// fresh). A repeat always names a fresh request kRepeatLag to kRepeatLag
  /// + kRepeatWindow - 1 requests back.
  std::size_t original = 0;
  std::string text;
};

inline constexpr std::size_t kRepeatLag = 32;
inline constexpr std::size_t kRepeatWindow = 256;

/// Request `index` of the what-if stream: a pure function of (seed, index,
/// salts). Fresh requests are new platform points (xdsl, wan, 10^4-peer
/// lazy scale_free / small_world) x scheme x alloc x run seed over one of
/// the hot keys, asked in `mode predict` or `mode analytic`, or a 32-rank
/// predict under generative churn; about one request in four repeats an
/// earlier fresh text verbatim. `salts` are the omega values of the hot
/// key sets the set-up pre-warmed.
WhatIf whatif_request(std::uint64_t seed, std::size_t index, const std::vector<double>& salts);

/// A fixed (seed-independent) set of both / both-analytic checks over the
/// hot keys: their records carry the prediction and analytic errors.
std::vector<std::string> whatif_check_specs(double omega);

/// Outcome of one answered what-if request, judged against the mix.
enum class Verdict { Ok, ExpectedHit, ExpectedMiss };
/// A repeat must come back `hit`, a fresh request `miss`.
Verdict classify(const WhatIf& req, const std::string& tag);

/// The campaign grid: quick-class `mode both`, platform variants {lan, xdsl,
/// wan} x peers {4,32} x opt {0,3} x scheme {sync,async} x alloc
/// {hierarchical, flat} x churn_rate {0, 0.004} (96 runs), seeded by `seed`
/// and salted by `omega`.
std::string campaign_text(std::uint64_t seed, double omega);

// ------------------------------------------------------------------- spans

/// A host-clock span: name, start and end in seconds since the tracer
/// began, and the index of the span that encloses it (-1 for a root).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Share of span `root`'s interval covered by the descendants of `root`
/// whose names contain a '.' (the layer spans; structural spans such as
/// "phase" or "request" have none).
double layer_coverage(const std::vector<Span>& spans, int root);

// ------------------------------------------------------------------ digest

/// FNV-1a 64-bit.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 0xcbf29ce484222325ULL);

/// The simulated-time fields of a RunRecord JSON document — per phase
/// solve_seconds and total_seconds, in phase order — as one text line.
/// Throws when the document does not parse.
std::string simulated_fields(const std::string& record_json);

}  // namespace e2e
