#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "support/json.hpp"

namespace e2e {

namespace {

/// splitmix64 finalizer over (seed, index, stream): the one hash every
/// generator draws from, so each field of request i is independent of the
/// others and of every other request.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index * 0xD1B54A32D192ED03ULL +
                    stream * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Streams of mix(); one per independent draw.
enum Stream : std::uint64_t { kClass = 1, kKey, kSalt, kPlatform, kScheme, kAlloc, kRunSeed, kLag };

/// The class a request draws, out of 1000, before repeat resolution.
WhatIfClass drawn_class(std::uint64_t seed, std::size_t index) {
  const std::uint64_t u = mix(seed, index, kClass) % 1000;
  if (u < 500) return WhatIfClass::Repeat;
  if (u < 600) return WhatIfClass::Analytic;
  if (u < 950) return WhatIfClass::Predict;
  return WhatIfClass::Churn;
}

/// The request a repeat drawn at `index` would repeat.
std::size_t repeat_target(std::uint64_t seed, std::size_t index) {
  return index - kRepeatLag - mix(seed, index, kLag) % std::min(kRepeatWindow, index - kRepeatLag + 1);
}

/// A drawn repeat stands only when it lands on a request that drew a fresh
/// class; otherwise the request is a fresh prediction. Half of all requests
/// draw a repeat and about half of those land on a fresh one, so ~25% of the
/// stream repeats and replayed predictions make up ~60%: the median request
/// is a replayed prediction, and no original is more than kRepeatLag +
/// kRepeatWindow requests old.
WhatIfClass resolved_class(std::uint64_t seed, std::size_t index) {
  const WhatIfClass c = drawn_class(seed, index);
  if (c != WhatIfClass::Repeat) return c;
  if (index < kRepeatLag || drawn_class(seed, repeat_target(seed, index)) == WhatIfClass::Repeat)
    return WhatIfClass::Predict;
  return WhatIfClass::Repeat;
}

std::string fresh_text(std::uint64_t seed, std::size_t index, WhatIfClass cls,
                       const std::vector<double>& salts) {
  // Three in four ask about a 4-rank key: the cheap replays then fill the
  // middle of the latency distribution, so the median sits inside one dense
  // cluster instead of on the slope between 4- and 32-rank replays.
  const std::uint64_t k = mix(seed, index, kKey);
  HotKey key{k % 2 ? 3 : 0, (k / 2) % 4 == 0 ? 32 : 4};
  const double omega = salts[mix(seed, index, kSalt) % salts.size()];
  // Unique per index, so no two fresh requests share a canonical text.
  const std::uint64_t run_seed =
      ((mix(seed, index, kRunSeed) & 0xfffffULL) << 20) | (index & 0xfffffULL);
  std::string s = "scenario whatif-" + std::to_string(index) + "\n";
  if (cls == WhatIfClass::Churn) {
    // Spare peers beyond the 32 ranks, so a re-submission after a crash
    // always finds enough live peers.
    key.ranks = 32;
    s += "platform lan\npeers 40\nranks 32\n";
    s += "churn rate 0.004\nchurn downtime 6\nchurn horizon 16\nchurn attempts 3\n";
    s += "churn seed " + std::to_string(run_seed % 1000 + 1) + "\n";
  } else {
    switch (mix(seed, index, kPlatform) % 4) {
      case 0:
        s += "platform xdsl\npeers " + std::to_string(key.ranks) + "\n";
        break;
      case 1:
        s += "platform wan hosts=0 routers=8 extra_links=4 speed_min=1.5GHz speed_max=4GHz\n";
        s += "peers " + std::to_string(key.ranks) + "\n";
        break;
      case 2:
        s += "platform scale_free routers=64\npeers 10000\nboot lazy\ntrackers 4\n";
        s += "ranks " + std::to_string(key.ranks) + "\n";
        break;
      default:
        s += "platform small_world routers=64 k=4 beta=0.1\npeers 10000\nboot lazy\n";
        s += "trackers 4\nranks " + std::to_string(key.ranks) + "\n";
        break;
    }
  }
  s += "opt " + std::to_string(key.opt) + "\n";
  s += cls == WhatIfClass::Analytic ? "mode analytic\n" : "mode predict\n";
  s += mix(seed, index, kScheme) % 2 ? "scheme async\n" : "scheme sync\n";
  s += mix(seed, index, kAlloc) % 2 ? "alloc flat\n" : "alloc hierarchical\n";
  s += "seed " + std::to_string(run_seed) + "\n";
  s += kQuickSizing;
  s += omega_line(omega);
  return s;
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail_percentile(std::vector<double> samples, double target, std::size_t min_beyond) {
  Tail t;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    t.p = 1.0;
    t.value = samples.back();
    return t;
  }
  // Nearest rank of p is ceil(p*n); it leaves n - rank samples beyond.
  const double cap = static_cast<double>(n - min_beyond) / static_cast<double>(n);
  t.p = std::min(target, cap);
  std::size_t rank = static_cast<std::size_t>(std::ceil(t.p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n - min_beyond);
  t.value = samples[rank - 1];
  t.beyond = n - rank;
  return t;
}

std::string omega_line(double omega) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "omega %.4f\n", omega);
  return buf;
}

std::vector<std::string> cold_specs(bool paper, double omega) {
  const std::string salt = omega_line(omega);
  const char* sizing = paper ? kPaperSizing : kQuickSizing;
  return {
      std::string("scenario grid5000-o3\nplatform grid5000\npeers 4\nopt 3\nmode both\n") +
          sizing + salt,
      std::string("scenario analytic-lan-o0\nplatform lan\npeers 4\nopt 0\n"
                  "mode both-analytic\n") +
          sizing + salt,
      std::string("scenario ranks32-o3\nplatform lan\npeers 32\nopt 3\nmode predict\n") +
          kQuickSizing + salt,
  };
}

std::vector<HotKey> hot_keys() { return {{0, 4}, {0, 32}, {3, 4}, {3, 32}}; }

std::string hot_key_spec(const HotKey& key, double omega) {
  return "scenario hot-o" + std::to_string(key.opt) + "-r" + std::to_string(key.ranks) +
         "\nplatform lan\npeers " + std::to_string(key.ranks) + "\nopt " +
         std::to_string(key.opt) + "\nmode predict\n" + kQuickSizing + omega_line(omega);
}

const char* class_name(WhatIfClass c) {
  switch (c) {
    case WhatIfClass::Predict: return "predict";
    case WhatIfClass::Analytic: return "analytic";
    case WhatIfClass::Churn: return "churn";
    case WhatIfClass::Repeat: return "repeat";
  }
  return "?";
}

WhatIf whatif_request(std::uint64_t seed, std::size_t index, const std::vector<double>& salts) {
  if (salts.empty()) throw std::invalid_argument("whatif_request needs at least one salt");
  WhatIf req;
  req.cls = resolved_class(seed, index);
  req.original = req.cls == WhatIfClass::Repeat ? repeat_target(seed, index) : index;
  req.text = fresh_text(seed, req.original, resolved_class(seed, req.original), salts);
  return req;
}

std::vector<std::string> whatif_check_specs(double omega) {
  const std::string tail = std::string(kQuickSizing) + omega_line(omega);
  return {
      "scenario check-grid5000\nplatform grid5000\npeers 4\nopt 3\nmode both\n" + tail,
      "scenario check-xdsl\nplatform xdsl\npeers 4\nopt 0\nmode both\n" + tail,
      "scenario check-wan\nplatform wan hosts=0 routers=8 extra_links=4 speed_min=1.5GHz "
      "speed_max=4GHz\npeers 4\nopt 3\nseed 7\nmode both-analytic\n" +
          tail,
      "scenario check-lan-async\nplatform lan\npeers 4\nopt 3\nscheme async\n"
      "mode both-analytic\n" +
          tail,
  };
}

Verdict classify(const WhatIf& req, const std::string& tag) {
  const bool repeat = req.cls == WhatIfClass::Repeat;
  if (repeat && tag != "hit") return Verdict::ExpectedHit;
  if (!repeat && tag != "miss") return Verdict::ExpectedMiss;
  return Verdict::Ok;
}

std::string campaign_text(std::uint64_t seed, double omega) {
  static const char* kPlatforms[] = {
      "lan", "xdsl", "wan hosts=0 routers=8 extra_links=4 speed_min=1.5GHz speed_max=4GHz"};
  std::string s = "campaign e2e-sweep\nplatform lan\nmode both\n";
  s += kQuickSizing;
  s += omega_line(omega);
  s += "seed " + std::to_string(seed % 1000000 + 1) + "\n";
  s += "churn downtime 6\nchurn horizon 16\nchurn attempts 3\n";
  for (const char* platform : kPlatforms) s += std::string("variant ") + platform + "\n";
  s += "sweep peers 4,32\nsweep opt 0,3\nsweep scheme sync,async\n";
  s += "sweep alloc hierarchical,flat\n";
  s += "sweep churn_rate 0,0.004\nrepetitions 1\n";
  return s;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    children[static_cast<std::size_t>(s.parent)].emplace_back(std::max(s.start, p.start),
                                                              std::min(s.end, p.end));
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].end - spans[i].start) - union_length(std::move(children[i]));
  return self;
}

double layer_coverage(const std::vector<Span>& spans, int root) {
  const Span& r = spans[static_cast<std::size_t>(root)];
  if (r.end <= r.start) return 0;
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans) {
    if (s.name.find('.') == std::string::npos) continue;
    int p = s.parent;
    while (p >= 0 && p != root) p = spans[static_cast<std::size_t>(p)].parent;
    if (p == root) covered.emplace_back(std::max(s.start, r.start), std::min(s.end, r.end));
  }
  return union_length(std::move(covered)) / (r.end - r.start);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string simulated_fields(const std::string& record_json) {
  const pdc::JsonValue doc = pdc::parse_json(record_json);
  std::string out = doc.at("scenario").as_string();
  for (const char* phase : {"reference", "predicted", "analytic"}) {
    if (!doc.has(phase)) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.17g/%.17g", phase,
                  doc.at(phase).at("solve_seconds").as_double(),
                  doc.at(phase).at("total_seconds").as_double());
    out += buf;
  }
  return out;
}

}  // namespace e2e
