// Tests of the benchmark's own helpers (harness.hpp). Plain checks, no
// framework: prints every failed check and exits non-zero if any failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "harness.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace pdc;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_percentile() {
  // 1000 samples: p99 is the 990th value and leaves exactly 10 beyond it.
  e2e::Tail t = e2e::tail_percentile(ramp(1000));
  CHECK(near(t.p, 0.99));
  CHECK(near(t.value, 990));
  CHECK(t.beyond == 10);
  // 500 samples cannot support p99 with 10 beyond: p98 is used instead.
  t = e2e::tail_percentile(ramp(500));
  CHECK(near(t.p, 0.98));
  CHECK(near(t.value, 490));
  CHECK(t.beyond == 10);
  // Enough samples: the target itself, with more than 10 beyond.
  t = e2e::tail_percentile(ramp(5000));
  CHECK(near(t.p, 0.99));
  CHECK(near(t.value, 4950));
  CHECK(t.beyond == 50);
  // Too few samples for any such percentile: the maximum, nothing beyond.
  t = e2e::tail_percentile(ramp(10));
  CHECK(near(t.value, 10));
  CHECK(t.beyond == 0);
  CHECK(e2e::tail_percentile({}).value == 0);
  CHECK(near(e2e::median({3, 1, 2}), 2));
  CHECK(near(e2e::median({4, 1, 2, 3}), 2.5));
}

void test_classify() {
  e2e::WhatIf fresh;
  fresh.cls = e2e::WhatIfClass::Predict;
  e2e::WhatIf repeat;
  repeat.cls = e2e::WhatIfClass::Repeat;
  CHECK(e2e::classify(fresh, "miss") == e2e::Verdict::Ok);
  CHECK(e2e::classify(fresh, "hit") == e2e::Verdict::ExpectedMiss);
  CHECK(e2e::classify(repeat, "hit") == e2e::Verdict::Ok);
  CHECK(e2e::classify(repeat, "miss") == e2e::Verdict::ExpectedHit);
}

void test_self_times() {
  // run [0,20] > request [0,10] > {a [1,3], b [2,5], c [8,12] (clipped to 10)}
  //                              a > grandchild [1,2]
  std::vector<e2e::Span> spans = {
      {"run", 0, 20, -1},       {"request", 0, 10, 0}, {"dperf.a", 1, 3, 1},
      {"dperf.b", 2, 5, 1},     {"vm.c", 8, 12, 1},    {"ir.inner", 1, 2, 2},
  };
  const std::vector<double> self = e2e::self_times(spans);
  CHECK(near(self[0], 10));  // only its direct child counts
  CHECK(near(self[1], 4));   // 10 - |[1,5] u [8,10]|
  CHECK(near(self[2], 1));   // 2 - 1 (grandchild)
  CHECK(near(self[3], 3));
  CHECK(near(self[4], 4));   // leaf: full duration
  CHECK(near(self[5], 1));
  // Layer coverage of the request: dotted descendants [1,5] u [8,10] = 6 of 10.
  CHECK(near(e2e::layer_coverage(spans, 1), 0.6));
  // Of the run: c is no longer clipped at 10, so [1,5] u [8,12] = 8 of 20.
  CHECK(near(e2e::layer_coverage(spans, 0), 0.4));
  CHECK(near(e2e::union_length({{0, 1}, {0.5, 2}, {3, 4}, {4, 4}}), 3));
}

void test_whatif_mix_is_pure() {
  const std::vector<double> salts = {0.9, 0.91};
  std::map<std::string, int> classes;
  std::set<std::string> fresh_texts;
  for (std::size_t i = 0; i < 3000; ++i) {
    const e2e::WhatIf a = e2e::whatif_request(7, i, salts);
    const e2e::WhatIf b = e2e::whatif_request(7, i, salts);
    CHECK(a.text == b.text && a.cls == b.cls && a.original == b.original);
    ++classes[e2e::class_name(a.cls)];
    if (a.cls == e2e::WhatIfClass::Repeat) {
      CHECK(a.original + e2e::kRepeatLag <= i);
      CHECK(a.original + e2e::kRepeatLag + e2e::kRepeatWindow > i);
      const e2e::WhatIf orig = e2e::whatif_request(7, a.original, salts);
      CHECK(orig.cls != e2e::WhatIfClass::Repeat);
      CHECK(orig.text == a.text);
    } else {
      CHECK(a.original == i);
      CHECK(fresh_texts.insert(a.text).second);  // every fresh text is new
      scenario::parse_scenario(a.text);          // and parses
    }
  }
  // About one request in four repeats an earlier one; most are predictions.
  CHECK(classes["repeat"] > 600 && classes["repeat"] < 900);
  CHECK(classes["predict"] > 1600 && classes["predict"] < 2000);
  CHECK(classes["churn"] > 60);
  // A different seed gives a different stream.
  int same = 0;
  for (std::size_t i = 0; i < 100; ++i)
    same += e2e::whatif_request(7, i, salts).text == e2e::whatif_request(8, i, salts).text;
  CHECK(same < 5);
}

void test_generated_specs() {
  // Salted cold specs land on distinct trace-memo keys (omega differs).
  const auto a = e2e::cold_specs(true, 0.90);
  const auto b = e2e::cold_specs(true, 0.96);
  CHECK(a.size() == 3 && b.size() == 3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const scenario::ScenarioSpec sa = scenario::parse_scenario(a[i]);
    const scenario::ScenarioSpec sb = scenario::parse_scenario(b[i]);
    CHECK(sa.run.omega != sb.run.omega);
    CHECK(sa.run.iters == sb.run.iters);
  }
  CHECK(scenario::parse_scenario(a[0]).run.grid_n == 1538);
  CHECK(scenario::parse_scenario(e2e::cold_specs(false, 0.9)[0]).run.grid_n == 258);
  CHECK(scenario::parse_scenario(a[2]).run.rank_count() == 32);
  for (const std::string& text : e2e::whatif_check_specs(0.9)) scenario::parse_scenario(text);
  // The campaign grid is a pure function of (seed, salt).
  CHECK(e2e::campaign_text(3, 0.9) == e2e::campaign_text(3, 0.9));
  CHECK(e2e::campaign_text(3, 0.9) != e2e::campaign_text(4, 0.9));
  CHECK(campaign::expand(campaign::parse_campaign(e2e::campaign_text(3, 0.9))).size() == 96u);
}

void test_digest() {
  const std::string rec =
      "{\"scenario\": \"x\", \"predicted\": {\"solve_seconds\": 1.5, \"total_seconds\": 2}}";
  CHECK(e2e::simulated_fields(rec) == "x predicted=1.5/2");
  CHECK(e2e::fnv1a("") == 0xcbf29ce484222325ULL);
  CHECK(e2e::fnv1a("a") == 0xaf63dc4c8601ec8cULL);
}

}  // namespace

int main() {
  test_tail_percentile();
  test_classify();
  test_self_times();
  test_whatif_mix_is_pure();
  test_generated_specs();
  test_digest();
  if (failures == 0) std::printf("e2ebench helper tests passed\n");
  return failures == 0 ? 0 : 1;
}
