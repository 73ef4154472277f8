// Property/fuzz tests for the spec text formats: randomly generated
// ScenarioSpec/CampaignSpec values (including the churn block) must survive
// render -> parse -> render structurally intact, and a corpus of malformed
// lines — plus random token-level mutations of valid documents — must be
// rejected with a ScenarioError diagnostic instead of crashing. The CI ASan
// job runs these with a fixed iteration budget (PDC_FUZZ_ITERS).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "scenario/spec.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace pdc {
namespace {

int fuzz_iters() { return env_int("PDC_FUZZ_ITERS", 150); }

// --- random spec generators -------------------------------------------------

churn::ChurnSpec random_churn(Rng& rng) {
  churn::ChurnSpec c;
  if (rng.bernoulli(0.5)) c.peer_crash_rate = rng.uniform(0.0, 0.1);
  if (rng.bernoulli(0.5)) c.mean_downtime = rng.uniform(0.0, 100.0);
  if (rng.bernoulli(0.3)) c.link_degrade_rate = rng.uniform(0.0, 0.05);
  if (rng.bernoulli(0.3)) c.link_degrade_scale = rng.uniform(0.05, 1.0);
  if (rng.bernoulli(0.3)) c.mean_degrade_time = rng.uniform(1.0, 200.0);
  if (rng.bernoulli(0.5)) c.horizon = rng.uniform(10.0, 1000.0);
  if (rng.bernoulli(0.5)) c.seed = rng.next_u64() % 100000;
  if (rng.bernoulli(0.5)) c.max_attempts = static_cast<int>(rng.uniform_int(1, 9));
  const int events = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < events; ++i) {
    churn::ChurnEvent ev;
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    ev.kind = static_cast<churn::ChurnEvent::Kind>(kind);
    ev.at = rng.uniform(0.0, 500.0);
    if (ev.kind != churn::ChurnEvent::Kind::PeerJoin && rng.bernoulli(0.6))
      ev.target = static_cast<int>(rng.uniform_int(0, 7));
    ev.scale =
        ev.kind == churn::ChurnEvent::Kind::LinkDegrade ? rng.uniform(0.05, 1.0) : 1.0;
    if (ev.kind == churn::ChurnEvent::Kind::LinkRestore) ev.scale = 1.0;
    c.events.push_back(ev);
  }
  return c;
}

scenario::PlatformSpec random_platform(Rng& rng) {
  switch (rng.uniform_int(0, 8)) {
    case 0: return scenario::PlatformSpec::grid5000();
    case 1: return scenario::PlatformSpec::lan();
    case 2: return scenario::PlatformSpec::xdsl();
    case 3: return scenario::PlatformSpec::federation();
    case 4: return scenario::PlatformSpec::wan();
    case 5: {
      scenario::PlatformSpec p = scenario::PlatformSpec::lan();
      auto& star = std::get<net::StarSpec>(p.spec);
      p.label = "star" + std::to_string(rng.uniform_int(0, 99));
      star.hosts = static_cast<int>(rng.uniform_int(0, 64));
      star.host_speed_hz = rng.uniform(1e9, 4e9);
      star.nic_bw_Bps = rng.uniform(1e6, 1e9);
      star.backbone_latency = rng.uniform(1e-6, 1e-3);
      return p;
    }
    case 6: {
      scenario::PlatformSpec p = scenario::PlatformSpec::scale_free();
      auto& sf = std::get<net::ScaleFreeSpec>(p.spec);
      p.label = "ba" + std::to_string(rng.uniform_int(0, 99));
      sf.hosts = static_cast<int>(rng.uniform_int(0, 128));  // 0 = auto-size
      sf.routers = static_cast<int>(rng.uniform_int(4, 64));
      sf.m = static_cast<int>(rng.uniform_int(1, 4));
      sf.access_bw_Bps = rng.uniform(1e6, 1e8);
      sf.core_latency = rng.uniform(1e-4, 1e-2);
      return p;
    }
    case 7: {
      scenario::PlatformSpec p = scenario::PlatformSpec::small_world();
      auto& sw = std::get<net::SmallWorldSpec>(p.spec);
      p.label = "ws" + std::to_string(rng.uniform_int(0, 99));
      sw.hosts = static_cast<int>(rng.uniform_int(0, 128));  // 0 = auto-size
      sw.routers = static_cast<int>(rng.uniform_int(4, 64));
      sw.k = static_cast<int>(rng.uniform_int(2, 8));
      sw.beta = rng.uniform(0.0, 1.0);
      return p;
    }
    default: {
      // Inline platfile text survives as an opaque block.
      std::string text;
      const int hosts = static_cast<int>(rng.uniform_int(2, 5));
      for (int i = 0; i < hosts; ++i)
        text += "host h" + std::to_string(i) + " speed 3GHz ip 10.0.0." +
                std::to_string(i + 1) + "\n";
      text += "router sw\n";
      for (int i = 0; i < hosts; ++i) {
        text += "link l" + std::to_string(i) + " bw 1Gbps lat 100us\n";
        text += "edge h" + std::to_string(i) + " sw l" + std::to_string(i) + "\n";
      }
      return scenario::PlatformSpec::from_text(text);
    }
  }
}

scenario::ScenarioSpec random_scenario(Rng& rng) {
  scenario::ScenarioSpec s;
  s.name = "fuzz" + std::to_string(rng.uniform_int(0, 9999));
  s.platform = random_platform(rng);
  s.run.peers = static_cast<int>(rng.uniform_int(1, 32));
  s.run.level = static_cast<ir::OptLevel>(rng.uniform_int(0, 4));
  s.run.allocation = rng.bernoulli(0.5) ? p2pdc::AllocationMode::Hierarchical
                                        : p2pdc::AllocationMode::Flat;
  s.run.scheme =
      rng.bernoulli(0.5) ? p2psap::Scheme::Synchronous : p2psap::Scheme::Asynchronous;
  s.run.mode = static_cast<scenario::Mode>(rng.uniform_int(0, 4));
  s.run.seed = rng.next_u64() % 1000000;
  s.run.grid_n = static_cast<int>(rng.uniform_int(16, 2048));
  s.run.iters = static_cast<int>(rng.uniform_int(1, 500));
  s.run.rcheck = static_cast<int>(rng.uniform_int(1, 16));
  s.run.omega = rng.uniform(0.1, 1.9);
  s.run.cmax = static_cast<int>(rng.uniform_int(2, 64));
  s.run.lazy_boot = rng.bernoulli(0.5);
  s.run.trackers = static_cast<int>(rng.uniform_int(1, 8));
  s.run.ranks =
      rng.bernoulli(0.5) ? 0 : static_cast<int>(rng.uniform_int(1, s.run.peers));
  s.run.churn = random_churn(rng);
  return s;
}

// --- round-trip properties --------------------------------------------------

TEST(SpecFuzz, ScenarioRoundTripsStructurally) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Rng rng{0xF00D + static_cast<std::uint64_t>(i)};
    const scenario::ScenarioSpec spec = random_scenario(rng);
    const std::string text = scenario::render_scenario(spec);
    scenario::ScenarioSpec back;
    try {
      back = scenario::parse_scenario(text);
    } catch (const scenario::ScenarioError& e) {
      FAIL() << "iteration " << i << ": render produced unparsable text: " << e.what()
             << "\n" << text;
    }
    // Structural comparison: every field the text format carries.
    EXPECT_EQ(back.name, spec.name) << text;
    EXPECT_EQ(std::string(back.platform.kind()), spec.platform.kind()) << text;
    EXPECT_EQ(back.platform.label, spec.platform.label) << text;
    EXPECT_EQ(back.run.peers, spec.run.peers);
    EXPECT_EQ(back.run.level, spec.run.level);
    EXPECT_EQ(back.run.allocation, spec.run.allocation);
    EXPECT_EQ(back.run.scheme, spec.run.scheme);
    EXPECT_EQ(back.run.mode, spec.run.mode);
    EXPECT_EQ(back.run.seed, spec.run.seed);
    EXPECT_EQ(back.run.grid_n, spec.run.grid_n);
    EXPECT_EQ(back.run.iters, spec.run.iters);
    EXPECT_EQ(back.run.omega, spec.run.omega);
    EXPECT_EQ(back.run.cmax, spec.run.cmax);
    EXPECT_EQ(back.run.lazy_boot, spec.run.lazy_boot);
    EXPECT_EQ(back.run.trackers, spec.run.trackers);
    EXPECT_EQ(back.run.ranks, spec.run.ranks);
    EXPECT_EQ(back.run.churn, spec.run.churn) << text;
    // Canonical fixed point: render(parse(render(s))) == render(s).
    EXPECT_EQ(scenario::render_scenario(back), text);
  }
}

TEST(SpecFuzz, CampaignRoundTripsStructurally) {
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Rng rng{0xCAFE + static_cast<std::uint64_t>(i)};
    campaign::CampaignSpec spec;
    spec.name = "camp" + std::to_string(rng.uniform_int(0, 999));
    spec.base = random_scenario(rng);
    // Inline platforms cannot be campaign bases' variants; keep the base
    // arbitrary but variants parameterized.
    const int variants = static_cast<int>(rng.uniform_int(0, 2));
    for (int v = 0; v < variants; ++v) {
      scenario::PlatformSpec p = random_platform(rng);
      if (std::holds_alternative<scenario::PlatformFileSpec>(p.spec))
        p = scenario::PlatformSpec::wan();
      spec.platforms.push_back(p);
    }
    auto maybe_axis = [&](auto& axis, auto gen) {
      const int n = static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < n; ++k) axis.push_back(gen());
    };
    maybe_axis(spec.peers, [&] { return static_cast<int>(rng.uniform_int(1, 16)); });
    maybe_axis(spec.levels, [&] { return static_cast<ir::OptLevel>(rng.uniform_int(0, 4)); });
    maybe_axis(spec.schemes, [&] {
      return rng.bernoulli(0.5) ? p2psap::Scheme::Synchronous
                                : p2psap::Scheme::Asynchronous;
    });
    maybe_axis(spec.seeds, [&] { return rng.next_u64() % 10000; });
    maybe_axis(spec.churn_rates, [&] { return rng.uniform(0.0, 0.1); });
    maybe_axis(spec.churn_seeds, [&] { return rng.next_u64() % 10000; });
    spec.repetitions = static_cast<int>(rng.uniform_int(1, 5));

    const std::string text = campaign::render_campaign(spec);
    campaign::CampaignSpec back;
    try {
      back = campaign::parse_campaign(text);
    } catch (const scenario::ScenarioError& e) {
      FAIL() << "iteration " << i << ": render produced unparsable text: " << e.what()
             << "\n" << text;
    }
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.platforms.size(), spec.platforms.size());
    EXPECT_EQ(back.peers, spec.peers);
    EXPECT_EQ(back.levels, spec.levels);
    EXPECT_EQ(back.schemes, spec.schemes);
    EXPECT_EQ(back.seeds, spec.seeds);
    EXPECT_EQ(back.churn_rates, spec.churn_rates);
    EXPECT_EQ(back.churn_seeds, spec.churn_seeds);
    EXPECT_EQ(back.repetitions, spec.repetitions);
    EXPECT_EQ(back.base.run.churn, spec.base.run.churn);
    EXPECT_EQ(campaign::render_campaign(back), text) << text;
    // Expansion of the round-tripped spec is identical (keys and specs).
    const auto runs_a = campaign::expand(spec);
    const auto runs_b = campaign::expand(back);
    ASSERT_EQ(runs_a.size(), runs_b.size());
    for (std::size_t r = 0; r < runs_a.size(); ++r) {
      EXPECT_EQ(runs_a[r].key, runs_b[r].key);
      EXPECT_EQ(scenario::render_scenario(runs_a[r].spec),
                scenario::render_scenario(runs_b[r].spec));
    }
  }
}

// --- malformed input --------------------------------------------------------

TEST(SpecFuzz, MalformedScenarioLinesAreRejectedWithDiagnostics) {
  const char* corpus[] = {
      "peers",
      "peers x",
      "peers 4 5",
      "opt 9",
      "mode sometimes",
      "alloc vertical",
      "scheme mostly",
      "seed",
      "seed 12x",
      "grid twelve",
      "iters",
      "rcheck 2 3",
      "bench 1 2",
      "omega",
      "omega two",
      "cmax",
      "platform",
      "platform marsnet",
      "platform star hosts",
      "platform star hosts=abc",
      "platform star warp=9",
      "platform star =9",
      "platform file",
      "platform file a b",
      "platform inline",  // never closed
      "platform scale_free m=x",
      "platform scale_free warp=9",
      "platform small_world beta=maybe",
      "platform small_world k=",
      "boot",
      "boot never",
      "boot eager lazy",
      "trackers",
      "trackers 0",
      "trackers x",
      "ranks",
      "ranks -1",
      "ranks many",
      "scenario",
      "scenario a b",
      "wibble 3",
      "churn event degrade at=1 link=x",
      // Out-of-range and negative-unsigned values are errors, not wraps.
      "peers 4294967298",
      "grid 4294967297",
      "ranks 4294967296",
      "seed -1",
      "seed 18446744073709551616",
      "churn seed -1",
      // Floors the runner depends on, and values that would key the memo.
      "rcheck 0",
      "cmax 0",
      "omega nan",
      "omega inf",
      "platform small_world beta=nan",
      // A repeated key is an error, not last-wins.
      "platform star hosts=4 hosts=9",
      "platform star label=a label=b",
  };
  for (const char* line : corpus) {
    const std::string text = std::string("scenario ok\n") + line + "\n";
    try {
      scenario::parse_scenario(text);
      FAIL() << "accepted malformed line: " << line;
    } catch (const scenario::ScenarioError& e) {
      EXPECT_GT(e.line(), 0) << line;
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }
}

TEST(SpecFuzz, MalformedCampaignLinesAreRejectedWithDiagnostics) {
  const char* corpus[] = {
      "campaign",
      "campaign a b",
      "repetitions",
      "repetitions 0",
      "repetitions x",
      "sweep",
      "sweep peers",
      "sweep peers x",
      "sweep opt 7",
      "sweep scheme warp",
      "sweep alloc diagonal",
      "sweep seed 1,x",
      "sweep churn_rate x",
      "sweep churn_rate -0.5",
      "sweep churn_seed x",
      "sweep platform mars",
      "sweep unknown 1",
      "variant",
      "variant inline",
      "variant star hosts=z",
      "variant scale_free routers=z",
      "variant small_world beta=x",
      "sweep peers 4294967298",
      "sweep seed -1",
      "sweep churn_seed -1",
      "sweep churn_rate nan",
      "variant star hosts=4 hosts=9",
      "sweep platform star",
      "sweep platform daisy",
  };
  for (const char* line : corpus) {
    const std::string text = std::string("campaign ok\n") + line + "\n";
    try {
      campaign::parse_campaign(text);
      FAIL() << "accepted malformed line: " << line;
    } catch (const scenario::ScenarioError& e) {
      EXPECT_GT(e.line(), 0) << line;
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }
}

TEST(SpecFuzz, RandomMutationsNeverCrashTheParsers) {
  // Token-level mutations of valid documents: the parser must either accept
  // the result or throw ScenarioError — any other escape (or a crash under
  // ASan) fails the test.
  const char* garbage[] = {"",      "#",     "end",   "???",  "-1",   "1e999",
                           "peers", "churn", "sweep", "link", "=",    "at=",
                           "\t",    "0x12",  "nan",   "inf",  "🦀",   "boot",
                           "ranks", "beta="};
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    Rng rng{0xBEEF + static_cast<std::uint64_t>(i)};
    std::string text = rng.bernoulli(0.5)
                           ? scenario::render_scenario(random_scenario(rng))
                           : campaign::render_campaign([&] {
                               campaign::CampaignSpec c;
                               c.base = random_scenario(rng);
                               c.churn_rates = {0.0, 0.01};
                               return c;
                             }());
    // Splice 1-3 garbage tokens at random positions.
    const int splices = static_cast<int>(rng.uniform_int(1, 3));
    for (int s = 0; s < splices; ++s) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      const char* g = garbage[rng.uniform_int(0, std::size(garbage) - 1)];
      text.insert(pos, g);
    }
    for (const bool as_campaign : {false, true}) {
      try {
        if (as_campaign)
          (void)campaign::parse_campaign(text);
        else
          (void)scenario::parse_scenario(text);
      } catch (const scenario::ScenarioError&) {
        // rejected with a diagnostic: fine
      }
    }
  }
}

}  // namespace
}  // namespace pdc
