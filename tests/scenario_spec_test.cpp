// Scenario spec text format: parse, render, round-trip, and error reporting.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "campaign/spec.hpp"
#include "golden_file.hpp"

namespace pdc::scenario {
namespace {

TEST(ScenarioSpec, ParsesEveryRunKey) {
  const ScenarioSpec s = parse_scenario(R"(# full spec
scenario my-exp
platform lan
peers 8
opt s
mode predict
alloc flat
scheme async
seed 1234
grid 130
iters 50
rcheck 5
bench 34 6 2
omega 0.8
cmax 4
)");
  EXPECT_EQ(s.name, "my-exp");
  EXPECT_STREQ(s.platform.kind(), "star");
  EXPECT_EQ(s.platform.label, "lan");
  EXPECT_EQ(s.run.peers, 8);
  EXPECT_EQ(s.run.level, ir::OptLevel::Os);
  EXPECT_EQ(s.run.mode, Mode::Predict);
  EXPECT_EQ(s.run.allocation, p2pdc::AllocationMode::Flat);
  EXPECT_EQ(s.run.scheme, p2psap::Scheme::Asynchronous);
  EXPECT_EQ(s.run.seed, 1234u);
  EXPECT_EQ(s.run.grid_n, 130);
  EXPECT_EQ(s.run.iters, 50);
  EXPECT_EQ(s.run.rcheck, 5);
  EXPECT_EQ(s.run.bench_n, 34);
  EXPECT_EQ(s.run.bench_iters, 6);
  EXPECT_EQ(s.run.bench_rcheck, 2);
  EXPECT_DOUBLE_EQ(s.run.omega, 0.8);
  EXPECT_EQ(s.run.cmax, 4);
}

TEST(ScenarioSpec, UnsetKeysKeepBaseDefaults) {
  RunSpec base;
  base.grid_n = 999;
  base.peers = 7;
  const ScenarioSpec s = parse_scenario("scenario x\nopt 2\n", base);
  EXPECT_EQ(s.run.grid_n, 999);
  EXPECT_EQ(s.run.peers, 7);
  EXPECT_EQ(s.run.level, ir::OptLevel::O2);
}

TEST(ScenarioSpec, PlatformParamsWithUnits) {
  const ScenarioSpec s = parse_scenario(
      "platform star hosts=12 speed=2.5GHz nic_bw=200Mbps nic_lat=50us bb_bw=2Gbps "
      "bb_lat=1ms prefix=lab ip=192.168.1.1\n");
  const auto& star = std::get<net::StarSpec>(s.platform.spec);
  EXPECT_EQ(star.hosts, 12);
  EXPECT_DOUBLE_EQ(star.host_speed_hz, 2.5e9);
  EXPECT_DOUBLE_EQ(star.nic_bw_Bps, 200e6 / 8);
  EXPECT_DOUBLE_EQ(star.nic_latency, 50e-6);
  EXPECT_DOUBLE_EQ(star.backbone_bw_Bps, 2e9 / 8);
  EXPECT_DOUBLE_EQ(star.backbone_latency, 1e-3);
  EXPECT_EQ(star.name_prefix, "lab");
  EXPECT_EQ(star.base_ip.to_string(), "192.168.1.1");
}

TEST(ScenarioSpec, FederationSpeedList) {
  const ScenarioSpec s =
      parse_scenario("platform federation clusters=4 hosts=2 speeds=3GHz,2GHz,1GHz\n");
  const auto& fed = std::get<net::FederationSpec>(s.platform.spec);
  EXPECT_EQ(fed.clusters, 4);
  EXPECT_EQ(fed.hosts_per_cluster, 2);
  ASSERT_EQ(fed.site_speeds_hz.size(), 3u);
  EXPECT_DOUBLE_EQ(fed.site_speeds_hz[1], 2e9);
}

TEST(ScenarioSpec, RoundTripEveryPlatformKind) {
  const char* texts[] = {
      "scenario a\nplatform grid5000\n",
      "scenario b\nplatform lan\npeers 16\n",
      "scenario c\nplatform xdsl\nopt 3\n",
      "scenario d\nplatform star hosts=5 speed=1GHz prefix=p ip=10.9.0.1\n",
      "scenario e\nplatform daisy petals=2 petal_routers=3 dslams=1 dslam_nodes=2 extra=0\n",
      "scenario f\nplatform federation clusters=2 hosts=3 speeds=2GHz,1GHz wan_lat=7ms\n",
      "scenario g\nplatform wan hosts=9 routers=3 extra_links=1 speed_min=1GHz\n",
      "scenario h\nplatform file some/dir/net.plat\nmode reference\n",
  };
  for (const char* text : texts) {
    const ScenarioSpec once = parse_scenario(text);
    const std::string rendered = render_scenario(once);
    const ScenarioSpec twice = parse_scenario(rendered);
    // Canonical text is a fixed point: render(parse(render(s))) == render(s).
    EXPECT_EQ(render_scenario(twice), rendered) << "for input: " << text;
    EXPECT_EQ(once.platform.label, twice.platform.label);
    EXPECT_STREQ(once.platform.kind(), twice.platform.kind());
  }
}

TEST(ScenarioSpec, RoundTripPreservesExactDoubles) {
  ScenarioSpec s;
  auto star = net::StarSpec{};
  star.host_speed_hz = 2.9999999999e9;
  star.nic_bw_Bps = 1e9 / 8;        // 1 Gbps
  star.nic_latency = 100 * 1e-6;    // not exactly representable in binary
  s.platform = PlatformSpec{"x", star};
  const ScenarioSpec back = parse_scenario(render_scenario(s));
  const auto& b = std::get<net::StarSpec>(back.platform.spec);
  EXPECT_EQ(b.host_speed_hz, star.host_speed_hz);
  EXPECT_EQ(b.nic_bw_Bps, star.nic_bw_Bps);
  EXPECT_EQ(b.nic_latency, star.nic_latency);
}

TEST(ScenarioSpec, InlinePlatformRoundTrip) {
  const std::string text =
      "scenario inline-test\n"
      "platform inline\n"
      "host a speed 3GHz ip 10.0.0.1\n"
      "host b speed 3GHz ip 10.0.0.2\n"
      "link l bw 1Gbps lat 1ms\n"
      "edge a b l\n"
      "end\n"
      "peers 2\n";
  const ScenarioSpec s = parse_scenario(text);
  const auto& file = std::get<PlatformFileSpec>(s.platform.spec);
  EXPECT_TRUE(file.path.empty());
  EXPECT_NE(file.text.find("edge a b l"), std::string::npos);
  const ScenarioSpec back = parse_scenario(render_scenario(s));
  EXPECT_EQ(std::get<PlatformFileSpec>(back.platform.spec).text, file.text);
}

TEST(ScenarioSpec, ErrorsCarryLineNumbers) {
  try {
    parse_scenario("scenario ok\nbogus keyword\n");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(parse_scenario("platform star hosts=abc\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("platform star bogus_key=1\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("platform nosuch\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("platform inline\nhost x speed 1GHz ip 10.0.0.1\n"),
               ScenarioError);  // missing 'end'
  EXPECT_THROW(parse_scenario("mode sideways\n"), ScenarioError);
  EXPECT_THROW(parse_scenario("seed 42abc\n"), ScenarioError);  // no trailing garbage
}

TEST(ScenarioSpec, RunSpecFromEnvHonoursQuickFlag) {
  ::setenv("PDC_QUICK", "1", 1);
  const RunSpec quick = RunSpec::from_env();
  ::unsetenv("PDC_QUICK");
  const RunSpec full = RunSpec::from_env();
  EXPECT_LT(quick.grid_n, full.grid_n);
  EXPECT_LT(quick.iters, full.iters);
  EXPECT_EQ(full.grid_n, 1538);
}

// Every shipped scenario and campaign file parses and renders to a fixed
// point. Files that do not ask for an analytic mode render without the word
// "analytic": their canonical text (the serve memo key and the campaign
// resume identity) predates the analytic modes and must not change.
TEST(ScenarioSpec, ShippedFilesRenderToFixpoint) {
  namespace fs = std::filesystem;
  const fs::path examples = fs::path(PDC_TEST_DATA_DIR) / ".." / "examples";
  int files = 0;
  for (const char* dir : {"scenarios", "campaigns"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(examples / dir)) {
      const fs::path& path = entry.path();
      const std::string text = read_file(path).value_or("");
      std::string first, second;
      Mode mode;
      if (path.extension() == ".scn") {
        const ScenarioSpec spec = parse_scenario(text);
        first = render_scenario(spec);
        second = render_scenario(parse_scenario(first));
        mode = spec.run.mode;
      } else if (path.extension() == ".cmp") {
        const campaign::CampaignSpec spec = campaign::parse_campaign(text);
        first = campaign::render_campaign(spec);
        second = campaign::render_campaign(campaign::parse_campaign(first));
        mode = spec.base.run.mode;
      } else {
        continue;
      }
      ++files;
      EXPECT_EQ(first, second) << path;
      if (mode == Mode::Analytic || mode == Mode::BothAnalytic)
        EXPECT_NE(first.find(std::string("\nmode ") + mode_name(mode) + "\n"),
                  std::string::npos)
            << path;
      else
        EXPECT_EQ(first.find("analytic"), std::string::npos) << path;
    }
  }
  EXPECT_GE(files, 19);  // the 10 scenarios and 9 campaigns shipped today
}

}  // namespace
}  // namespace pdc::scenario
