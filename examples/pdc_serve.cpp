// pdc_serve: the resident prediction daemon — prediction-as-a-service over
// the scenario/campaign machinery. Boots once, keeps the dPerf cost-profile
// and trace memos hot, memoizes complete answers in a byte-budgeted LRU
// cache (--cache-bytes), and serves `.scn` / `.cmp` requests over a
// Unix socket, loopback TCP and/or a watched spool directory until told to
// stop. See examples/README.md "Serving & sharding" and serve/protocol.hpp
// for the wire format; examples/pdc_client.cpp is the matching client.
//
//   $ ./example_pdc_serve --unix /tmp/pdc.sock &
//   $ ./example_pdc_client --unix /tmp/pdc.sock run examples/scenarios/smoke.scn
//   $ ./example_pdc_client --unix /tmp/pdc.sock stats
//   $ kill -TERM %1        # graceful: drains in-flight runs, writes stats
//
// Options:
//   --unix <path>     listen on a Unix-domain socket at <path>
//   --tcp <port>      listen on 127.0.0.1:<port> (0 = ephemeral; the chosen
//                     port is printed on the "serving tcp" line)
//   --spool <dir>     watch <dir> for dropped .scn/.cmp files; answers land
//                     in <dir>/out/<name>.json
//   -j <n>            concurrent request workers (default 1)
//   --stats <path>    write the final ServeStats JSON here on shutdown
//   --cache-bytes <n> response-cache byte budget (default 64 MiB; 0 keeps
//                     no answer), an unsigned 64-bit count; a malformed or
//                     negative value exits 2.
//   --metrics-every <sec>  cadence of the <spool>/out/metrics.prom Prometheus
//                     snapshot (default 60; 0 disables; needs --spool)
//   -v                log protocol activity to stderr
//
// SIGINT/SIGTERM trigger the same graceful drain as a SHUTDOWN request.
// The startup lines (`serving ...`, `pdc_serve ready`) and the final
// `pdc_serve stopped: ...` summary are stable for scripting.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "scenario/spec.hpp"
#include "serve/server.hpp"
#include "support/log.hpp"
#include "support/spec_keys.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace pdc;
  serve::ServerOptions opts;
  opts.base = scenario::RunSpec::from_env();
  opts.stop_flag = &g_stop;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) opts.unix_path = argv[++i];
      else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc)
        opts.tcp_port = keys::Int{.min = 0, .max = 65535}.parse(argv[++i], "--tcp");
      else if (std::strcmp(argv[i], "--spool") == 0 && i + 1 < argc)
        opts.spool_dir = argv[++i];
      else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc)
        opts.jobs = keys::Int{.min = 1}.parse(argv[++i], "-j");
      else if (std::strcmp(argv[i], "--stats") == 0 && i + 1 < argc)
        opts.stats_path = argv[++i];
      else if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc)
        opts.cache_bytes = keys::U64{}.parse(argv[++i], "--cache-bytes");
      else if (std::strcmp(argv[i], "--metrics-every") == 0 && i + 1 < argc)
        opts.metrics_interval_seconds = keys::Real{.min = 0}.parse(argv[++i], "--metrics-every");
      else if (std::strcmp(argv[i], "-v") == 0)
        set_log_level(LogLevel::Info);
      else {
        std::fprintf(stderr,
                     "usage: pdc_serve [--unix path] [--tcp port] [--spool dir] [-j n] "
                     "[--stats path] [--cache-bytes n] [--metrics-every sec] [-v]\n");
        return 2;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pdc_serve: %s\n", e.what());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Keep copies for the status lines: the options move into the server.
  const std::string unix_path = opts.unix_path;
  const std::string spool_dir = opts.spool_dir;
  const std::string stats_path = opts.stats_path;
  const bool tcp = opts.tcp_port >= 0;
  const int jobs = opts.jobs;

  try {
    serve::Server server{std::move(opts)};
    if (!unix_path.empty()) std::printf("serving unix %s\n", unix_path.c_str());
    if (tcp) std::printf("serving tcp 127.0.0.1:%d\n", server.port());
    if (!spool_dir.empty()) std::printf("serving spool %s\n", spool_dir.c_str());
    std::printf("pdc_serve ready (jobs=%d)\n", jobs);
    std::fflush(stdout);
    server.run();
    const serve::ServeStats s = server.stats();
    std::printf(
        "pdc_serve stopped: requests=%llu scenarios=%llu campaigns=%llu "
        "spool=%llu cache_hits=%llu cache_misses=%llu errors=%llu\n",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.scenario_requests),
        static_cast<unsigned long long>(s.campaign_requests),
        static_cast<unsigned long long>(s.spool_jobs),
        static_cast<unsigned long long>(s.cache.hits),
        static_cast<unsigned long long>(s.cache.misses),
        static_cast<unsigned long long>(s.errors));
    if (!stats_path.empty()) std::printf("wrote %s\n", stats_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdc_serve failed: %s\n", e.what());
    return 1;
  }
}
