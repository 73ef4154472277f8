// pdc_client: one-shot client for the pdc_serve daemon. Submits a scenario
// or campaign, fetches stats, pings, or asks for a graceful shutdown — one
// request per invocation, response body on stdout (see serve/protocol.hpp
// for the wire format and examples/README.md "Serving & sharding").
//
//   $ ./example_pdc_client --unix /tmp/pdc.sock run examples/scenarios/smoke.scn
//   $ ./example_pdc_client --unix /tmp/pdc.sock run sweep.cmp
//   $ ./example_pdc_client --tcp 7411 stats | python3 -m json.tool
//   $ ./example_pdc_client --unix /tmp/pdc.sock shutdown
//
// Options:
//   --unix <path>     connect to a Unix-domain socket (default /tmp/pdc.sock)
//   --tcp <port>      connect to 127.0.0.1:<port> instead
//   --cmp             treat stdin input ("run -") as campaign text
//   --expect hit|miss fail (exit 4) unless the server's answer carried that
//                     cache tag — tests/serve_smoke.py asserts the warm path
//                     with this
//
// Commands:
//   run <file|->      submit the .scn/.cmp file (kind from the extension)
//   stats             print the ServeStats JSON snapshot
//   metrics           print the Prometheus text exposition of the same counters
//   ping              liveness probe (prints the server's banner)
//   shutdown          ask the daemon to drain and exit
//
// The cache tag of a RUN answer is reported on stderr (`tag: hit`), keeping
// stdout clean JSON for piping.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "serve/protocol.hpp"
#include "support/file.hpp"
#include "support/socket.hpp"
#include "support/spec_keys.hpp"

int main(int argc, char** argv) {
  using namespace pdc;
  std::string unix_path = "/tmp/pdc.sock";
  int tcp_port = -1;
  bool stdin_cmp = false;
  std::string expect;
  const char* command = nullptr;
  const char* arg = nullptr;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) unix_path = argv[++i];
      else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc)
        tcp_port = keys::Int{.min = 0, .max = 65535}.parse(argv[++i], "--tcp");
      else if (std::strcmp(argv[i], "--cmp") == 0) stdin_cmp = true;
      else if (std::strcmp(argv[i], "--expect") == 0 && i + 1 < argc) expect = argv[++i];
      else if (command == nullptr) command = argv[i];
      else arg = argv[i];
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pdc_client: %s\n", e.what());
    return 2;
  }
  if (command == nullptr ||
      (std::strcmp(command, "run") == 0) != (arg != nullptr)) {
    std::fprintf(stderr,
                 "usage: pdc_client [--unix path | --tcp port] [--cmp] "
                 "[--expect hit|miss] run <file.scn|file.cmp|-> | stats | metrics | "
                 "ping | shutdown\n");
    return 2;
  }

  serve::Request req;
  if (std::strcmp(command, "run") == 0) {
    bool cmp = stdin_cmp;
    if (std::strcmp(arg, "-") == 0) {
      std::stringstream buf;
      buf << std::cin.rdbuf();
      req.body = buf.str();
    } else {
      std::optional<std::string> file = read_file(arg);
      if (!file) {
        std::fprintf(stderr, "cannot open '%s'\n", arg);
        return 1;
      }
      req.body = std::move(*file);
      const char* dot = std::strrchr(arg, '.');
      cmp = cmp || (dot != nullptr && std::strcmp(dot, ".cmp") == 0);
    }
    req.kind = cmp ? serve::RequestKind::RunCampaign : serve::RequestKind::RunScenario;
  } else if (std::strcmp(command, "stats") == 0) {
    req.kind = serve::RequestKind::Stats;
  } else if (std::strcmp(command, "metrics") == 0) {
    req.kind = serve::RequestKind::Metrics;
  } else if (std::strcmp(command, "ping") == 0) {
    req.kind = serve::RequestKind::Ping;
  } else if (std::strcmp(command, "shutdown") == 0) {
    req.kind = serve::RequestKind::Shutdown;
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command);
    return 2;
  }

  try {
    Socket conn = tcp_port >= 0 ? connect_tcp("127.0.0.1", tcp_port)
                                : connect_unix(unix_path);
    conn.set_io_timeout(120.0);  // a cold run can take a while
    serve::write_request(conn, req);
    const serve::Response resp = serve::read_response(conn);
    if (!resp.ok) {
      std::fprintf(stderr, "server error: %s\n", resp.body.c_str());
      return 3;
    }
    std::fputs(resp.body.c_str(), stdout);
    if (!resp.body.empty() && resp.body.back() != '\n') std::fputc('\n', stdout);
    if (resp.tag == "hit" || resp.tag == "miss")
      std::fprintf(stderr, "tag: %s\n", resp.tag.c_str());
    if (!expect.empty() && resp.tag != expect) {
      std::fprintf(stderr, "expected tag '%s', got '%s'\n", expect.c_str(),
                   resp.tag.c_str());
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdc_client failed: %s\n", e.what());
    return 1;
  }
}
