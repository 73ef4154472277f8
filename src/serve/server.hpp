// Prediction-as-a-service: the resident server behind the pdc_serve daemon.
//
// A Server listens on a Unix-domain socket and/or loopback TCP and watches a
// spool directory, accepting `.scn` scenario and `.cmp` campaign requests
// (serve/protocol.hpp). It stays alive across requests, which is the whole
// point: the dPerf memos (scenario::cost_profile, Runner::traces; one
// derivation per key, distinct keys in parallel) stay hot in-process, and
// complete answers are memoized in a support::Memo under an LRU byte budget,
// keyed on canonical spec text — so the repeated what-if query, the
// dominant traffic shape at "millions of users" scale, is a map lookup, not
// a simulation, and overlapping identical requests simulate once.
//
// Concurrency: requests are handled on a fixed worker pool (`jobs`); each
// connection carries exactly one request and is served entirely by one
// worker. Campaign requests execute their cells sequentially inside their
// worker, every cell passing through the same scenario memo cache.
//
// Spool protocol (survives daemon restarts, shared-filesystem friendly):
// drop `<name>.scn` / `<name>.cmp` into the spool root; the daemon claims
// the file by renaming it into  <spool>/work/ (atomic — two daemons sharing
// a spool never double-claim), writes the response body to
// <spool>/out/<name>.json via temp-write+rename, and deletes the claimed
// file. Files found in work/ at startup (a previous daemon died mid-job)
// are recovered back into the spool root.
//
// Shutdown is graceful: request_stop() (wired to SIGINT/SIGTERM by the
// daemon, also triggered by a SHUTDOWN request) stops accepting and
// claiming, drains in-flight work, and writes a final ServeStats JSON to
// `stats_path`.
#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <string>

#include "scenario/spec.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "support/memo.hpp"
#include "support/socket.hpp"

namespace pdc {
class ThreadPool;
}

namespace pdc::serve {

struct ServerOptions {
  /// Unix-domain socket path to listen on (empty = no Unix listener). A
  /// stale socket file from a previous daemon is replaced.
  std::string unix_path;
  /// Loopback TCP port to listen on; -1 = no TCP listener, 0 = ephemeral
  /// (read the chosen port back with Server::port()).
  int tcp_port = -1;
  /// Watched spool directory (empty = no spool). Created if missing.
  std::string spool_dir;
  /// Concurrent request workers.
  int jobs = 1;
  /// Response-cache byte budget (each entry charges key + body bytes); 0
  /// keeps no answer.
  std::size_t cache_bytes = 64u << 20;
  /// Final ServeStats JSON written on shutdown (empty = none).
  std::string stats_path;
  /// Base run parameters for parsing specs (pass RunSpec::from_env() so
  /// PDC_QUICK applies to served requests the way it does to the CLIs).
  scenario::RunSpec base;
  /// Accept/spool poll cadence and shutdown-flag check interval.
  double poll_seconds = 0.2;
  /// Per-connection socket I/O timeout: a dead client cannot park a worker.
  double io_timeout_seconds = 30.0;
  /// Cadence of the periodic Prometheus snapshot written to
  /// <spool>/out/metrics.prom (0 = disabled; needs a spool directory). A
  /// final snapshot is always written on shutdown when enabled.
  double metrics_interval_seconds = 60.0;
  /// Optional async-signal-safe stop flag: the daemon's SIGINT/SIGTERM
  /// handler sets it, the serve loop polls it.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

class Server {
 public:
  /// Binds listeners and prepares the spool. Throws std::invalid_argument
  /// when no request source (socket or spool) is configured, and
  /// std::system_error on bind failures.
  explicit Server(ServerOptions opts);

  /// The TCP port actually bound (for tcp_port = 0); -1 without TCP.
  int port() const;

  /// Serves until request_stop() / the stop flag; drains in-flight work,
  /// then writes the final stats JSON. Call once.
  void run();

  /// Thread-safe, async-signal-unsafe stop request (from another thread or
  /// a SHUTDOWN request). For signal handlers use ServerOptions::stop_flag.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Point-in-time stats snapshot (what the STATS endpoint returns).
  ServeStats stats() const;

 private:
  bool stopping() const;
  void handle_connection(Socket conn);
  Response dispatch(const Request& req);
  Response run_scenario(const std::string& text);
  Response run_campaign(const std::string& text);
  struct Answer;
  Answer answer(scenario::ScenarioSpec spec);
  void recover_spool();
  void scan_spool(ThreadPool& pool);
  void process_spool_file(const std::string& claimed_path, const std::string& stem);
  void write_final_stats();
  void write_metrics_snapshot();

  ServerOptions opts_;
  Socket unix_listener_;
  Socket tcp_listener_;
  // canonical spec text -> RunRecord JSON; failed runs are never kept.
  support::Memo<std::string, std::string> cache_;
  StatsCollector collector_;
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pdc::serve
