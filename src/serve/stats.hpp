// Serving-layer observability: per-request counters, memo-cache state, the
// hot dPerf memo footprint, queue depth and latency percentiles — rendered
// as the JSON document the STATS endpoint returns, the Prometheus text
// exposition the METRICS endpoint returns, and the files the daemon writes
// on shutdown. Both renderings come from one obs::Registry publish path.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "support/memo.hpp"

namespace pdc::serve {

/// A point-in-time snapshot of the server's counters.
struct ServeStats {
  std::uint64_t requests = 0;        // everything, including pings
  std::uint64_t scenario_requests = 0;
  std::uint64_t campaign_requests = 0;
  std::uint64_t spool_jobs = 0;      // files picked up from the spool
  std::uint64_t stats_requests = 0;
  std::uint64_t metrics_requests = 0;
  std::uint64_t pings = 0;
  std::uint64_t errors = 0;          // malformed requests + failed runs
  support::MemoStats cache;          // the RunRecord memo cache
  scenario::MemoStats memos;         // hot dPerf cost-profile / trace memos
  int in_flight = 0;                 // requests being processed right now
  int queue_peak = 0;                // max in_flight observed
  double uptime_seconds = 0;
  /// Request latency (seconds), split by whether the answer came from the
  /// memo cache — the cold/warm split that makes the cache's value visible.
  obs::Histogram latency_hit;
  obs::Histogram latency_miss;

  std::string to_json() const;

  /// The same snapshot as Prometheus text exposition (pdc_ name prefix):
  /// counters as `_total` series, the latency split as cumulative-bucket
  /// histograms, cache / memo footprints as gauges.
  std::string to_prometheus() const;
};

/// Thread-safe accumulator behind ServeStats. Latencies go straight into
/// fixed-bucket histograms, so a long-lived daemon holds O(buckets) latency
/// state however much traffic it serves.
class StatsCollector {
 public:
  void count_request();
  void count_scenario();
  void count_campaign();
  void count_spool_job();
  void count_stats();
  void count_metrics();
  void count_ping();
  void count_error();

  /// Tracks in-flight depth; returns the new depth (for queue_peak).
  void enter_request();
  void leave_request();

  void record_latency(bool cache_hit, double seconds);

  /// Snapshot, merging in the response cache's and the process memos' state.
  ServeStats snapshot(const support::MemoStats& cache, double uptime_seconds) const;

 private:
  mutable std::mutex mutex_;
  ServeStats totals_;  // counters + latency histograms; cache/memos on snapshot
};

}  // namespace pdc::serve
