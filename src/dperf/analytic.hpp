// Analytic prediction (ROADMAP "Analytic prediction contract"): predict a
// computation's solve/total time from the rank traces × the platform model
// with NO engine replay at all. The planner mirrors the P2PDC protocol
// (collection, grouped allocation, the hierarchical allreduce tree, result
// gathering) and the P2PSAP channel cost model (per-class header/ack bytes,
// route latencies) with per-rank scalar clocks walked over each trace's
// events, and asks `net::FlowNet::hypothetical_rates` for max-min fair rates
// of the concurrent flow sets — kremlin-style critical-path planning instead
// of discrete-event simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dperf/trace.hpp"
#include "net/platform.hpp"
#include "p2pdc/environment.hpp"

namespace pdc::dperf {

struct AnalyticReport {
  bool ok = false;
  std::string failure;

  /// max rank end − min rank start, the quantity `replay_on` reports.
  double solve_seconds = 0;
  /// collection + allocation + solve + gather, mirroring
  /// ComputationResult::total_time().
  double total_seconds = 0;
  double collection_seconds = 0;
  double allocation_seconds = 0;

  int peers = 0;
  int groups = 0;

  // Observability: how much work the plan took.
  std::uint64_t ops_evaluated = 0;
  std::uint64_t rate_queries = 0;
};

/// Plans the computation described by `spec` running `traces` (one per
/// rank) on the environment's platform, placing ranks on `worker_hosts`
/// exactly as allocation would (proximity grouping over the worker peer
/// set). Pure with respect to the simulation: no engine events, no flows,
/// no overlay traffic. Fails (ok = false, human-readable `failure`) instead
/// of throwing on mismatched traces or impossible placements.
AnalyticReport plan_on(p2pdc::Environment& env, net::NodeIdx submitter_host,
                       p2pdc::TaskSpec spec, const std::vector<Trace>& traces,
                       const std::vector<net::NodeIdx>& worker_hosts);

}  // namespace pdc::dperf
