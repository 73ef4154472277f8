// The P2PDC runtime: the user-facing environment for high performance
// peer-to-peer computing (paper §III).
//
// A computation goes through the paper's pipeline:
//   1. the submitter joins the overlay and collects peers (§III-B);
//   2. peers are divided into proximity groups of at most Cmax members with
//      one coordinator each (§III-C);
//   3. the submitter ships group assignments and subtasks to coordinators,
//      which forward them to their peers in parallel ("reverse" connection
//      included); results travel the inverse path, avoiding a bottleneck at
//      the submitter;
//   4. every rank runs the user-provided computation, communicating with
//      other ranks through P2PSAP channels negotiated for the requested
//      scheme (synchronous or asynchronous iterations).
//
// A Flat allocation mode (submitter connects to every peer in succession and
// gathers all results directly) is provided as the baseline the paper argues
// against; the ablation bench compares both.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/groups.hpp"
#include "net/flow.hpp"
#include "overlay/overlay.hpp"
#include "p2psap/p2psap.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace pdc::p2pdc {

using net::NodeIdx;

enum class AllocationMode { Hierarchical, Flat };

/// Worker CPU/memory/disk as published to the trackers: the host's modelled
/// frequency (falling back to the paper's 3 GHz Xeon) with the paper-era
/// memory/disk sizing. The one policy for original workers (scenario
/// deployment) and churn-joined replacements alike, so replacements satisfy
/// the same requirement matching during peers collection.
overlay::PeerResources worker_resources(const net::Platform& platform, NodeIdx host);

struct TaskSpec {
  std::string name = "task";
  int peers_needed = 2;
  overlay::Requirements requirements;
  p2psap::Scheme scheme = p2psap::Scheme::Synchronous;
  AllocationMode allocation = AllocationMode::Hierarchical;
  double subtask_bytes = 0;  // data shipped to each peer
  double result_bytes = 0;   // data shipped back per peer
  int cmax = alloc::kCmax;
};

class Environment;
struct Computation;

/// Per-rank view of a running computation handed to the user function.
class PeerContext {
 public:
  int rank() const { return rank_; }
  int nprocs() const;
  NodeIdx host() const;
  /// CPU frequency of the host this rank runs on.
  double host_speed_hz() const;
  Time now() const;

  /// Sends `bytes` to another rank over the computation's P2PSAP channel.
  /// Under the synchronous scheme this resumes after the transport ack;
  /// under the asynchronous scheme it is fire-and-forget.
  sim::Task<void> send(int to_rank, int tag, double bytes,
                       std::shared_ptr<const std::vector<double>> values = nullptr);
  sim::Task<p2psap::Message> recv(int from_rank, int tag);
  std::optional<p2psap::Message> try_recv(int from_rank, int tag);

  /// Advances simulated time by `dt` to model local computation.
  sim::Task<void> compute(Time dt);

  /// Hierarchical max-allreduce through the group coordinators (used for
  /// global residual tests in iterative solvers). Every rank must call it
  /// the same number of times.
  sim::Task<double> allreduce_max(double value);

  /// Stores this rank's result values; they are shipped back through the
  /// coordinator and appear in ComputationResult::results.
  void set_result(std::vector<double> values);

 private:
  friend class Environment;
  PeerContext(Computation& comp, int rank) : comp_(&comp), rank_(rank) {}
  Computation* comp_;
  int rank_;
};

using PeerMain = std::function<sim::Task<void>(PeerContext&)>;

struct ComputationResult {
  bool ok = false;
  std::string failure;  // set when !ok
  int peers = 0;
  int groups = 0;
  Time t_submit = 0;     // submission entered the overlay
  Time t_collected = 0;  // enough peers reserved
  Time t_allocated = 0;  // every rank received its subtask
  Time t_finished = 0;   // all results back at the submitter
  /// User result values indexed by rank (dense: sized nprocs on success;
  /// ranks that set no result hold an empty vector).
  std::vector<std::vector<double>> results;

  Time collection_time() const { return t_collected - t_submit; }
  Time allocation_time() const { return t_allocated - t_collected; }
  Time total_time() const { return t_finished - t_submit; }
};

/// Owns the full stack for one simulated deployment: flow network, P2PSAP
/// fabric and P2PDC overlay on a given platform.
class Environment {
 public:
  Environment(sim::Engine& engine, const net::Platform& platform,
              overlay::OverlayConfig config = {});

  sim::Engine& engine() { return *engine_; }
  const net::Platform& platform() const { return *platform_; }
  net::FlowNet& flownet() { return flownet_; }
  p2psap::Fabric& fabric() { return fabric_; }
  overlay::Overlay& over() { return overlay_; }

  // --- deployment helpers ---
  void boot_server(NodeIdx host) { overlay_.create_server(host); }
  void boot_tracker(NodeIdx host, bool core = true) { overlay_.create_tracker(host, core); }
  void boot_peer(NodeIdx host, overlay::PeerResources res) { overlay_.create_peer(host, res); }
  /// Lazy worker registration for massive platforms: no actor, no idle
  /// events; see Overlay::register_passive_peer. Trackers must exist first.
  bool boot_passive_peer(NodeIdx host, overlay::PeerResources res) {
    return overlay_.register_passive_peer(host, res);
  }
  void finish_bootstrap() { overlay_.finish_bootstrap(); }

  /// Fail-stop crash of the actor running on `host` (peer, tracker or
  /// server): the overlay actor stops and drops queued/future messages, and
  /// every active computation that placed a rank (or its submitter) on the
  /// host aborts — its submit() resumes with ok=false so the caller can
  /// re-collect peers and re-allocate. The churn injector's crash hook.
  void crash_host(NodeIdx host);

  /// Submits a task from `submitter_host` (which must run a peer actor).
  /// Awaitable from a simulation process.
  sim::Task<ComputationResult> submit(NodeIdx submitter_host, TaskSpec spec, PeerMain main);

  /// Convenience driver: lets the overlay settle for `warmup` seconds, then
  /// submits and runs the engine until the computation finishes.
  ComputationResult run_computation(NodeIdx submitter_host, TaskSpec spec, PeerMain main,
                                    Time warmup = 12.0, Time time_cap = 36000.0);

 private:
  sim::Process rank_body(std::shared_ptr<Computation> comp, int rank, PeerMain main);
  sim::Process coordinator_body(std::shared_ptr<Computation> comp, int group);

  sim::Engine* engine_;
  const net::Platform* platform_;
  net::FlowNet flownet_;
  p2psap::Fabric fabric_;
  overlay::Overlay overlay_;
  std::uint64_t next_ticket_ = 1;
  /// Computations currently in flight, so crash_host can abort the ones that
  /// lost a rank. Weak: the coroutines own the computation's lifetime.
  std::vector<std::weak_ptr<Computation>> active_;
};

}  // namespace pdc::p2pdc
