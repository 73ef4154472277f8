// Flow-level network model with max-min fair bandwidth sharing.
//
// Each transfer is a fluid flow along its route. Concurrent flows crossing
// the same link in the same direction share that link's capacity with
// max-min fairness (progressive filling), the same model family as
// SimGrid's default used by the paper for trace-based simulation. A flow
// first waits out the route's accumulated latency, then streams its bytes
// at the allocated rate; allocations are recomputed whenever a flow enters
// or leaves the transfer phase.
//
// Two sharing engines are provided:
//
//  * Mode::Incremental (default) — the production path. Link state lives in
//    dense per-direction records (flat vector indexed by linkdir_index),
//    and transfer flows are aggregated into *flow classes*: flows whose
//    route signatures match (see SigTok) are interchangeable under
//    progressive filling, so the solver fixes one rate per class and
//    charges each saturated link multiplicity x rate at once. A flow
//    start/completion marks only its own links dirty and the solver re-runs
//    over just the connected component of *classes* reachable from dirty
//    links. Per-flow progress is settled lazily from the class rate via a
//    credit counter (bytes served per member since class creation), and
//    projected completions sit in an indexed min-heap keyed per class. Cost
//    per reshare is O(classes x links in the affected component), not
//    O(flows x links): a shared-backbone population of N identical
//    transfers reshapes in O(1) amortized instead of O(N).
//
//  * Mode::Reference — the original full recompute over every flow per
//    reshare, kept verbatim as the correctness oracle for differential
//    tests and as the bench baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/platform.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "support/indexed_heap.hpp"

namespace pdc::net {

using FlowId = std::uint64_t;

/// Aggregate counters for tests and benches.
struct FlowNetStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  double bytes_completed = 0;
  std::uint64_t reshares = 0;
  /// Reshares that re-solved a strict subset of the live transfer flows
  /// (incremental mode only; the reference oracle always re-solves all).
  std::uint64_t reshares_partial = 0;
  /// Total flows whose rate was re-solved, summed over reshares. The ratio
  /// flows_rescanned / reshares is the mean affected-component size.
  std::uint64_t flows_rescanned = 0;
  /// Transfer-phase flows observed stuck at rate 0 with bytes left (each is
  /// warned once via support/log; such a flow can never complete).
  std::uint64_t flows_starved = 0;
  /// Link capacity rescale events applied (churn link degradation/restore);
  /// each one also counts as a reshare.
  std::uint64_t link_rescales = 0;
  /// Peak number of concurrently live flow classes (incremental mode only).
  /// classes_active / peak concurrent flows is the compression ratio the
  /// class solver achieved: a 10^4-flow gather through one backbone runs at
  /// classes_active == 1.
  std::uint64_t classes_active = 0;
  /// Flows that joined an already-existing class (signature match), i.e.
  /// transfers that cost O(1) instead of a fresh class setup.
  std::uint64_t class_merges = 0;
  /// Mid-transfer reclassifications: a flow left its class and re-entered
  /// another because its signature changed (a link's member count crossed
  /// the shared/private boundary, or set_link_scale changed a private
  /// link's capacity token).
  std::uint64_t class_splits = 0;
};

class FlowNet {
 public:
  enum class Mode { Incremental, Reference };

  FlowNet(sim::Engine& engine, const Platform& platform, Mode mode = Mode::Incremental);
  ~FlowNet();
  FlowNet(const FlowNet&) = delete;
  FlowNet& operator=(const FlowNet&) = delete;

  /// Starts a flow of `bytes` from `src` to `dst`; `on_complete` fires (as a
  /// posted event) when the last byte arrives. A src==dst transfer completes
  /// immediately (loopback: no modelled cost). Zero-byte flows still pay the
  /// route latency. The callback is a sim::EventFn: the capture sets the
  /// overlay and P2PSAP pass (up to a moved CtrlMsg/Message) stay inline —
  /// no per-flow closure allocation.
  FlowId start_flow(NodeIdx src, NodeIdx dst, double bytes, sim::EventFn on_complete);

  /// Awaitable wrapper around start_flow.
  sim::Task<void> transfer(NodeIdx src, NodeIdx dst, double bytes);

  std::size_t active_flows() const { return live_flows_; }
  const FlowNetStats& stats() const { return stats_; }
  Mode mode() const { return mode_; }

  /// Current max-min rate of an active flow (0 while in the latency phase);
  /// exposed for tests of the sharing model.
  double flow_rate(FlowId id) const;

  /// Rescales a link's usable bandwidth (both directions) to `scale` x the
  /// platform's modelled capacity and re-solves the affected flows — the
  /// churn subsystem's link degradation/restoration hook. Works identically
  /// in both modes, so the differential oracle covers degraded networks.
  /// `scale` must be > 0 (a dead link would starve its flows forever).
  void set_link_scale(LinkIdx link, double scale);
  double link_scale(LinkIdx link) const;

  /// Pure what-if query: the max-min fair rates a set of simultaneous flows
  /// (one per (src, dst) endpoint pair) would get on an otherwise idle
  /// network, honoring churn link rescales. Never touches live flow state —
  /// this is the analytic planner's rate oracle. Entries with src == dst get
  /// an infinite rate (local delivery costs nothing, as in start_flow).
  /// The batch is solved by the live incremental solver's own rule: the
  /// same class signature (minus the live-only salt) and the same filling
  /// loop, over link records numbered per batch. A 10^4-endpoint gather
  /// query therefore solves in O(1) classes instead of O(endpoints^2), and
  /// the cost of a query never scales with the platform's link count.
  std::vector<double> hypothetical_rates(
      const std::vector<std::pair<NodeIdx, NodeIdx>>& endpoints) const;

 private:
  enum class Phase { Latency, Transfer };
  using Slot = std::uint32_t;
  using ClassSlot = std::uint32_t;
  static constexpr ClassSlot kNoClass = 0xffffffffu;

  /// One token of a class route signature. A hop is SHARED when its linkdir
  /// is crossed by >= 2 transfer flows — the token is the linkdir index, so
  /// class members provably contend on the very same resource — and PRIVATE
  /// when this flow is the linkdir's sole member — the token is the usable
  /// capacity, so equal-capacity private NICs are interchangeable (swapping
  /// them is an automorphism of the max-min constraint system). The private
  /// normalization is what collapses gather/scatter populations: N children
  /// streaming to one parent differ only in their private NIC, so they form
  /// one class of multiplicity N. An all-private route additionally carries
  /// a SALT token (the flow id) so flows on fully disjoint routes never
  /// merge: merging them would be rate-correct but would make the affected
  /// component (flows_rescanned, reshares_partial) drift from the flow-level
  /// truth the reference oracle and the pre-class goldens report.
  enum class TokKind : std::uint8_t { Private = 0, Shared = 1, Salt = 2 };
  struct SigTok {
    std::uint64_t v = 0;  // Shared: linkdir index; Private: capacity bits;
                          // Salt: flow id
    TokKind kind = TokKind::Private;
    bool operator==(const SigTok& o) const { return v == o.v && kind == o.kind; }
    bool operator!=(const SigTok& o) const { return !(*this == o); }
  };

  /// A lazily-pruned min-heap entry ordering class members by the credit
  /// level at which they drain. (done, id) pins the exact flow incarnation:
  /// entries whose flow left the class (or completed, or re-joined with a
  /// different done_credit) are skipped and dropped when they surface.
  struct MemberRef {
    double done = 0;
    Slot slot = 0;
    FlowId id = 0;
  };

  /// An equivalence class of transfer flows with identical route signature.
  /// All members share one max-min rate; `credit` counts the bytes served
  /// per member since the class was created, so a member with join-time
  /// residual R drains when credit reaches done_credit = credit(join) + R.
  struct FlowClass {
    std::vector<SigTok> sig;
    std::uint64_t sig_hash = 0;
    double private_min_cap = 0;  // min over PRIVATE tokens; +inf if none
    std::uint32_t mult = 0;      // member count
    double rate = 0;
    double credit = 0;  // bytes served per member, settled lazily
    Time last_touched = 0;
    /// Per SHARED sig position: index of this class's crossing entry in
    /// that linkdir's `classes` vector (back-pointer for swap-removal).
    std::vector<std::uint32_t> tally_pos;
    std::vector<MemberRef> member_heap;
    ClassSlot hash_next = kNoClass;  // intrusive hash-bucket chain
    std::uint64_t visit_epoch = 0;  // scratch: in the current affected set
    std::uint64_t fixed_epoch = 0;  // scratch: rate fixed in the current solve
    bool live = false;
  };

  struct Flow {
    FlowId id = 0;  // 0 = free slot
    double remaining = 0;  // reference mode / latency phase: bytes left
    double total_bytes = 0;
    double rate = 0;        // reference mode only; incremental reads the class
    Time last_touched = 0;  // reference mode only
    Phase phase = Phase::Latency;
    bool starve_warned = false;
    ClassSlot cls = kNoClass;     // incremental: transfer-phase class
    double done_credit = 0;       // incremental: class credit level at drain
    std::uint64_t reclass_epoch = 0;  // scratch: queued for reclassification
    std::vector<Hop> hops;
    std::vector<std::uint32_t> link_pos;  // per-hop index into LinkDir::members
    sim::EventFn on_complete;
  };

  /// One crossing of a linkdir by a transfer-phase flow; `hop` is the index
  /// into that flow's hops/link_pos, so swap-removal can fix back-pointers.
  struct LinkMember {
    Slot slot = 0;
    std::uint32_t hop = 0;
  };

  /// One crossing of a linkdir by a flow class's SHARED sig position. The
  /// class's multiplicity is the crossing count, so no count is stored.
  struct ClassCrossing {
    ClassSlot cls = 0;
    std::uint32_t sig_pos = 0;
  };

  /// Dense per-direction link record (index = linkdir_index(hop)).
  struct LinkDir {
    double capacity = 0;
    std::vector<LinkMember> members;
    std::vector<ClassCrossing> classes;  // incremental: shared-hop tallies
    bool dirty = false;
    std::uint64_t visit_epoch = 0;  // scratch: in the current component
  };

  /// Signature hash -> head of an intrusive FlowClass::hash_next chain.
  using ClassIndex = std::unordered_map<std::uint64_t, ClassSlot>;

  /// Progressive-filling workspace for one component: its shared links in
  /// component order, and their residual capacity and unfixed crossing
  /// count (`cap`/`nun`, indexed like the link records), plus the classes
  /// that carry a finite private capacity.
  struct Filling {
    std::vector<std::size_t> links;
    std::vector<double> cap;
    std::vector<int> nun;
    std::vector<ClassSlot> private_classes;
  };

  Slot alloc_slot();
  void release_slot(Slot slot);
  void sync_linkdirs();
  void mark_dirty(std::size_t linkdir);
  void begin_transfer(Slot slot);
  void remove_membership(Slot slot);
  void warn_starved(Flow& f, double remaining);
  void on_completion_event();

  // Incremental engine: class bookkeeping plus component-local re-solve of
  // every class reachable from dirty linkdirs, then heap re-key per class.
  static std::uint64_t hash_sig(const std::vector<SigTok>& sig);
  static SigTok hop_token(std::size_t link, std::size_t crossings, double capacity);
  static ClassSlot find_class(const ClassIndex& index,
                              const std::vector<FlowClass>& classes, std::uint64_t h,
                              const std::vector<SigTok>& sig);
  static void open_class(ClassSlot cs, std::vector<FlowClass>& classes,
                         std::vector<LinkDir>& links, ClassIndex& index,
                         const std::vector<SigTok>& sig, std::uint64_t h);
  static void fill_classes(Filling& fill, std::vector<FlowClass>& classes,
                           const std::vector<LinkDir>& links, std::size_t unfixed,
                           std::uint64_t epoch);
  void build_signature(const Flow& f);
  ClassSlot alloc_class();
  void classify_flow(Slot slot, double remaining, Time now);
  double leave_class(Slot slot, Time now);
  void destroy_class(ClassSlot cs);
  void settle_class(FlowClass& c, Time now);
  bool member_valid(ClassSlot cs, const MemberRef& m) const;
  Time class_completion_key(ClassSlot cs, Time now);
  void queue_reclass(Slot slot);
  void process_reclass_queue(Time now);
  void resolve_dirty();
  void rearm_completion_timer();

  // Reference oracle: the original O(flows x links) full recompute.
  void reference_reshare();
  void reference_advance_progress();
  void reference_recompute_rates();
  void reference_schedule_next_completion();
  void reference_completion_event();

  sim::Engine* engine_;
  const Platform* platform_;
  Mode mode_;

  std::vector<Flow> flows_;  // slot-map: stable slots, cache-linear iteration
  std::vector<Slot> free_slots_;
  std::unordered_map<FlowId, Slot> id_to_slot_;
  std::size_t live_flows_ = 0;      // latency + transfer phase
  std::size_t transfer_flows_ = 0;  // transfer phase only
  FlowId next_id_ = 1;

  std::vector<LinkDir> linkdirs_;
  std::vector<double> link_scales_;  // per link (not per direction), default 1
  std::vector<std::size_t> dirty_linkdirs_;

  // Class storage: slot-map plus an intrusive hash index over signatures.
  std::vector<FlowClass> classes_;
  std::vector<ClassSlot> free_classes_;
  ClassIndex class_index_;
  std::size_t live_classes_ = 0;

  // Solver scratch, persistent to avoid per-reshare allocation. fill_.cap
  // and fill_.nun are linkdir-indexed and only valid for the current
  // component.
  std::uint64_t epoch_ = 0;
  Filling fill_;
  std::vector<ClassSlot> affected_classes_;
  std::vector<std::size_t> bfs_stack_;
  std::vector<Slot> done_scratch_;
  std::vector<ClassSlot> popped_classes_;
  std::vector<SigTok> sig_scratch_;
  std::vector<Slot> reclass_queue_;
  std::uint64_t reclass_epoch_ = 1;

  // Key: absolute completion time of the class's earliest-draining member.
  IndexedMinHeap<Time, ClassSlot> completion_heap_;
  int timer_slot_ = -1;
  Time armed_at_ = kTimeInfinity;  // absolute time the slot is armed for

  Time last_update_ = 0;  // reference mode: global progress timestamp
  FlowNetStats stats_;
};

}  // namespace pdc::net
