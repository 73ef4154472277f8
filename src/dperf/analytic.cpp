#include "dperf/analytic.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "alloc/groups.hpp"
#include "dperf/summary.hpp"
#include "net/flow.hpp"
#include "p2psap/p2psap.hpp"

namespace pdc::dperf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Arrival/resume pair of one modelled message: when the payload becomes
/// available at the receiver, and when the sender's clock resumes (after
/// the transport ack for reliable channels, immediately for async ones).
struct SendTiming {
  double arrival = 0;
  double resume = 0;
};

/// Cursor over a rank's trace events. `in_body` is set from the first
/// iteration marker on; `send_k` is the send index within the current
/// iteration body — the key of the phase-rate cache.
struct Cursor {
  std::size_t at = 0;
  std::size_t send_k = 0;
  bool in_body = false;
  bool finished = false;
};

struct RankState {
  net::NodeIdx host = -1;
  double scale = 1.0;  // trace host_hz / target host_hz
  double clock = 0;
  double start = 0;
  bool at_allreduce = false;
  Cursor cur;
};

class Planner {
 public:
  Planner(p2pdc::Environment& env, net::NodeIdx submitter, p2pdc::TaskSpec spec,
          const std::vector<Trace>& traces, const std::vector<net::NodeIdx>& workers)
      : env_(env),
        platform_(env.platform()),
        flownet_(env.flownet()),
        submitter_(submitter),
        spec_(std::move(spec)),
        traces_(traces),
        workers_(workers) {}

  AnalyticReport run();

 private:
  // --- rate oracle ---------------------------------------------------------
  std::vector<double> batch(
      const std::vector<std::pair<net::NodeIdx, net::NodeIdx>>& endpoints) {
    ++queries_;
    return flownet_.hypothetical_rates(endpoints);
  }
  double unloaded(net::NodeIdx a, net::NodeIdx b) {
    if (a == b) return kInf;
    const auto key = std::make_pair(a, b);
    auto it = unloaded_.find(key);
    if (it != unloaded_.end()) return it->second;
    const double r = batch({{a, b}})[0];
    unloaded_.emplace(key, r);
    return r;
  }

  // --- channel cost model --------------------------------------------------
  /// Per-(pair, scheme) channel constants. Cached: adapt() builds a
  /// ChannelConfig with a heap-allocated profile string and route() walks
  /// the routing cache, and the evaluator asks for the same pair once per
  /// modelled message — thousands of times on the hot path.
  struct LinkCost {
    double latency = 0;
    double header_bytes = 0;
    double ack_bytes = 0;
  };
  const LinkCost& link_cost(net::NodeIdx a, net::NodeIdx b, p2psap::Scheme scheme) {
    const auto key = std::make_tuple(a, b, static_cast<int>(scheme));
    auto it = cost_cache_.find(key);
    if (it != cost_cache_.end()) return it->second;
    const p2psap::ChannelConfig cfg = p2psap::adapt(
        scheme, p2psap::classify(platform_.node(a).ip, platform_.node(b).ip));
    LinkCost lc;
    lc.latency = platform_.route(a, b).latency;
    lc.header_bytes = cfg.header_bytes;
    lc.ack_bytes = cfg.ack_bytes;
    return cost_cache_.emplace(key, lc).first->second;
  }
  /// Reliable send: payload flow, then transport ack back (P2PSAP
  /// Channel::send). A zero-byte ack still pays the reverse route latency,
  /// exactly like FlowNet's latency phase.
  SendTiming sync_send(double t, net::NodeIdx a, net::NodeIdx b, double payload,
                       p2psap::Scheme scheme, double rate_fwd = 0) {
    if (a == b) return {t, t};
    const LinkCost& fwd_cost = link_cost(a, b, scheme);
    const double fwd = rate_fwd > 0 ? rate_fwd : unloaded(a, b);
    if (!(fwd > 0)) {
      starved_ = true;
      return {kInf, kInf};
    }
    const double arrival = t + fwd_cost.latency + (payload + fwd_cost.header_bytes) / fwd;
    const double back = fwd_cost.ack_bytes > 0 ? unloaded(b, a) : kInf;
    const double resume = arrival + link_cost(b, a, scheme).latency +
                          (back > 0 ? fwd_cost.ack_bytes / back : kInf);
    return {arrival, resume};
  }
  /// Fire-and-forget send: the sender resumes immediately.
  SendTiming async_send(double t, net::NodeIdx a, net::NodeIdx b, double payload,
                        double rate_fwd = 0) {
    if (a == b) return {t, t};
    const LinkCost& cfg = link_cost(a, b, p2psap::Scheme::Asynchronous);
    const double fwd = rate_fwd > 0 ? rate_fwd : unloaded(a, b);
    if (!(fwd > 0)) {
      starved_ = true;
      return {kInf, t};
    }
    return {t + cfg.latency + (payload + cfg.header_bytes) / fwd, t};
  }
  double rtt(net::NodeIdx a, net::NodeIdx b, double payload) {
    return sync_send(0, a, b, payload, p2psap::Scheme::Synchronous).resume;
  }

  // --- plan stages ---------------------------------------------------------
  bool place();  // groups + rank hosts; false on failure
  double collection_model();
  void allocation_model();
  void precompute_phase_rates(const std::vector<TraceSummary>& summaries);
  bool evaluate();  // false on deadlock
  double gather_model();
  std::vector<double> allreduce_exits(const std::vector<double>& entry);

  const TraceEvent* current(int r);
  void run_until_blocked(int r);

  p2pdc::Environment& env_;
  const net::Platform& platform_;
  const net::FlowNet& flownet_;
  net::NodeIdx submitter_;
  p2pdc::TaskSpec spec_;
  const std::vector<Trace>& traces_;
  const std::vector<net::NodeIdx>& workers_;

  std::vector<alloc::Group> groups_;
  std::vector<RankState> ranks_;
  std::vector<int> coord_rank_;  // per group
  std::vector<int> group_of_;    // per rank
  std::vector<int> base_rank_;   // per group: rank of member index 0

  // Allocation residue the gather model needs.
  std::vector<double> coord_after_forward_;  // per group
  std::vector<double> submitter_resume_;     // per group (hier) or unused (flat)
  double t_allocated_ = 0;

  // Phase-k contended rates for iteration-body data sends.
  std::vector<std::vector<double>> phase_rate_;  // [rank][send_k]

  // In-flight messages between ranks, keyed (src, dst, tag).
  std::map<std::tuple<int, int, int>, std::deque<double>> sync_q_;
  std::map<std::tuple<int, int, int>, std::multiset<double>> async_q_;

  std::map<std::pair<net::NodeIdx, net::NodeIdx>, double> unloaded_;
  std::map<std::tuple<net::NodeIdx, net::NodeIdx, int>, LinkCost> cost_cache_;
  std::uint64_t queries_ = 0;
  std::uint64_t ops_ = 0;
  bool starved_ = false;
  std::string failure_;
};

bool Planner::place() {
  const int n = static_cast<int>(traces_.size());
  if (static_cast<int>(workers_.size()) < n) {
    failure_ = "not enough peers: wanted " + std::to_string(n) + ", have " +
               std::to_string(workers_.size());
    return false;
  }
  // The peers allocation would reserve: the worker population (its first
  // `n` hosts when the computation is smaller than the overlay). Grouping
  // IP-sorts, so the flattened rank order is the one replay produces for
  // the same peer set.
  std::vector<overlay::PeerRef> peers;
  peers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const net::NodeIdx h = workers_[static_cast<std::size_t>(i)];
    peers.push_back(overlay::PeerRef{h, platform_.node(h).ip,
                                     p2pdc::worker_resources(platform_, h)});
  }
  groups_ = alloc::form_groups(std::move(peers), spec_.cmax);
  ranks_.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    base_rank_.push_back(static_cast<int>(ranks_.size()));
    for (std::size_t m = 0; m < groups_[g].members.size(); ++m) {
      if (m == groups_[g].coordinator)
        coord_rank_.push_back(static_cast<int>(ranks_.size()));
      RankState rs;
      rs.host = groups_[g].members[m].node;
      const double hz = platform_.node(rs.host).speed_hz;
      rs.scale = traces_[ranks_.size()].host_hz / (hz > 0 ? hz : 3e9);
      ranks_.push_back(rs);
      group_of_.push_back(static_cast<int>(g));
    }
  }
  return true;
}

double Planner::collection_model() {
  // Crude: one tracker RPC round trip (closest core tracker) plus the
  // slowest parallel reserve handshake. Only total_seconds sees this — the
  // solve-time gate is allocation + evaluation.
  const double ctrl = env_.over().config().ctrl_bytes;
  double t = 0;
  double best = kInf;
  for (const overlay::TrackerRef& tr : env_.over().install_tracker_list())
    best = std::min(best, rtt(submitter_, tr.node, ctrl));
  if (best < kInf) t += best;
  double reserve = 0;
  for (const RankState& r : ranks_) reserve = std::max(reserve, rtt(submitter_, r.host, ctrl));
  return t + reserve;
}

void Planner::allocation_model() {
  const auto sync = p2psap::Scheme::Synchronous;
  const std::size_t G = groups_.size();
  coord_after_forward_.assign(G, 0);
  submitter_resume_.assign(G, 0);
  if (spec_.allocation == p2pdc::AllocationMode::Flat) {
    // One submitter coroutine connects to each rank in succession: reverse
    // (64 B) then the subtask, each awaited in full.
    double t = 0;
    for (RankState& r : ranks_) {
      t = sync_send(t, submitter_, r.host, 64, sync).resume;
      const SendTiming st = sync_send(t, submitter_, r.host, spec_.subtask_bytes, sync);
      r.start = r.clock = st.arrival;
      t = st.resume;
    }
  } else {
    // Hierarchical: G parallel submitter senders (assign then bundle on one
    // channel each — the G assign flows are concurrent, so they share the
    // submitter's uplink), coordinators fan out reverse + subtask within
    // the group.
    std::vector<std::pair<net::NodeIdx, net::NodeIdx>> sub_routes;
    for (std::size_t g = 0; g < G; ++g)
      sub_routes.emplace_back(submitter_, ranks_[static_cast<std::size_t>(coord_rank_[g])].host);
    const std::vector<double> sub_rate = batch(sub_routes);
    for (std::size_t g = 0; g < G; ++g) {
      const alloc::Group& grp = groups_[g];
      const auto m_count = static_cast<double>(grp.members.size());
      const net::NodeIdx coord = grp.coordinator_ref().node;
      const SendTiming assign =
          sync_send(0, submitter_, coord, 64 + 16.0 * m_count, sync, sub_rate[g]);
      const SendTiming bundle = sync_send(assign.resume, submitter_, coord,
                                          spec_.subtask_bytes * m_count, sync, sub_rate[g]);
      submitter_resume_[g] = bundle.resume;
      // Coordinator: reverse fan-out after the assign, then the forwarded
      // subtasks after the bundle lands. Member flows within one group are
      // concurrent — one max-min query covers both fan-outs.
      std::vector<std::pair<net::NodeIdx, net::NodeIdx>> member_routes;
      for (const overlay::PeerRef& member : grp.members)
        member_routes.emplace_back(coord, member.node);
      const std::vector<double> mem_rate = batch(member_routes);
      double t_rev = assign.arrival;
      for (std::size_t m = 0; m < grp.members.size(); ++m)
        t_rev = std::max(t_rev, sync_send(assign.arrival, coord, grp.members[m].node, 64,
                                          sync, mem_rate[m])
                                    .resume);
      const double t_b = std::max(t_rev, bundle.arrival);
      double t_fwd = t_b;
      for (std::size_t m = 0; m < grp.members.size(); ++m) {
        const SendTiming st =
            sync_send(t_b, coord, grp.members[m].node, spec_.subtask_bytes, sync, mem_rate[m]);
        RankState& rank = ranks_[static_cast<std::size_t>(base_rank_[g]) + m];
        rank.start = rank.clock = st.arrival;
        t_fwd = std::max(t_fwd, st.resume);
      }
      coord_after_forward_[g] = t_fwd;
    }
  }
  t_allocated_ = 0;
  for (const RankState& r : ranks_) t_allocated_ = std::max(t_allocated_, r.start);
}

void Planner::precompute_phase_rates(const std::vector<TraceSummary>& summaries) {
  // The k-th data send of each rank's steady iteration body forms one
  // (approximately) simultaneous flow set; one max-min query per k prices
  // the contention the replay's flow engine would resolve per message.
  const std::size_t n = ranks_.size();
  std::size_t max_k = 0;
  for (const TraceSummary& s : summaries) max_k = std::max(max_k, s.steady_sends.size());
  phase_rate_.assign(n, {});
  for (std::size_t k = 0; k < max_k; ++k) {
    std::vector<std::pair<net::NodeIdx, net::NodeIdx>> endpoints;
    std::vector<std::size_t> who;
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<int>& sends = summaries[r].steady_sends;
      if (k >= sends.size()) continue;
      const int dst = sends[k];
      if (dst < 0 || dst >= static_cast<int>(n)) continue;
      endpoints.emplace_back(ranks_[r].host, ranks_[static_cast<std::size_t>(dst)].host);
      who.push_back(r);
    }
    const std::vector<double> rates = batch(endpoints);
    for (std::size_t i = 0; i < who.size(); ++i) {
      std::vector<double>& pr = phase_rate_[who[i]];
      if (pr.size() <= k) pr.resize(k + 1, 0);
      pr[k] = rates[i];
    }
  }
}

const TraceEvent* Planner::current(int r) {
  // Iteration markers carry no cost and are not counted as ops: each one
  // opens an iteration body and restarts its send index.
  Cursor& c = ranks_[static_cast<std::size_t>(r)].cur;
  const std::vector<TraceEvent>& events = traces_[static_cast<std::size_t>(r)].events;
  for (; c.at < events.size(); ++c.at) {
    if (events[c.at].kind != TraceEvent::Kind::IterMark) return &events[c.at];
    c.in_body = true;
    c.send_k = 0;
  }
  c.finished = true;
  return nullptr;
}

void Planner::run_until_blocked(int r) {
  RankState& rs = ranks_[static_cast<std::size_t>(r)];
  const bool sync_scheme = spec_.scheme == p2psap::Scheme::Synchronous;
  while (const TraceEvent* e = current(r)) {
    Cursor& c = rs.cur;
    switch (e->kind) {
      case TraceEvent::Kind::Compute:
        rs.clock += static_cast<double>(e->ns) * 1e-9 * rs.scale;
        break;
      case TraceEvent::Kind::Send: {
        const int dst = e->peer;
        if (dst < 0 || dst >= static_cast<int>(ranks_.size())) break;  // dropped
        double rate = 0;
        if (c.in_body && c.send_k < phase_rate_[static_cast<std::size_t>(r)].size())
          rate = phase_rate_[static_cast<std::size_t>(r)][c.send_k];
        const net::NodeIdx dst_host = ranks_[static_cast<std::size_t>(dst)].host;
        if (sync_scheme) {
          const SendTiming st =
              sync_send(rs.clock, rs.host, dst_host, e->bytes, spec_.scheme, rate);
          sync_q_[{r, dst, e->tag}].push_back(st.arrival);
          rs.clock = st.resume;
        } else {
          const SendTiming st = async_send(rs.clock, rs.host, dst_host, e->bytes, rate);
          async_q_[{r, dst, e->tag}].insert(st.arrival);
        }
        if (c.in_body) ++c.send_k;
        break;
      }
      case TraceEvent::Kind::Recv: {
        const int src = e->peer;
        if (sync_scheme) {
          auto it = sync_q_.find({src, r, e->tag});
          if (it == sync_q_.end() || it->second.empty()) return;  // blocked
          rs.clock = std::max(rs.clock, it->second.front());
          it->second.pop_front();
        } else {
          auto it = async_q_.find({src, r, e->tag});
          if (it == async_q_.end() || it->second.empty()) return;  // blocked
          std::multiset<double>& arr = it->second;
          auto past_end = arr.upper_bound(rs.clock);
          if (past_end != arr.begin()) {
            // Latest-value semantics: everything already delivered collapses
            // into the freshest value; the receiver does not wait.
            arr.erase(arr.begin(), past_end);
          } else {
            // Wait for the next delivery.
            rs.clock = *arr.begin();
            arr.erase(arr.begin());
          }
        }
        break;
      }
      case TraceEvent::Kind::Allreduce:
        rs.at_allreduce = true;
        return;
      case TraceEvent::Kind::IterMark:
        break;  // current() consumes markers
    }
    ++ops_;
    ++c.at;
  }
}

std::vector<double> Planner::allreduce_exits(const std::vector<double>& entry) {
  // Exact mirror of Computation::allreduce_max's hierarchical tree, with
  // unloaded rates for the 16-byte control messages.
  const auto sync = p2psap::Scheme::Synchronous;
  const double kReduceBytes = 16;
  const std::size_t n = ranks_.size();
  const std::size_t G = groups_.size();
  const int root = coord_rank_[0];
  std::vector<double> exit(n, 0), arr_up(n, 0), res_up(n, 0);

  // Leaves send up to their coordinator.
  for (std::size_t r = 0; r < n; ++r) {
    const int g = group_of_[r];
    const int c = coord_rank_[static_cast<std::size_t>(g)];
    if (static_cast<int>(r) == c) continue;
    const SendTiming st = sync_send(entry[r], ranks_[r].host,
                                    ranks_[static_cast<std::size_t>(c)].host, kReduceBytes, sync);
    arr_up[r] = st.arrival;
    res_up[r] = st.resume;
  }
  // Coordinators gather serially in member order.
  std::vector<double> after_gather(G, 0);
  for (std::size_t g = 0; g < G; ++g) {
    const int c = coord_rank_[g];
    double t = entry[static_cast<std::size_t>(c)];
    for (std::size_t m = 0; m < groups_[g].members.size(); ++m) {
      if (m == groups_[g].coordinator) continue;
      t = std::max(t, arr_up[static_cast<std::size_t>(base_rank_[g]) + m]);
    }
    after_gather[g] = t;
  }
  // Second level: non-root coordinators reduce at the root.
  std::vector<double> arr_mid(G, 0), res_mid(G, 0);
  for (std::size_t g = 1; g < G; ++g) {
    const SendTiming st =
        sync_send(after_gather[g], ranks_[static_cast<std::size_t>(coord_rank_[g])].host,
                  ranks_[static_cast<std::size_t>(root)].host, kReduceBytes, sync);
    arr_mid[g] = st.arrival;
    res_mid[g] = st.resume;
  }
  double t_root = after_gather[0];
  for (std::size_t g = 1; g < G; ++g) t_root = std::max(t_root, arr_mid[g]);
  // Root broadcasts to the other coordinators (parallel latch).
  std::vector<double> coord_clock(G, 0);
  double t_bc = t_root;
  for (std::size_t g = 1; g < G; ++g) {
    const SendTiming st =
        sync_send(t_root, ranks_[static_cast<std::size_t>(root)].host,
                  ranks_[static_cast<std::size_t>(coord_rank_[g])].host, kReduceBytes, sync);
    coord_clock[g] = std::max(res_mid[g], st.arrival);
    t_bc = std::max(t_bc, st.resume);
  }
  coord_clock[0] = t_bc;
  // Every coordinator broadcasts down to its members (parallel latch).
  for (std::size_t g = 0; g < G; ++g) {
    const int c = coord_rank_[g];
    double t = coord_clock[g];
    for (std::size_t m = 0; m < groups_[g].members.size(); ++m) {
      if (m == groups_[g].coordinator) continue;
      const std::size_t r = static_cast<std::size_t>(base_rank_[g]) + m;
      const SendTiming st = sync_send(coord_clock[g], ranks_[static_cast<std::size_t>(c)].host,
                                      ranks_[r].host, kReduceBytes, sync);
      exit[r] = std::max(res_up[r], st.arrival);
      t = std::max(t, st.resume);
    }
    exit[static_cast<std::size_t>(c)] = t;
  }
  return exit;
}

bool Planner::evaluate() {
  const std::size_t n = ranks_.size();
  while (true) {
    bool all_finished = true;
    for (const RankState& r : ranks_) all_finished &= r.cur.finished;
    if (all_finished) return true;

    const std::uint64_t before = ops_;
    for (std::size_t r = 0; r < n; ++r)
      if (!ranks_[r].cur.finished && !ranks_[r].at_allreduce)
        run_until_blocked(static_cast<int>(r));

    std::size_t waiting = 0;
    for (const RankState& r : ranks_) waiting += r.at_allreduce ? 1 : 0;
    if (waiting == n) {
      std::vector<double> entry(n);
      for (std::size_t r = 0; r < n; ++r) entry[r] = ranks_[r].clock;
      const std::vector<double> exits = allreduce_exits(entry);
      for (std::size_t r = 0; r < n; ++r) {
        ranks_[r].clock = exits[r];
        ranks_[r].at_allreduce = false;
        ++ranks_[r].cur.at;  // step past the allreduce
        ++ops_;
      }
      continue;
    }
    if (ops_ == before) {
      failure_ = "analytic evaluation deadlocked (mismatched trace events)";
      return false;
    }
  }
}

double Planner::gather_model() {
  const auto sync = p2psap::Scheme::Synchronous;
  double t_finished = 0;
  if (spec_.allocation == p2pdc::AllocationMode::Flat) {
    std::vector<std::pair<net::NodeIdx, net::NodeIdx>> routes;
    for (const RankState& r : ranks_) routes.emplace_back(r.host, submitter_);
    const std::vector<double> rates = batch(routes);
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      t_finished = std::max(t_finished, sync_send(ranks_[r].clock, ranks_[r].host, submitter_,
                                                  spec_.result_bytes, sync, rates[r])
                                            .arrival);
    return t_finished;
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const alloc::Group& grp = groups_[g];
    const net::NodeIdx coord = grp.coordinator_ref().node;
    std::vector<std::pair<net::NodeIdx, net::NodeIdx>> routes;
    for (const overlay::PeerRef& member : grp.members) routes.emplace_back(member.node, coord);
    const std::vector<double> rates = batch(routes);
    // Coordinator recvs serially in member order from its post-forward clock.
    double t = coord_after_forward_[g];
    for (std::size_t m = 0; m < grp.members.size(); ++m) {
      const std::size_t r = static_cast<std::size_t>(base_rank_[g]) + m;
      t = std::max(t, sync_send(ranks_[r].clock, ranks_[r].host, coord, spec_.result_bytes,
                                sync, rates[m])
                          .arrival);
    }
    const double per_ref = 16;
    const auto m_count = static_cast<double>(grp.members.size());
    const SendTiming bundle = sync_send(
        t, coord, submitter_, spec_.result_bytes * m_count + per_ref * m_count, sync);
    t_finished = std::max(t_finished, std::max(submitter_resume_[g], bundle.arrival));
  }
  return t_finished;
}

AnalyticReport Planner::run() {
  AnalyticReport rep;
  const std::size_t n = traces_.size();
  if (n == 0) {
    rep.failure = "no rank traces";
    return rep;
  }
  std::vector<TraceSummary> summaries;
  summaries.reserve(n);
  for (const Trace& t : traces_) {
    summaries.push_back(summarize_trace(t));
    if (summaries.back().collectives != summaries[0].collectives) {
      rep.failure = "rank traces disagree on collective count (rank " +
                    std::to_string(t.rank) + " has " +
                    std::to_string(summaries.back().collectives) + ", rank " +
                    std::to_string(traces_[0].rank) + " has " +
                    std::to_string(summaries[0].collectives) + ")";
      return rep;
    }
  }
  if (!place()) {
    rep.failure = failure_;
    return rep;
  }
  rep.peers = static_cast<int>(n);
  rep.groups = static_cast<int>(groups_.size());

  const double collection = collection_model();
  allocation_model();
  precompute_phase_rates(summaries);
  const bool ok = evaluate();
  const double t_finished = ok ? gather_model() : 0;

  rep.ops_evaluated = ops_;
  rep.rate_queries = queries_;
  if (!ok) {
    rep.failure = failure_;
    return rep;
  }
  if (starved_) {
    rep.failure = "a modelled route has zero capacity (starved flow)";
    return rep;
  }
  double first_start = kInf, last_end = 0;
  for (const RankState& r : ranks_) {
    first_start = std::min(first_start, r.start);
    last_end = std::max(last_end, r.clock);
  }
  rep.solve_seconds = last_end > first_start ? last_end - first_start : 0;
  rep.collection_seconds = collection;
  rep.allocation_seconds = t_allocated_;
  rep.total_seconds = collection + t_finished;
  rep.ok = true;
  return rep;
}

}  // namespace

AnalyticReport plan_on(p2pdc::Environment& env, net::NodeIdx submitter_host,
                       p2pdc::TaskSpec spec, const std::vector<Trace>& traces,
                       const std::vector<net::NodeIdx>& worker_hosts) {
  Planner planner(env, submitter_host, std::move(spec), traces, worker_hosts);
  return planner.run();
}

}  // namespace pdc::dperf
