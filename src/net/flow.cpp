#include "net/flow.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "support/log.hpp"

namespace pdc::net {

namespace {
// Bytes below this are considered fully transferred (guards float drift).
constexpr double kByteEpsilon = 1e-6;

// Completion-tie window: flows whose projected completion lands within this
// slack of the firing time complete together. A few ulps of relative slack
// absorbs float drift between lazily-settled projections (arm time vs heap
// key); it must stay >= 2 ulp so a rearm after a short pop always lands
// strictly later, yet small enough that early-completed flows have far less
// than kByteEpsilon bytes left at any realistic rate. The same window,
// converted to bytes at the class rate, absorbs the rounding of the class
// credit counter: credit <= rate * now, so ulp(credit) <= rate * now * 2e-16
// is always inside rate * (cutoff - now).
constexpr Time completion_cutoff(Time now) { return now * (1.0 + 4e-16) + 1e-12; }

constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FlowNet::FlowNet(sim::Engine& engine, const Platform& platform, Mode mode)
    : engine_(&engine), platform_(&platform), mode_(mode) {
  sync_linkdirs();
  timer_slot_ = engine_->create_timer_slot([this] { on_completion_event(); });
}

FlowNet::~FlowNet() {
  // Free the slot (and its captured `this`) so a queued completion event can
  // never call into a dead FlowNet and the engine can recycle the id.
  engine_->destroy_timer_slot(timer_slot_);
}

void FlowNet::sync_linkdirs() {
  // The platform may gain links after construction; grow the dense mirrors.
  const std::size_t want = platform_->linkdir_count();
  link_scales_.resize(want / 2, 1.0);
  while (linkdirs_.size() < want) {
    const auto link = static_cast<LinkIdx>(linkdirs_.size() / 2);
    LinkDir ld;
    ld.capacity = platform_->link(link).bandwidth_Bps *
                  link_scales_[static_cast<std::size_t>(link)];
    linkdirs_.push_back(std::move(ld));
  }
  if (fill_.cap.size() < want) {
    fill_.cap.resize(want, 0.0);
    fill_.nun.resize(want, 0);
  }
}

void FlowNet::set_link_scale(LinkIdx link, double scale) {
  if (!(scale > 0))
    throw std::invalid_argument("FlowNet::set_link_scale: scale must be > 0");
  sync_linkdirs();
  link_scales_[static_cast<std::size_t>(link)] = scale;
  const double capacity = platform_->link(link).bandwidth_Bps * scale;
  for (int dir = 0; dir < 2; ++dir) {
    const std::size_t li = linkdir_index(Hop{link, dir});
    linkdirs_[li].capacity = capacity;
    mark_dirty(li);
    // A private link's capacity is part of its member's class signature, so
    // a rescale must re-classify the sole member (class split). Shared
    // links are signed by linkdir index; their classes are unaffected.
    if (mode_ == Mode::Incremental && linkdirs_[li].members.size() == 1)
      queue_reclass(linkdirs_[li].members[0].slot);
  }
  ++stats_.link_rescales;
  ++stats_.reshares;
  if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
    tr->instant(tr->track("flownet"), "rescale", engine_->now(),
                {{"link", link}, {"scale", scale}});
  if (mode_ == Mode::Reference) {
    reference_reshare();
  } else {
    process_reclass_queue(engine_->now());
    resolve_dirty();
  }
}

double FlowNet::link_scale(LinkIdx link) const {
  const auto i = static_cast<std::size_t>(link);
  return i < link_scales_.size() ? link_scales_[i] : 1.0;
}

FlowNet::Slot FlowNet::alloc_slot() {
  if (!free_slots_.empty()) {
    const Slot s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  flows_.emplace_back();
  return static_cast<Slot>(flows_.size() - 1);
}

void FlowNet::release_slot(Slot slot) {
  Flow& f = flows_[slot];
  id_to_slot_.erase(f.id);
  f.id = 0;
  f.cls = kNoClass;
  f.hops.clear();
  f.link_pos.clear();
  f.on_complete.reset();
  free_slots_.push_back(slot);
  --live_flows_;
}

FlowId FlowNet::start_flow(NodeIdx src, NodeIdx dst, double bytes,
                           sim::EventFn on_complete) {
  ++stats_.flows_started;
  const FlowId id = next_id_++;
  if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr) {
    const obs::TrackId t = tr->track("flownet");
    tr->async_begin(t, "flow", "flow", id, engine_->now(),
                    {{"src", src}, {"dst", dst}, {"bytes", bytes}});
    if (src == dst) tr->async_end(t, "flow", "flow", id, engine_->now());
  }
  if (src == dst) {
    ++stats_.flows_completed;
    stats_.bytes_completed += bytes;
    engine_->post(std::move(on_complete));
    return id;
  }
  const Route& route = platform_->route(src, dst);
  sync_linkdirs();
  const Slot slot = alloc_slot();
  Flow& f = flows_[slot];
  f.id = id;
  f.remaining = std::max(bytes, 0.0);
  f.total_bytes = f.remaining;
  f.rate = 0;
  f.phase = Phase::Latency;
  f.starve_warned = false;
  f.cls = kNoClass;
  f.done_credit = 0;
  f.last_touched = engine_->now();
  f.hops = route.hops;
  f.link_pos.assign(f.hops.size(), 0);
  f.on_complete = std::move(on_complete);
  id_to_slot_.emplace(id, slot);
  ++live_flows_;
  engine_->schedule_after(route.latency, [this, id] {
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end()) return;
    begin_transfer(it->second);
  });
  return id;
}

sim::Task<void> FlowNet::transfer(NodeIdx src, NodeIdx dst, double bytes) {
  // The gate lives on this coroutine's frame: the frame stays suspended on
  // gate.wait() until the completion callback opens it, so the capture is a
  // plain pointer and the whole await is allocation-free (the old
  // shared_ptr<Gate> cost two allocations per transfer — twice per reliable
  // P2PSAP message).
  sim::Gate gate{*engine_};
  start_flow(src, dst, bytes, [g = &gate] { g->open(); });
  co_await gate.wait();
}

std::vector<double> FlowNet::hypothetical_rates(
    const std::vector<std::pair<NodeIdx, NodeIdx>>& endpoints) const {
  // The batch is a private instance of the live solver's problem: one link
  // record per linkdir it crosses, numbered in first-crossing order, with
  // the platform's (churn-rescaled) capacity and the batch's crossing count.
  // Routes are copied as local link numbers: the route cache may evict.
  std::vector<double> rates(endpoints.size(), kInf);
  std::unordered_map<std::size_t, std::uint32_t> local;  // linkdir -> link
  std::vector<LinkDir> links;
  Filling fill;
  std::vector<std::uint32_t> route_links;  // every route, concatenated
  std::vector<std::size_t> route_end(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const auto [src, dst] = endpoints[i];
    if (src != dst) {
      for (const Hop& h : platform_->route(src, dst).hops) {
        const auto [it, fresh] =
            local.emplace(linkdir_index(h), static_cast<std::uint32_t>(links.size()));
        if (fresh) {
          links.emplace_back();
          fill.cap.push_back(platform_->link(h.link).bandwidth_Bps * link_scale(h.link));
          fill.nun.push_back(0);
        }
        ++fill.nun[it->second];
        route_links.push_back(it->second);
      }
    }
    route_end[i] = route_links.size();
  }
  for (std::size_t l = 0; l < links.size(); ++l)
    if (fill.nun[l] >= 2) fill.links.push_back(l);

  // Classes by the live signature rule. No salt: a what-if has no flow ids,
  // and merging disjoint all-private routes leaves every rate unchanged.
  std::vector<FlowClass> classes;
  ClassIndex index;
  std::vector<ClassSlot> cls(endpoints.size(), kNoClass);
  std::vector<SigTok> sig;
  for (std::size_t i = 0, begin = 0; i < endpoints.size(); begin = route_end[i++]) {
    if (endpoints[i].first == endpoints[i].second) continue;
    sig.clear();
    for (std::size_t k = begin; k < route_end[i]; ++k) {
      const std::uint32_t l = route_links[k];
      sig.push_back(hop_token(l, static_cast<std::size_t>(fill.nun[l]), fill.cap[l]));
    }
    const std::uint64_t h = hash_sig(sig);
    ClassSlot cs = find_class(index, classes, h, sig);
    if (cs == kNoClass) {
      cs = static_cast<ClassSlot>(classes.size());
      classes.emplace_back();
      open_class(cs, classes, links, index, sig, h);
      classes[cs].rate = kInf;  // a class no constraint reaches stays unbounded
      if (std::isfinite(classes[cs].private_min_cap)) fill.private_classes.push_back(cs);
    }
    ++classes[cs].mult;
    cls[i] = cs;
  }
  fill_classes(fill, classes, links, classes.size(), 1);
  for (std::size_t i = 0; i < endpoints.size(); ++i)
    if (cls[i] != kNoClass) rates[i] = classes[cls[i]].rate;
  return rates;
}

double FlowNet::flow_rate(FlowId id) const {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return 0.0;
  const Flow& f = flows_[it->second];
  if (mode_ == Mode::Incremental)
    return (f.phase == Phase::Transfer && f.cls != kNoClass) ? classes_[f.cls].rate
                                                             : 0.0;
  return f.rate;
}

void FlowNet::mark_dirty(std::size_t linkdir) {
  LinkDir& ld = linkdirs_[linkdir];
  if (!ld.dirty) {
    ld.dirty = true;
    dirty_linkdirs_.push_back(linkdir);
  }
}

void FlowNet::begin_transfer(Slot slot) {
  Flow& f = flows_[slot];
  const Time now = engine_->now();
  f.phase = Phase::Transfer;
  f.last_touched = now;
  ++transfer_flows_;
  for (std::uint32_t i = 0; i < f.hops.size(); ++i) {
    const std::size_t li = linkdir_index(f.hops[i]);
    LinkDir& ld = linkdirs_[li];
    f.link_pos[i] = static_cast<std::uint32_t>(ld.members.size());
    ld.members.push_back(LinkMember{slot, i});
    mark_dirty(li);
    // A link going 1 -> 2 members stops being private: its pre-existing sole
    // member's signature changes (capacity token -> linkdir token).
    if (mode_ == Mode::Incremental && ld.members.size() == 2)
      queue_reclass(ld.members[0].slot);
  }
  ++stats_.reshares;
  if (mode_ == Mode::Reference) {
    reference_reshare();
    return;
  }
  process_reclass_queue(now);
  classify_flow(slot, f.remaining, now);
  resolve_dirty();
}

void FlowNet::remove_membership(Slot slot) {
  Flow& f = flows_[slot];
  --transfer_flows_;
  for (std::uint32_t i = 0; i < f.hops.size(); ++i) {
    const std::size_t li = linkdir_index(f.hops[i]);
    LinkDir& ld = linkdirs_[li];
    const std::uint32_t pos = f.link_pos[i];
    const LinkMember moved = ld.members.back();
    ld.members[pos] = moved;
    ld.members.pop_back();
    if (moved.slot != slot || moved.hop != i)
      flows_[moved.slot].link_pos[moved.hop] = pos;
    mark_dirty(li);
    // A link going 2 -> 1 members becomes private for the survivor.
    if (mode_ == Mode::Incremental && ld.members.size() == 1)
      queue_reclass(ld.members[0].slot);
  }
}

void FlowNet::warn_starved(Flow& f, double remaining) {
  f.starve_warned = true;
  ++stats_.flows_starved;
  PDC_LOG_WARN("FlowNet: flow " + std::to_string(f.id) + " starved (rate 0, " +
               std::to_string(remaining) + " B left): it will never complete");
}

// ---------------------------------------------------------------------------
// Incremental engine: flow classes.

std::uint64_t FlowNet::hash_sig(const std::vector<SigTok>& sig) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const auto& t : sig) {
    h ^= t.v + static_cast<std::uint64_t>(t.kind) * 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  }
  return h;
}

FlowNet::SigTok FlowNet::hop_token(std::size_t link, std::size_t crossings,
                                   double capacity) {
  if (crossings >= 2) return SigTok{static_cast<std::uint64_t>(link), TokKind::Shared};
  return SigTok{std::bit_cast<std::uint64_t>(capacity), TokKind::Private};
}

FlowNet::ClassSlot FlowNet::find_class(const ClassIndex& index,
                                       const std::vector<FlowClass>& classes,
                                       std::uint64_t h, const std::vector<SigTok>& sig) {
  auto it = index.find(h);
  if (it == index.end()) return kNoClass;
  for (ClassSlot cand = it->second; cand != kNoClass; cand = classes[cand].hash_next)
    if (classes[cand].sig == sig) return cand;
  return kNoClass;
}

void FlowNet::open_class(ClassSlot cs, std::vector<FlowClass>& classes,
                         std::vector<LinkDir>& links, ClassIndex& index,
                         const std::vector<SigTok>& sig, std::uint64_t h) {
  FlowClass& c = classes[cs];
  c.sig.assign(sig.begin(), sig.end());
  c.sig_hash = h;
  c.private_min_cap = kInf;
  c.tally_pos.assign(c.sig.size(), 0);
  for (std::uint32_t p = 0; p < c.sig.size(); ++p) {
    if (c.sig[p].kind == TokKind::Shared) {
      const auto li = static_cast<std::size_t>(c.sig[p].v);
      c.tally_pos[p] = static_cast<std::uint32_t>(links[li].classes.size());
      links[li].classes.push_back(ClassCrossing{cs, p});
    } else if (c.sig[p].kind == TokKind::Private) {
      c.private_min_cap = std::min(c.private_min_cap, std::bit_cast<double>(c.sig[p].v));
    }
  }
  auto [it, inserted] = index.emplace(h, cs);
  if (!inserted) {
    c.hash_next = it->second;
    it->second = cs;
  } else {
    c.hash_next = kNoClass;
  }
}

void FlowNet::build_signature(const Flow& f) {
  sig_scratch_.clear();
  bool any_shared = false;
  for (const Hop& h : f.hops) {
    const std::size_t li = linkdir_index(h);
    sig_scratch_.push_back(
        hop_token(li, linkdirs_[li].members.size(), linkdirs_[li].capacity));
    any_shared |= sig_scratch_.back().kind == TokKind::Shared;
  }
  // An all-private route contends with nothing: salt it with the flow id so
  // fully disjoint flows keep separate classes (see SigTok).
  if (!any_shared) sig_scratch_.push_back(SigTok{f.id, TokKind::Salt});
}

FlowNet::ClassSlot FlowNet::alloc_class() {
  if (!free_classes_.empty()) {
    const ClassSlot cs = free_classes_.back();
    free_classes_.pop_back();
    return cs;
  }
  classes_.emplace_back();
  return static_cast<ClassSlot>(classes_.size() - 1);
}

void FlowNet::classify_flow(Slot slot, double remaining, Time now) {
  Flow& f = flows_[slot];
  build_signature(f);
  const std::uint64_t h = hash_sig(sig_scratch_);
  ClassSlot cs = find_class(class_index_, classes_, h, sig_scratch_);
  if (cs != kNoClass) {
    settle_class(classes_[cs], now);
    ++stats_.class_merges;
  } else {
    cs = alloc_class();
    open_class(cs, classes_, linkdirs_, class_index_, sig_scratch_, h);
    FlowClass& c = classes_[cs];
    c.mult = 0;
    c.rate = 0;
    c.credit = 0;
    c.last_touched = now;
    c.member_heap.clear();
    c.live = true;
    ++live_classes_;
    stats_.classes_active =
        std::max<std::uint64_t>(stats_.classes_active, live_classes_);
  }
  FlowClass& c = classes_[cs];
  f.cls = cs;
  f.done_credit = c.credit + std::max(remaining, 0.0);
  c.member_heap.push_back(MemberRef{f.done_credit, slot, f.id});
  std::push_heap(c.member_heap.begin(), c.member_heap.end(),
                 [](const MemberRef& a, const MemberRef& b) { return a.done > b.done; });
  ++c.mult;
}

double FlowNet::leave_class(Slot slot, Time now) {
  Flow& f = flows_[slot];
  const ClassSlot cs = f.cls;
  FlowClass& c = classes_[cs];
  settle_class(c, now);
  const double remaining = std::max(0.0, f.done_credit - c.credit);
  f.cls = kNoClass;  // the member_heap entry goes stale and is pruned lazily
  --c.mult;
  if (c.mult == 0) destroy_class(cs);
  return remaining;
}

void FlowNet::destroy_class(ClassSlot cs) {
  FlowClass& c = classes_[cs];
  for (std::uint32_t p = 0; p < c.sig.size(); ++p) {
    if (c.sig[p].kind != TokKind::Shared) continue;
    const auto li = static_cast<std::size_t>(c.sig[p].v);
    auto& tallies = linkdirs_[li].classes;
    const std::uint32_t pos = c.tally_pos[p];
    const ClassCrossing moved = tallies.back();
    tallies[pos] = moved;
    tallies.pop_back();
    if (moved.cls != cs || moved.sig_pos != p)
      classes_[moved.cls].tally_pos[moved.sig_pos] = pos;
  }
  // Unlink from the signature hash chain.
  auto it = class_index_.find(c.sig_hash);
  if (it != class_index_.end()) {
    if (it->second == cs) {
      if (c.hash_next == kNoClass)
        class_index_.erase(it);
      else
        it->second = c.hash_next;
    } else {
      for (ClassSlot prev = it->second; prev != kNoClass;
           prev = classes_[prev].hash_next) {
        if (classes_[prev].hash_next == cs) {
          classes_[prev].hash_next = c.hash_next;
          break;
        }
      }
    }
  }
  if (completion_heap_.contains(cs)) completion_heap_.erase(cs);
  c.sig.clear();
  c.tally_pos.clear();
  c.member_heap.clear();
  c.hash_next = kNoClass;
  c.live = false;
  free_classes_.push_back(cs);
  --live_classes_;
}

void FlowNet::settle_class(FlowClass& c, Time now) {
  if (c.rate > 0 && now > c.last_touched) c.credit += c.rate * (now - c.last_touched);
  c.last_touched = now;
}

bool FlowNet::member_valid(ClassSlot cs, const MemberRef& m) const {
  const Flow& f = flows_[m.slot];
  return f.id == m.id && f.cls == cs && f.done_credit == m.done;
}

Time FlowNet::class_completion_key(ClassSlot cs, Time now) {
  FlowClass& c = classes_[cs];
  auto cmp = [](const MemberRef& a, const MemberRef& b) { return a.done > b.done; };
  while (!c.member_heap.empty() && !member_valid(cs, c.member_heap.front())) {
    std::pop_heap(c.member_heap.begin(), c.member_heap.end(), cmp);
    c.member_heap.pop_back();
  }
  if (c.member_heap.empty()) return kTimeInfinity;
  const double left = c.member_heap.front().done - c.credit;
  if (left <= kByteEpsilon) return now;  // drains at the next event
  if (c.rate <= 0) return kTimeInfinity;  // starved: never completes
  return now + left / c.rate;
}

void FlowNet::queue_reclass(Slot slot) {
  Flow& f = flows_[slot];
  if (f.reclass_epoch == reclass_epoch_) return;
  f.reclass_epoch = reclass_epoch_;
  reclass_queue_.push_back(slot);
}

void FlowNet::process_reclass_queue(Time now) {
  for (const Slot slot : reclass_queue_) {
    Flow& f = flows_[slot];
    if (!f.id || f.phase != Phase::Transfer || f.cls == kNoClass) continue;
    // Skip if the signature is in fact unchanged (e.g. a rescale restored
    // the capacity a private token was built from).
    build_signature(f);
    if (sig_scratch_ == classes_[f.cls].sig) continue;
    const double remaining = leave_class(slot, now);
    classify_flow(slot, remaining, now);
    ++stats_.class_splits;
  }
  reclass_queue_.clear();
  ++reclass_epoch_;
}

void FlowNet::resolve_dirty() {
  const Time now = engine_->now();
  ++epoch_;
  fill_.links.clear();
  affected_classes_.clear();
  bfs_stack_.clear();

  // Affected component: everything reachable from dirty linkdirs over the
  // bipartite linkdir <-> class graph. Classes outside it keep their rates,
  // which is exact because max-min allocations decompose by component.
  // Private linkdirs (single member) are not component links — their
  // capacity enters the solve as the class's private_min_cap scalar — but
  // they still pull their sole member's class into the component.
  auto visit_linkdir = [&](std::size_t li) {
    LinkDir& ld = linkdirs_[li];
    if (ld.visit_epoch == epoch_) return;
    ld.visit_epoch = epoch_;
    if (ld.members.size() >= 2) fill_.links.push_back(li);
    bfs_stack_.push_back(li);
  };
  for (const std::size_t li : dirty_linkdirs_) {
    linkdirs_[li].dirty = false;
    visit_linkdir(li);
  }
  dirty_linkdirs_.clear();
  std::uint64_t member_total = 0;
  auto visit_class = [&](ClassSlot cs) {
    FlowClass& c = classes_[cs];
    if (c.visit_epoch == epoch_) return;
    c.visit_epoch = epoch_;
    affected_classes_.push_back(cs);
    member_total += c.mult;
    for (const SigTok& t : c.sig)
      if (t.kind == TokKind::Shared) visit_linkdir(static_cast<std::size_t>(t.v));
  };
  while (!bfs_stack_.empty()) {
    const std::size_t li = bfs_stack_.back();
    bfs_stack_.pop_back();
    LinkDir& ld = linkdirs_[li];
    if (ld.members.size() == 1)
      visit_class(flows_[ld.members[0].slot].cls);
    else
      for (const ClassCrossing& cc : ld.classes) visit_class(cc.cls);
  }

  stats_.flows_rescanned += member_total;
  if (member_total < transfer_flows_) ++stats_.reshares_partial;
  if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
    tr->instant(tr->track("flownet"), "reshare", now,
                {{"rescanned", member_total}});

  // Settle credit under the outgoing rates, then re-solve the component.
  fill_.private_classes.clear();
  for (const ClassSlot cs : affected_classes_) {
    FlowClass& c = classes_[cs];
    settle_class(c, now);
    c.rate = 0;
    if (std::isfinite(c.private_min_cap)) fill_.private_classes.push_back(cs);
  }
  for (const std::size_t li : fill_.links) {
    fill_.cap[li] = linkdirs_[li].capacity;
    fill_.nun[li] = static_cast<int>(linkdirs_[li].members.size());
  }
  fill_classes(fill_, classes_, linkdirs_, affected_classes_.size(), epoch_);

  // Re-key only the affected classes; untouched components keep their
  // absolute projected completion times.
  for (const ClassSlot cs : affected_classes_) {
    FlowClass& c = classes_[cs];
    if (c.rate <= 0) {
      for (const MemberRef& m : c.member_heap) {
        if (!member_valid(cs, m)) continue;
        Flow& f = flows_[m.slot];
        const double left = m.done - c.credit;
        if (left > kByteEpsilon && !f.starve_warned) warn_starved(f, left);
      }
    }
    completion_heap_.set(cs, class_completion_key(cs, now));
  }
  rearm_completion_timer();
}

void FlowNet::fill_classes(Filling& fill, std::vector<FlowClass>& classes,
                           const std::vector<LinkDir>& links, std::size_t unfixed,
                           std::uint64_t epoch) {
  // Progressive filling over classes, the same fixing rule as the reference
  // oracle. Each round takes the lowest fair share `best` over the shared
  // links (cap/nun) and the unfixed classes' private caps, then walks the
  // links in order and fixes every class crossing one at that share, then
  // fixes the classes whose private cap is that share. A fixed class charges
  // each of its shared links mult x rate. A private link constrains exactly
  // one class and leaves the problem with it, so it enters only through
  // private_min_cap; kept in the scan, it would wedge `best` at a consumed
  // capacity.
  bool fixed_any = false;
  auto fix_class = [&](ClassSlot cs, double best) {
    FlowClass& c = classes[cs];
    if (c.fixed_epoch == epoch) return;
    c.fixed_epoch = epoch;
    c.rate = best;
    --unfixed;
    fixed_any = true;
    for (const SigTok& t : c.sig) {
      if (t.kind != TokKind::Shared) continue;
      const auto hi = static_cast<std::size_t>(t.v);
      fill.cap[hi] = std::max(0.0, fill.cap[hi] - best * c.mult);
      fill.nun[hi] -= static_cast<int>(c.mult);
    }
  };
  while (unfixed > 0) {
    double best = kInf;
    for (const std::size_t li : fill.links)
      if (fill.nun[li] > 0) best = std::min(best, fill.cap[li] / fill.nun[li]);
    // Compact away already-fixed classes so the private-cap scan stays
    // proportional to what is still unfixed.
    std::size_t w = 0;
    for (const ClassSlot cs : fill.private_classes) {
      if (classes[cs].fixed_epoch == epoch) continue;
      fill.private_classes[w++] = cs;
      best = std::min(best, classes[cs].private_min_cap);
    }
    fill.private_classes.resize(w);
    if (!std::isfinite(best)) break;  // no constrained classes remain
    fixed_any = false;
    for (const std::size_t li : fill.links) {
      if (fill.nun[li] <= 0 || fill.cap[li] / fill.nun[li] > best * (1 + 1e-12)) continue;
      for (const ClassCrossing& cc : links[li].classes) fix_class(cc.cls, best);
    }
    for (const ClassSlot cs : fill.private_classes)
      if (classes[cs].fixed_epoch != epoch && classes[cs].private_min_cap <= best * (1 + 1e-12))
        fix_class(cs, best);
    if (!fixed_any) break;  // numeric safety
  }
}

void FlowNet::rearm_completion_timer() {
  const Time next = completion_heap_.empty() ? kTimeInfinity : completion_heap_.top_key();
  if (next >= kTimeInfinity) {
    if (armed_at_ < kTimeInfinity) {
      engine_->cancel_timer_slot(timer_slot_);
      armed_at_ = kTimeInfinity;
    }
    return;
  }
  if (armed_at_ == next && engine_->timer_slot_armed(timer_slot_)) return;
  armed_at_ = next;
  engine_->arm_timer_slot(timer_slot_, std::max(0.0, next - engine_->now()));
}

void FlowNet::on_completion_event() {
  if (mode_ == Mode::Reference) {
    reference_completion_event();
    return;
  }
  const Time now = engine_->now();
  armed_at_ = kTimeInfinity;  // the arm we are inside just fired
  const Time cutoff = completion_cutoff(now);
  done_scratch_.clear();
  popped_classes_.clear();
  auto cmp = [](const MemberRef& a, const MemberRef& b) { return a.done > b.done; };
  while (!completion_heap_.empty() && completion_heap_.top_key() <= cutoff) {
    const ClassSlot cs = completion_heap_.top();
    completion_heap_.pop();
    FlowClass& c = classes_[cs];
    settle_class(c, now);
    // Tie window in bytes at the class rate: members projected to drain
    // within the cutoff complete together (and the window absorbs the
    // rounding of the lazily-settled credit counter).
    const double window = std::max(kByteEpsilon, c.rate * (cutoff - now));
    bool destroyed = false;
    while (!c.member_heap.empty()) {
      const MemberRef top = c.member_heap.front();
      if (!member_valid(cs, top)) {
        std::pop_heap(c.member_heap.begin(), c.member_heap.end(), cmp);
        c.member_heap.pop_back();
        continue;
      }
      if (top.done - c.credit > window) break;
      std::pop_heap(c.member_heap.begin(), c.member_heap.end(), cmp);
      c.member_heap.pop_back();
      done_scratch_.push_back(top.slot);
      // Detach now so any duplicate heap entry for this flow goes stale.
      flows_[top.slot].cls = kNoClass;
      --c.mult;
      if (c.mult == 0) {
        destroy_class(cs);
        destroyed = true;
        break;
      }
    }
    if (!destroyed) popped_classes_.push_back(cs);
  }
  // Ascending id = start order, matching the reference oracle's map order.
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [this](Slot a, Slot b) { return flows_[a].id < flows_[b].id; });
  for (const Slot s : done_scratch_) remove_membership(s);
  for (const Slot s : done_scratch_) {
    Flow& f = flows_[s];
    ++stats_.flows_completed;
    stats_.bytes_completed += f.total_bytes;
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
      tr->async_end(tr->track("flownet"), "flow", "flow", f.id, now);
    engine_->post(std::move(f.on_complete));
    release_slot(s);
  }
  ++stats_.reshares;
  process_reclass_queue(now);
  // Popped classes that survive (a tie-window miss by a few ulps of credit)
  // must be re-keyed by hand: they may sit outside the dirty component.
  // resolve_dirty() then overwrites any that are inside it.
  for (const ClassSlot cs : popped_classes_)
    if (classes_[cs].live) completion_heap_.set(cs, class_completion_key(cs, now));
  resolve_dirty();
}

// ---------------------------------------------------------------------------
// Reference oracle: the original full recompute, now over the slot-map.

void FlowNet::reference_reshare() {
  reference_advance_progress();
  reference_recompute_rates();
  reference_schedule_next_completion();
}

void FlowNet::reference_advance_progress() {
  const Time dt = engine_->now() - last_update_;
  if (dt > 0) {
    for (Flow& f : flows_)
      if (f.id && f.phase == Phase::Transfer && f.rate > 0)
        f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
  last_update_ = engine_->now();
}

void FlowNet::reference_recompute_rates() {
  // Progressive filling: repeatedly saturate the most constrained link.
  std::map<std::size_t, double> capacity;
  std::map<std::size_t, int> unfixed_count;
  std::vector<Flow*> unfixed;
  for (Flow& f : flows_) {
    if (!f.id) continue;
    f.rate = 0;
    if (f.phase != Phase::Transfer) continue;
    unfixed.push_back(&f);
    for (const Hop& h : f.hops) {
      // Dense records carry the (possibly churn-rescaled) capacity; they are
      // synced for every hop a live flow crosses.
      capacity.emplace(linkdir_index(h), linkdirs_[linkdir_index(h)].capacity);
      ++unfixed_count[linkdir_index(h)];
    }
  }
  while (!unfixed.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    for (const auto& [key, cap] : capacity) {
      const int n = unfixed_count[key];
      if (n > 0) best_share = std::min(best_share, cap / n);
    }
    if (!std::isfinite(best_share)) break;  // no constrained flows remain
    // Fix every unfixed flow that crosses a bottleneck link.
    std::vector<Flow*> still_unfixed;
    for (Flow* f : unfixed) {
      bool at_bottleneck = false;
      for (const Hop& h : f->hops) {
        const auto key = linkdir_index(h);
        if (unfixed_count[key] > 0 &&
            capacity[key] / unfixed_count[key] <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (at_bottleneck) {
        f->rate = best_share;
        for (const Hop& h : f->hops) {
          const auto key = linkdir_index(h);
          capacity[key] = std::max(0.0, capacity[key] - best_share);
          --unfixed_count[key];
        }
      } else {
        still_unfixed.push_back(f);
      }
    }
    if (still_unfixed.size() == unfixed.size()) break;  // numeric safety
    unfixed.swap(still_unfixed);
  }
  // The reference path bypasses the dirty queue entirely; drop any marks so
  // they cannot pile up.
  for (const std::size_t li : dirty_linkdirs_) linkdirs_[li].dirty = false;
  dirty_linkdirs_.clear();
}

void FlowNet::reference_schedule_next_completion() {
  engine_->cancel_timer_slot(timer_slot_);
  Time earliest = kTimeInfinity;
  for (Flow& f : flows_) {
    if (!f.id || f.phase != Phase::Transfer) continue;
    if (f.remaining <= kByteEpsilon) {
      earliest = 0;
      break;
    }
    if (f.rate > 0)
      earliest = std::min(earliest, f.remaining / f.rate);
    else if (!f.starve_warned)
      warn_starved(f, f.remaining);
  }
  if (earliest >= kTimeInfinity) return;
  engine_->arm_timer_slot(timer_slot_, earliest);
}

void FlowNet::reference_completion_event() {
  reference_advance_progress();
  // Complete every flow that has drained (ties complete together), in id
  // (= start) order for deterministic callback sequencing.
  done_scratch_.clear();
  for (Slot s = 0; s < flows_.size(); ++s) {
    Flow& f = flows_[s];
    if (f.id && f.phase == Phase::Transfer && f.remaining <= kByteEpsilon)
      done_scratch_.push_back(s);
  }
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [this](Slot a, Slot b) { return flows_[a].id < flows_[b].id; });
  for (const Slot s : done_scratch_) remove_membership(s);
  for (const Slot s : done_scratch_) {
    Flow& f = flows_[s];
    ++stats_.flows_completed;
    stats_.bytes_completed += f.total_bytes;
    if (obs::TraceRecorder* tr = obs::trace(); tr != nullptr)
      tr->async_end(tr->track("flownet"), "flow", "flow", f.id, engine_->now());
    engine_->post(std::move(f.on_complete));
    release_slot(s);
  }
  ++stats_.reshares;
  reference_reshare();
}

}  // namespace pdc::net
