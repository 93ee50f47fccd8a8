#include "bgp/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace irp {
namespace {

/// Safety cap on activations per prefix, as a multiple of the AS count.
/// Policy-induced oscillation (dispute wheels) is possible in principle with
/// arbitrary local-pref deltas; the cap keeps runs bounded and flags them.
constexpr std::size_t kActivationFactor = 64;

}  // namespace

// ---------------------------------------------------------------- StatePool

BgpEngine::StatePool::StatePool() = default;
BgpEngine::StatePool::~StatePool() = default;

std::size_t BgpEngine::StatePool::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

std::uint64_t BgpEngine::StatePool::reuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reuses_;
}

std::unique_ptr<BgpEngine::PrefixState> BgpEngine::StatePool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) return nullptr;
  auto st = std::move(free_.back());
  free_.pop_back();
  ++reuses_;
  return st;
}

void BgpEngine::StatePool::release(std::unique_ptr<PrefixState> st) {
  if (st == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(st));
}

void BgpEngine::PrefixState::reset(std::size_t num_ases,
                                   std::size_t num_slots) {
  prefix = Ipv4Prefix{};
  origin = 0;
  originated = false;
  options = AnnounceOptions{};
  origin_path = kEmptyPathId;
  // Clear element-wise before resizing: clear() keeps each inner vector's
  // capacity, which is the allocation the pool exists to recycle.
  for (PerAs& pa : per_as) {
    pa.rib_in.clear();
    pa.selected.reset();
    pa.force_export = false;
  }
  per_as.resize(num_ases);
  sent.assign(num_slots, kNotSent);
  queue.clear();
  queued.assign(num_ases + 1, false);
}

// ---------------------------------------------------------------- BgpEngine

BgpEngine::BgpEngine(const Topology* topo, const GroundTruthPolicy* policy,
                     int epoch, StatePool* pool)
    : topo_(topo), policy_(policy), epoch_(epoch), pool_(pool) {
  IRP_CHECK(topo_ != nullptr, "engine requires a topology");
  IRP_CHECK(policy_ != nullptr, "engine requires a policy");
  slot_offset_.reserve(topo_->num_ases() + 1);
  slot_offset_.push_back(0);
  for (Asn asn = 1; asn <= topo_->num_ases(); ++asn)
    slot_offset_.push_back(
        slot_offset_.back() +
        static_cast<std::uint32_t>(topo_->links_of(asn).size()));
}

BgpEngine::~BgpEngine() {
  if (pool_ == nullptr) return;
  for (auto& st : states_) pool_->release(std::move(st));
}

BgpEngine::PrefixState& BgpEngine::state_for(const Ipv4Prefix& prefix) {
  auto it = index_.find(prefix);
  if (it != index_.end()) return *states_[it->second];
  IRP_CHECK(slot_offset_.size() == topo_->num_ases() + 1,
            "topology changed under a live engine");
  std::unique_ptr<PrefixState> st;
  if (pool_ != nullptr) st = pool_->acquire();
  if (st != nullptr) ++states_reused_;
  else st = std::make_unique<PrefixState>();
  st->reset(topo_->num_ases(), slot_offset_.back());
  st->prefix = prefix;
  index_[prefix] = states_.size();
  states_.push_back(std::move(st));
  return *states_.back();
}

const BgpEngine::PrefixState* BgpEngine::find_state(
    const Ipv4Prefix& prefix) const {
  auto it = index_.find(prefix);
  return it == index_.end() ? nullptr : states_[it->second].get();
}

void BgpEngine::announce(const Ipv4Prefix& prefix, Asn origin,
                         AnnounceOptions options) {
  IRP_CHECK(origin >= 1 && origin <= topo_->num_ases(), "bad origin ASN");
  PrefixState& st = state_for(prefix);
  IRP_CHECK(!st.originated || st.origin == origin,
            "prefix already originated by a different AS");
  st.origin = origin;
  st.originated = true;
  st.options = std::move(options);
  st.origin_path = table_.root(st.options.poison_set);
  // Force a full re-export at the origin, so option changes (new poison
  // set, different announcement sites) propagate even when the selected
  // route object itself compares equal.
  st.per_as[origin - 1].force_export = true;
  enqueue(st, origin);
}

void BgpEngine::withdraw(const Ipv4Prefix& prefix) {
  PrefixState* st = const_cast<PrefixState*>(find_state(prefix));
  if (st == nullptr || !st->originated) return;
  st->originated = false;
  st->per_as[st->origin - 1].force_export = true;
  enqueue(*st, st->origin);
}

void BgpEngine::run() {
  for (auto& stp : states_) {
    PrefixState& st = *stp;
    const std::size_t cap = kActivationFactor * (topo_->num_ases() + 1);
    std::size_t activations = 0;
    while (!st.queue.empty()) {
      const Asn asn = st.queue.front();
      st.queue.pop_front();
      st.queued[asn] = false;
      process(st, asn);
      if (++activations > cap) {
        converged_ = false;
        // Drop remaining activations; the run is flagged as non-converged.
        while (!st.queue.empty()) {
          st.queued[st.queue.front()] = false;
          st.queue.pop_front();
        }
        break;
      }
    }
  }
}

void BgpEngine::enqueue(PrefixState& st, Asn asn) {
  if (!st.queued[asn]) {
    st.queued[asn] = true;
    st.queue.push_back(asn);
  }
}

bool BgpEngine::preferred(const RibRoute& a, const RibRoute& b) const {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  const std::size_t len_a = table_.length(a.path);
  const std::size_t len_b = table_.length(b.path);
  if (len_a != len_b) return len_a < len_b;
  if (a.igp_cost != b.igp_cost) return a.igp_cost < b.igp_cost;
  if (a.received_at != b.received_at)
    return a.received_at < b.received_at;  // Oldest route wins.
  if (a.from_asn != b.from_asn)
    return a.from_asn < b.from_asn;  // Router-id stand-in.
  return a.via_link < b.via_link;
}

void BgpEngine::process(PrefixState& st, Asn asn) {
  PerAs& pa = st.per_as[asn - 1];
  ++selections_;

  // Run the decision process without materializing anything: the winner is
  // described by (path id, attributes).
  bool have = false;
  PathId next_path = kEmptyPathId;
  LinkId next_via = kInvalidLink;
  Asn next_hop = 0;
  LogicalTime next_age = 0;
  int next_lp = 0;
  bool next_self = false;
  std::optional<Relationship> next_class;

  if (st.originated && st.origin == asn) {
    have = true;
    next_path = st.origin_path;
    next_self = true;
    next_lp = 1 << 20;  // An origin always prefers its own prefix.
  } else {
    rib_scanned_ += pa.rib_in.size();
    const RibRoute* best = nullptr;
    for (const RibRoute& r : pa.rib_in)
      if (best == nullptr || preferred(r, *best)) best = &r;
    if (best != nullptr) {
      have = true;
      next_path = best->path;
      next_via = best->via_link;
      next_hop = best->from_asn;
      next_age = best->received_at;
      next_lp = best->local_pref;
      next_class = best->effective_class;
    }
  }

  const bool changed = [&] {
    if (pa.selected.has_value() != have) return true;
    if (!have) return false;
    // Path equality is id equality: both sides are interned in table_.
    return pa.selected->path_id != next_path ||
           pa.selected->via_link != next_via ||
           pa.selected->self_originated != next_self ||
           pa.selected->effective_class != next_class;
  }();

  if (!changed && !pa.force_export) return;
  pa.force_export = false;
  if (have) {
    if (!pa.selected.has_value()) pa.selected.emplace();
    Selected& s = *pa.selected;
    s.path_id = next_path;
    s.via_link = next_via;
    s.next_hop = next_hop;
    s.age = next_age;
    s.local_pref = next_lp;
    s.self_originated = next_self;
    s.effective_class = next_class;
  } else {
    pa.selected.reset();
  }
  export_from(st, asn);
}

void BgpEngine::export_from(PrefixState& st, Asn asn) {
  PerAs& pa = st.per_as[asn - 1];
  const auto& links = topo_->links_of(asn);
  IRP_CHECK(links.size() == slot_offset_[asn] - slot_offset_[asn - 1],
            "topology changed under a live engine");
  PathId* const sent = st.sent.data() + slot_offset_[asn - 1];
  // The exported path is the same for every link (modulo per-link TE, rare);
  // intern the prepend once per export, not once per delivery.
  PathId out_base = kNotSent;
  for (std::size_t slot = 0; slot < links.size(); ++slot) {
    const LinkId lid = links[slot];
    const Link& link = topo_->link(lid);
    if (!topo_->link_alive(link, epoch_)) continue;

    bool allowed = pa.selected.has_value();
    if (allowed && !pa.selected->self_originated) {
      // Split horizon: never advertise back over the link the route came
      // from (the neighbor would reject it by loop prevention anyway).
      if (lid == pa.selected->via_link) allowed = false;
      if (allowed)
        allowed = policy_->export_ok(asn, pa.selected->effective_class, link,
                                     st.prefix);
    } else if (allowed) {
      // Self-originated: respect per-site / selective announcement limits.
      if (!st.options.only_links.empty() &&
          std::find(st.options.only_links.begin(), st.options.only_links.end(),
                    lid) == st.options.only_links.end())
        allowed = false;
      if (allowed)
        allowed = policy_->export_ok(asn, std::nullopt, link, st.prefix);
    }

    if (allowed) {
      if (out_base == kNotSent)
        out_base = table_.prepend(pa.selected->path_id, asn);
      else
        table_.note_reuse();
      PathId out = out_base;
      if (pa.selected->self_originated) {
        // Inbound TE: per-link AS-path prepending at the origin.
        for (const auto& [plid, count] : st.options.prepend_on)
          if (plid == lid)
            out = table_.prepend_n(out, asn, std::size_t(count));
      }
      if (sent[slot] == out) continue;  // No change.
      sent[slot] = out;
      deliver_update(st, asn, link, out,
                     pa.selected->self_originated
                         ? std::nullopt
                         : pa.selected->effective_class);
    } else {
      if (sent[slot] == kNotSent) continue;  // Nothing previously sent.
      sent[slot] = kNotSent;
      deliver_withdraw(st, asn, link);
    }
  }
}

void BgpEngine::deliver_update(PrefixState& st, Asn from, const Link& link,
                               PathId path,
                               std::optional<Relationship> org_class) {
  ++messages_;
  const Asn to = topo_->other_end(link, from);
  PerAs& pa = st.per_as[to - 1];

  auto slot =
      std::find_if(pa.rib_in.begin(), pa.rib_in.end(),
                   [&](const RibRoute& r) { return r.via_link == link.id; });

  if (table_.contains(path, to)) {
    // Loop prevention (this is what poisoning triggers): the announcement is
    // rejected; if a previous route from this link existed it is implicitly
    // withdrawn.
    if (slot != pa.rib_in.end()) {
      pa.rib_in.erase(slot);
      enqueue(st, to);
    }
    return;
  }

  RibRoute route;
  route.path = path;
  route.via_link = link.id;
  route.from_asn = from;
  route.received_at = ++clock_;
  route.org_class = org_class;
  // Decision-process attributes are fixed per (receiver, link, path): cache
  // them here so select() never calls back into policy or topology.
  const Relationship rel = topo_->relationship_from(link, to);
  // Across sibling links the organizational class is inherited; the
  // composite organization must obey Gao-Rexford toward the outside.
  route.effective_class =
      rel == Relationship::kSibling ? org_class : std::optional{rel};
  route.igp_cost = topo_->igp_cost_from(link, to);
  route.local_pref = policy_->local_pref(to, link, table_, path);
  if (slot != pa.rib_in.end()) {
    // Replacement keeps the original age when the path is unchanged in all
    // but attributes; a genuinely new path gets a fresh age.
    if (slot->path == path) route.received_at = slot->received_at;
    *slot = route;
  } else {
    pa.rib_in.push_back(route);
  }
  enqueue(st, to);
}

void BgpEngine::deliver_withdraw(PrefixState& st, Asn from, const Link& link) {
  ++messages_;
  const Asn to = topo_->other_end(link, from);
  PerAs& pa = st.per_as[to - 1];
  auto slot =
      std::find_if(pa.rib_in.begin(), pa.rib_in.end(),
                   [&](const RibRoute& r) { return r.via_link == link.id; });
  if (slot != pa.rib_in.end()) {
    pa.rib_in.erase(slot);
    enqueue(st, to);
  }
}

const BgpEngine::Selected* BgpEngine::best(Asn asn,
                                           const Ipv4Prefix& prefix) const {
  const PrefixState* st = find_state(prefix);
  if (st == nullptr) return nullptr;
  const auto& sel = st->per_as[asn - 1].selected;
  return sel.has_value() ? &*sel : nullptr;
}

std::vector<Route> BgpEngine::routes_at(Asn asn,
                                        const Ipv4Prefix& prefix) const {
  const PrefixState* st = find_state(prefix);
  if (st == nullptr) return {};
  const auto& rib = st->per_as[asn - 1].rib_in;
  std::vector<Route> out;
  out.reserve(rib.size());
  for (const RibRoute& r : rib) {
    Route route;
    route.path = table_.materialize(r.path);
    route.via_link = r.via_link;
    route.from_asn = r.from_asn;
    route.received_at = r.received_at;
    route.org_class = r.org_class;
    out.push_back(std::move(route));
  }
  return out;
}

std::optional<Asn> BgpEngine::forward_next_hop(Asn asn,
                                               const Ipv4Prefix& prefix) const {
  const Selected* sel = best(asn, prefix);
  if (sel == nullptr || sel->self_originated) return std::nullopt;
  return sel->next_hop;
}

std::vector<FeedEntry> BgpEngine::feed(std::span<const Asn> peers) const {
  std::vector<FeedEntry> out;
  // Upper bound; prefixes unreachable from a peer are the exception.
  out.reserve(states_.size() * peers.size());
  visit_feed(peers, [&](Asn peer, const Ipv4Prefix& prefix, PathId path) {
    FeedEntry& e = out.emplace_back();
    e.peer = peer;
    e.prefix = prefix;
    // Materialize "peer prepended" directly into the entry: one exact-size
    // allocation, no intermediate AsPath copy.
    e.path.hops.reserve(table_.num_hops(path) + 1);
    e.path.hops.push_back(peer);
    table_.append_hops(path, e.path.hops);
    e.path.poison_set = table_.poison_set(path);
  });
  return out;
}

std::vector<Ipv4Prefix> BgpEngine::prefixes() const {
  std::vector<Ipv4Prefix> out;
  out.reserve(states_.size());
  for (const auto& stp : states_) out.push_back(stp->prefix);
  return out;
}

EngineCounters BgpEngine::counters() const {
  EngineCounters c;
  c.paths_interned = table_.num_paths();
  c.intern_hits = table_.hits();
  c.selections_run = selections_;
  c.rib_routes_scanned = rib_scanned_;
  c.states_reused = states_reused_;
  return c;
}

}  // namespace irp
