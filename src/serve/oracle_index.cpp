#include "serve/oracle_index.hpp"

#include "util/check.hpp"
#include "util/hash.hpp"

namespace irp {

std::uint8_t pack_scenario(const ScenarioOptions& opts) {
  return static_cast<std::uint8_t>((opts.use_hybrid ? 1 : 0) |
                                   (opts.use_siblings ? 2 : 0) |
                                   (static_cast<int>(opts.psp) << 2));
}

ClassifyKey make_classify_key(const RouteDecision& d,
                              const ScenarioOptions& opts) {
  ClassifyKey key;
  key.decider = d.decider;
  key.next_hop = d.next_hop;
  key.dest = d.dest_asn;
  key.prefix = d.dst_prefix;
  key.remaining_len = static_cast<std::uint32_t>(d.remaining_len);
  key.has_city = d.interconnect_city.has_value();
  key.city = key.has_city ? *d.interconnect_city : 0;
  key.scenario = pack_scenario(opts);
  return key;
}

std::size_t ClassifyKeyHash::operator()(const ClassifyKey& k) const {
  std::uint64_t h = Ipv4PrefixHash{}(k.prefix);
  h = mix64(h ^ ((std::uint64_t{k.decider} << 32) | k.next_hop));
  h = mix64(h ^ ((std::uint64_t{k.dest} << 32) | k.remaining_len));
  h = mix64(h ^ ((std::uint64_t{k.city} << 8) |
                 (std::uint64_t{k.scenario} << 1) | (k.has_city ? 1 : 0)));
  return static_cast<std::size_t>(h);
}

void ClassifyCache::trim_locked() {
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void ClassifyCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  trim_locked();
}

std::optional<DecisionCategory> ClassifyCache::get(const ClassifyKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

void ClassifyCache::put(const ClassifyKey& key, DecisionCategory value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  map_.emplace(key, lru_.begin());
  trim_locked();
}

ClassifyCache::Stats ClassifyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = map_.size();
  s.capacity = capacity_;
  return s;
}

OracleIndex::OracleIndex(const OracleSnapshot* snapshot,
                         const PathTable& arena)
    : snap_(snapshot), paths_(&arena) {
  IRP_CHECK(snap_ != nullptr, "oracle index requires a snapshot");

  // Rebuild the study views. Insertion through the same public mutators the
  // live pipeline uses guarantees the materialized state is identical to the
  // study's own products — the classifier then behaves identically too.
  for (const OracleSnapshot::RelationshipEntry& e : snap_->relationships)
    topo_.set(e.a, e.b, static_cast<InferredRel>(e.rel));
  for (const auto& group : snap_->sibling_groups) siblings_.add_group(group);
  for (const OracleSnapshot::HybridRecord& h : snap_->hybrid_entries)
    hybrid_.add(HybridEntry{h.a, h.b, h.city, static_cast<Relationship>(h.rel)});
  for (const auto& [provider, customer] : snap_->partial_transit)
    hybrid_.add_partial_transit(provider, customer);
  for (const OracleSnapshot::ObservationBlock& block : snap_->observations)
    for (const auto& [origin, neighbor] : block.pairs)
      observations_.add(origin, neighbor, block.prefix);

  classifier_ = std::make_unique<DecisionClassifier>(
      &topo_, snap_->num_ases, &hybrid_, &siblings_, &observations_);

  routes_.reserve(snap_->routes.size());
  for (const OracleSnapshot::PrefixRoutes& pr : snap_->routes) {
    const bool inserted = routes_.emplace(pr.prefix, &pr).second;
    IRP_CHECK(inserted, "oracle snapshot has duplicate prefix route blocks");
  }
}

DecisionCategory OracleIndex::classify(const RouteDecision& d,
                                       const ScenarioOptions& opts) const {
  const ClassifyKey key = make_classify_key(d, opts);
  if (const auto cached = cache_.get(key)) return *cached;
  const DecisionCategory category = classifier_->classify(d, opts);
  cache_.put(key, category);
  return category;
}

const OracleSnapshot::PrefixRoutes* OracleIndex::prefix_routes(
    const Ipv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? nullptr : it->second;
}

}  // namespace irp
