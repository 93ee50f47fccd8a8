// RouteOracle read layer: one study's read-only index and cached evaluation
// over a loaded snapshot.
//
// OracleIndex materializes the study datasets (inferred topology, siblings,
// hybrid, observations) back out of the flat snapshot arrays and drives a
// DecisionClassifier over them, so a query against a snapshot reuses exactly
// the classification semantics of the offline study (§4.1-§4.3). Route
// lookups go through one hash map keyed by prefix, then binary search by ASN
// inside the prefix block; everything is read-only after construction, so
// concurrent queries need no locks on the index itself. StudyCatalog builds
// one index per study and owns its cache quota.
//
// ClassifyCache is the one mutable piece: a bounded LRU over final
// classification results, one list and one map under one mutex, so a quota
// of N holds exactly the N most recently used keys. A miss computes outside
// the lock (the classifier's warm path is lock-free). Cached values are
// deterministic functions of the key, so the cache never changes an answer
// — only its latency. Its counters are read through
// StudyCatalog::cache_budget().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/classify.hpp"
#include "serve/oracle_snapshot.hpp"

namespace irp {

/// Everything DecisionClassifier::classify reads from a decision + scenario,
/// packed into an equality-comparable cache key.
struct ClassifyKey {
  Asn decider = 0;
  Asn next_hop = 0;
  Asn dest = 0;
  Ipv4Prefix prefix;
  std::uint32_t remaining_len = 0;
  CityId city = 0;
  bool has_city = false;
  std::uint8_t scenario = 0;  ///< pack_scenario() of the options.

  friend bool operator==(const ClassifyKey&, const ClassifyKey&) = default;
};

/// The one byte encoding of a scenario: bit0 hybrid, bit1 siblings, bits
/// 2-3 the PSP mode. Both the classify cache key and the wire's classify
/// request (docs/PROTOCOL.md) carry it.
std::uint8_t pack_scenario(const ScenarioOptions& opts);

ClassifyKey make_classify_key(const RouteDecision& d,
                              const ScenarioOptions& opts);

struct ClassifyKeyHash {
  std::size_t operator()(const ClassifyKey& k) const;
};

/// Bounded LRU cache for classification results: one list and one map under
/// one mutex.
class ClassifyCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
    double hit_rate() const {
      const double total = double(hits) + double(misses);
      return total == 0 ? 0.0 : double(hits) / total;
    }
  };

  /// Starts disabled (capacity 0); set_capacity() gives it a budget.
  ClassifyCache() = default;

  ClassifyCache(const ClassifyCache&) = delete;
  ClassifyCache& operator=(const ClassifyCache&) = delete;

  std::optional<DecisionCategory> get(const ClassifyKey& key);
  void put(const ClassifyKey& key, DecisionCategory value);
  Stats stats() const;

  /// Re-budgets the cache in place, evicting least recently used entries
  /// down to the new capacity. Thread-safe against concurrent get/put;
  /// capacity 0 disables the cache (and drops everything cached).
  /// StudyCatalog uses this to move quota between studies sharing one
  /// budget.
  void set_capacity(std::size_t capacity);

 private:
  void trim_locked();

  mutable std::mutex mu_;
  std::size_t capacity_ = 0;
  /// Front = most recently used.
  std::list<std::pair<ClassifyKey, DecisionCategory>> lru_;
  std::unordered_map<ClassifyKey, decltype(lru_)::iterator, ClassifyKeyHash>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Read-only query index over one snapshot. Thread-safe after construction.
class OracleIndex {
 public:
  /// `arena` is the path table behind paths(): the snapshot's route entries
  /// must hold PathIds of it (StudyCatalog remaps them into its shared arena
  /// on load; a standalone index passes `snapshot->paths`). The snapshot and
  /// the arena must outlive the index. The classify cache starts disabled
  /// (capacity 0) until set_cache_capacity() gives it a quota.
  OracleIndex(const OracleSnapshot* snapshot, const PathTable& arena);

  OracleIndex(const OracleIndex&) = delete;
  OracleIndex& operator=(const OracleIndex&) = delete;

  // Materialized study views (identical to the live study's products).
  const InferredTopology& topology() const { return topo_; }
  const SiblingGroups& siblings() const { return siblings_; }
  const HybridDataset& hybrid() const { return hybrid_; }
  const BgpObservations& observations() const { return observations_; }
  const DecisionClassifier& classifier() const { return *classifier_; }
  const PathTable& paths() const { return *paths_; }
  std::size_t num_ases() const { return snap_->num_ases; }

  /// Classification with DecisionClassifier semantics, memoized through the
  /// classify cache. Deterministic: cache state never changes the answer.
  DecisionCategory classify(const RouteDecision& d,
                            const ScenarioOptions& opts) const;

  /// The route block of a prefix; nullptr when the prefix was never
  /// announced in the snapshotted engine.
  const OracleSnapshot::PrefixRoutes* prefix_routes(
      const Ipv4Prefix& prefix) const;

  ClassifyCache::Stats cache_stats() const { return cache_.stats(); }
  /// Re-budgets the classify cache (see ClassifyCache::set_capacity). Safe
  /// to call concurrently with queries; answers never change, only latency.
  void set_cache_capacity(std::size_t capacity) const {
    cache_.set_capacity(capacity);
  }

 private:
  const OracleSnapshot* snap_;
  const PathTable* paths_;
  InferredTopology topo_;
  SiblingGroups siblings_;
  HybridDataset hybrid_;
  BgpObservations observations_;
  std::unique_ptr<DecisionClassifier> classifier_;
  std::unordered_map<Ipv4Prefix, const OracleSnapshot::PrefixRoutes*,
                     Ipv4PrefixHash>
      routes_;
  mutable ClassifyCache cache_;
};

}  // namespace irp
