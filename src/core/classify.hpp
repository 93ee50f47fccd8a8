// Decision classification against the GR model, with the paper's
// refinement ladder (§4.1-§4.3).
//
// A scenario controls which auxiliary datasets refine the raw inferred
// topology:
//   * Complex  — hybrid per-city relationships from the Giotsas-style
//                dataset override the inferred label at matching cities;
//   * Sibs     — a decision whose next hop is an inferred sibling satisfies
//                Best by definition (organizations route freely internally);
//   * PSP-1/2  — the GR path computation drops origin edges over which the
//                destination prefix was never seen announced (criteria 1),
//                or only when the neighbor was seen receiving some prefix
//                from the origin (criteria 2).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "core/decisions.hpp"
#include "core/gr_model.hpp"
#include "inference/bgp_observations.hpp"
#include "inference/hybrid_dataset.hpp"
#include "inference/relationships.hpp"
#include "inference/siblings.hpp"
#include "util/thread_pool.hpp"

namespace irp {

/// Prefix-specific-policy handling mode (§4.3).
enum class PspMode : std::uint8_t { kNone, kCriteria1, kCriteria2 };

/// One scenario of the Figure 1 ladder.
struct ScenarioOptions {
  bool use_hybrid = false;
  bool use_siblings = false;
  PspMode psp = PspMode::kNone;
};

/// Named standard scenarios in Figure 1 order.
struct NamedScenario {
  std::string name;
  ScenarioOptions options;
};
std::vector<NamedScenario> figure1_scenarios();
/// The options of figure1_scenarios(), in the same order.
std::vector<ScenarioOptions> figure1_options();

/// Classifies decisions against the GR model over an inferred topology.
///
/// GrPathSets are cached per (destination, PSP mode, prefix); the classifier
/// is therefore cheap to call per decision after warm-up. The cache is
/// thread-safe: concurrent calls may classify in parallel, and two threads
/// asking for the same key never duplicate a GrModel computation (per-entry
/// once semantics). A lookup that hits takes no lock. A prefix the
/// observations never saw the destination announce shares one entry per
/// PSP mode with every other such prefix (its filter is the same), so
/// remote queries cannot grow the cache beyond the observed prefixes.
/// References returned by path_set stay valid for the classifier's lifetime.
class DecisionClassifier {
 public:
  DecisionClassifier(const InferredTopology* topo, std::size_t num_ases,
                     const HybridDataset* hybrid,
                     const SiblingGroups* siblings,
                     const BgpObservations* observations);

  DecisionClassifier(const DecisionClassifier&) = delete;
  DecisionClassifier& operator=(const DecisionClassifier&) = delete;

  DecisionCategory classify(const RouteDecision& d,
                            const ScenarioOptions& opts) const;

  /// Property (1) of §3.3: is the decision via the best-available
  /// relationship class?
  bool is_best(const RouteDecision& d, const ScenarioOptions& opts) const;

  /// Property (2) of §3.3: is the measured remaining path no longer than
  /// the shortest GR path?
  bool is_short(const RouteDecision& d, const ScenarioOptions& opts) const;

  /// The (cached) GR path summary used for a decision under a scenario;
  /// exposed for the geography analyses (witness paths).
  const GrPathSet& path_set(const RouteDecision& d,
                            const ScenarioOptions& opts) const;

  /// Warms the GrPathSet cache for every distinct (destination, PSP mode,
  /// prefix) key the given decisions touch under `scenarios`, fanning
  /// GrModel::compute out over `pool`. Purely a performance hint —
  /// classification results are identical without it.
  void precompute(const std::vector<RouteDecision>& decisions,
                  ThreadPool& pool,
                  const std::vector<ScenarioOptions>& scenarios =
                      figure1_options()) const;

  /// The same over the Figure 1 scenarios on a pool of its own with
  /// `threads` participants (ParallelConfig semantics: 0 = hardware,
  /// 1 = inline).
  void precompute(const std::vector<RouteDecision>& decisions,
                  int threads) const;

  /// Number of GrPathSet computations performed so far — one per distinct
  /// cache key ever requested, regardless of thread count (concurrent
  /// requests for one key compute it exactly once).
  std::size_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  const InferredTopology& topology() const { return *topo_; }
  std::size_t num_ases() const { return model_.num_ases(); }

 private:
  /// Relationship of next_hop from decider's perspective under a scenario.
  std::optional<Relationship> effective_relationship(
      const RouteDecision& d, const ScenarioOptions& opts) const;

  /// One cached path set. The key within its destination is the PSP
  /// criteria in effect (kNone when no observations are wired in) and, when
  /// the filter is prefix-specific, the prefix; `prefix` is empty for kNone
  /// and for the entry shared by every prefix the destination was never
  /// seen announcing. `once` guarantees a single computation per key even
  /// under concurrent lookups.
  struct CacheEntry {
    Asn dest;
    PspMode psp;
    std::optional<Ipv4Prefix> prefix;
    CacheEntry* older;  ///< The destination's previous list head.
    std::once_flag once;
    GrPathSet set;
  };

  /// The entry of a decision under a scenario, inserted if new
  /// (`inserted` reports which).
  CacheEntry& entry(const RouteDecision& d, const ScenarioOptions& opts,
                    bool& inserted) const;
  /// The entry's path set, computed on first use.
  const GrPathSet& computed(CacheEntry& entry) const;

  bool is_best(const RouteDecision& d, const ScenarioOptions& opts,
               const GrPathSet& ps) const;
  bool is_short(const RouteDecision& d, const GrPathSet& ps) const;

  const InferredTopology* topo_;
  GrModel model_;
  const HybridDataset* hybrid_;
  const SiblingGroups* siblings_;
  const BgpObservations* observations_;

  /// Per destination ASN (index 0 unused), the newest entry of an immutable
  /// list; lists only grow at the head, published with release stores, so
  /// readers walk them without a lock.
  std::unique_ptr<std::atomic<CacheEntry*>[]> heads_;
  mutable std::mutex cache_mu_;  ///< Serializes insertion only.
  mutable std::deque<CacheEntry> entries_;  ///< Owns every entry; stable.
  mutable std::atomic<std::size_t> cache_misses_{0};
};

}  // namespace irp
