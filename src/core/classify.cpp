#include "core/classify.hpp"

#include "util/check.hpp"

namespace irp {

std::vector<NamedScenario> figure1_scenarios() {
  return {
      {"Simple", {}},
      {"Complex", {.use_hybrid = true}},
      {"Sibs", {.use_siblings = true}},
      {"PSP-1", {.psp = PspMode::kCriteria1}},
      {"PSP-2", {.psp = PspMode::kCriteria2}},
      {"All-1",
       {.use_hybrid = true, .use_siblings = true, .psp = PspMode::kCriteria1}},
      {"All-2",
       {.use_hybrid = true, .use_siblings = true, .psp = PspMode::kCriteria2}},
  };
}

std::vector<ScenarioOptions> figure1_options() {
  std::vector<ScenarioOptions> out;
  for (const NamedScenario& scenario : figure1_scenarios())
    out.push_back(scenario.options);
  return out;
}

DecisionClassifier::DecisionClassifier(const InferredTopology* topo,
                                       std::size_t num_ases,
                                       const HybridDataset* hybrid,
                                       const SiblingGroups* siblings,
                                       const BgpObservations* observations)
    : topo_(topo),
      model_(topo, num_ases),
      hybrid_(hybrid),
      siblings_(siblings),
      observations_(observations) {
  IRP_CHECK(topo_ != nullptr, "classifier requires an inferred topology");
}

DecisionClassifier::CacheKey DecisionClassifier::cache_key(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  // The PSP filter only constrains edges incident to the destination, and
  // depends on (origin, prefix); scenarios without PSP share one entry, and
  // under PSP each destination prefix gets its own entry.
  const bool psp_active =
      opts.psp != PspMode::kNone && observations_ != nullptr;
  return CacheKey{d.dest_asn, psp_active ? int(opts.psp) : 0,
                  psp_active ? d.dst_prefix : Ipv4Prefix{}};
}

const GrPathSet& DecisionClassifier::path_set(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  CacheEntry* entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::unique_ptr<CacheEntry>& slot = cache_[cache_key(d, opts)];
    if (!slot) slot = std::make_unique<CacheEntry>();
    entry = slot.get();
  }

  // Compute outside the map lock (other keys proceed concurrently) but
  // exactly once per key: losers of the race block until the winner's
  // result is visible, never recompute.
  std::call_once(entry->once, [&] {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);

    OriginEdgeFilter filter;
    const bool psp_active =
        opts.psp != PspMode::kNone && observations_ != nullptr;
    if (psp_active) {
      const Asn origin = d.dest_asn;
      const Ipv4Prefix prefix = d.dst_prefix;
      const BgpObservations* obs = observations_;
      if (opts.psp == PspMode::kCriteria1) {
        // Criteria 1: the edge N->O exists for P only if O was seen
        // announcing P to N.
        filter = [obs, origin, prefix](Asn neighbor) {
          return obs->announced(origin, neighbor, prefix);
        };
      } else {
        // Criteria 2: apply criteria 1 only when O->N was observed for at
        // least one prefix (otherwise the silence may be poor visibility).
        filter = [obs, origin, prefix](Asn neighbor) {
          if (!obs->announced_any(origin, neighbor)) return true;
          return obs->announced(origin, neighbor, prefix);
        };
      }
    }
    entry->set = model_.compute(d.dest_asn, filter);
  });
  return entry->set;
}

void DecisionClassifier::precompute(
    const std::vector<RouteDecision>& decisions, ThreadPool& pool,
    const std::vector<ScenarioOptions>& scenarios) const {
  // Deduplicate up front so the pool sees one job per distinct cache key;
  // keep a representative decision (+ scenario) per key to rebuild the
  // filter. Scenarios map onto the three PSP modes.
  std::map<CacheKey, std::pair<const RouteDecision*, ScenarioOptions>> work;
  for (const ScenarioOptions& options : scenarios)
    for (const RouteDecision& d : decisions)
      work.emplace(cache_key(d, options), std::make_pair(&d, options));

  std::vector<std::pair<const RouteDecision*, ScenarioOptions>> jobs;
  jobs.reserve(work.size());
  for (const auto& [key, job] : work) jobs.push_back(job);

  pool.parallel_for(0, jobs.size(), [&](std::size_t i) {
    path_set(*jobs[i].first, jobs[i].second);
  });
}

void DecisionClassifier::precompute(
    const std::vector<RouteDecision>& decisions, int threads) const {
  ThreadPool pool{threads};
  precompute(decisions, pool);
}

std::optional<Relationship> DecisionClassifier::effective_relationship(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  std::optional<Relationship> rel =
      topo_->relationship(d.decider, d.next_hop);
  if (opts.use_hybrid && hybrid_ != nullptr && d.interconnect_city) {
    const auto h = hybrid_->relationship_at(d.decider, d.next_hop,
                                            *d.interconnect_city);
    if (h) rel = h;
  }
  return rel;
}

bool DecisionClassifier::is_best(const RouteDecision& d,
                                 const ScenarioOptions& opts) const {
  // Sibling refinement (§4.2): routing into a sibling AS is internal to the
  // organization and marked as satisfying Best.
  if (opts.use_siblings && siblings_ != nullptr &&
      siblings_->same_group(d.decider, d.next_hop))
    return true;

  const auto rel = effective_relationship(d, opts);
  if (!rel) return false;  // Link not in the inferred topology.

  const GrPathSet& ps = path_set(d, opts);
  const auto best = ps.best_class(d.decider);
  if (!best) return false;  // Model sees no GR route at all.
  return preference_class(*rel) <= preference_class(*best);
}

bool DecisionClassifier::is_short(const RouteDecision& d,
                                  const ScenarioOptions& opts) const {
  const GrPathSet& ps = path_set(d, opts);
  const std::size_t shortest = ps.shortest_length(d.decider);
  if (shortest == kUnreachable) return false;
  // "Short" means not longer than the model's shortest GR path; a measured
  // path *shorter* than the model (missing links in the inferred topology)
  // is not penalized as Long.
  return d.remaining_len <= shortest;
}

DecisionCategory DecisionClassifier::classify(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  const bool best = is_best(d, opts);
  const bool shrt = is_short(d, opts);
  if (best && shrt) return DecisionCategory::kBestShort;
  if (!best && shrt) return DecisionCategory::kNonBestShort;
  if (best) return DecisionCategory::kBestLong;
  return DecisionCategory::kNonBestLong;
}

}  // namespace irp
