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
      observations_(observations),
      heads_(std::make_unique<std::atomic<CacheEntry*>[]>(num_ases + 1)) {
  IRP_CHECK(topo_ != nullptr, "classifier requires an inferred topology");
}

DecisionClassifier::CacheEntry& DecisionClassifier::entry(
    const RouteDecision& d, const ScenarioOptions& opts,
    bool& inserted) const {
  model_.check_destination(d.dest_asn);
  // The PSP filter only constrains edges incident to the destination, and
  // depends on (origin, prefix); scenarios without PSP share one entry per
  // destination. Under PSP each prefix the destination was seen announcing
  // gets its own entry, and every other prefix shares one: no neighbor
  // passes criteria 1's filter for it, and criteria 2's reduces to "never
  // seen receiving anything from the origin".
  const PspMode psp =
      observations_ != nullptr ? opts.psp : PspMode::kNone;
  std::optional<Ipv4Prefix> prefix;
  if (psp != PspMode::kNone) prefix = d.dst_prefix;
  const auto find = [&](CacheEntry* e) {
    for (; e != nullptr; e = e->older)
      if (e->psp == psp && e->prefix == prefix) break;
    return e;
  };

  std::atomic<CacheEntry*>& head = heads_[d.dest_asn];
  inserted = false;
  // A prefix with an entry of its own was observed; only a miss asks the
  // observations whether the prefix keys to the shared entry instead.
  if (CacheEntry* e = find(head.load(std::memory_order_acquire))) return *e;
  if (prefix && !observations_->announced_by(d.dest_asn, *prefix)) {
    prefix.reset();
    if (CacheEntry* e = find(head.load(std::memory_order_acquire))) return *e;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  CacheEntry* const first = head.load(std::memory_order_relaxed);
  if (CacheEntry* e = find(first)) return *e;
  CacheEntry& e = entries_.emplace_back(d.dest_asn, psp, prefix, first);
  head.store(&e, std::memory_order_release);
  inserted = true;
  return e;
}

const GrPathSet& DecisionClassifier::computed(CacheEntry& e) const {
  // Compute outside the insertion lock (other keys proceed concurrently)
  // but exactly once per key: losers of the race block until the winner's
  // result is visible, never recompute.
  std::call_once(e.once, [&] {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);

    OriginEdgeFilter filter;
    const Asn origin = e.dest;
    const BgpObservations* obs = observations_;
    if (e.psp == PspMode::kCriteria1) {
      // Criteria 1: the edge N->O exists for P only if O was seen
      // announcing P to N.
      if (e.prefix)
        filter = [obs, origin, prefix = *e.prefix](Asn neighbor) {
          return obs->announced(origin, neighbor, prefix);
        };
      else
        filter = [](Asn) { return false; };
    } else if (e.psp == PspMode::kCriteria2) {
      // Criteria 2: apply criteria 1 only when O->N was observed for at
      // least one prefix (otherwise the silence may be poor visibility).
      if (e.prefix)
        filter = [obs, origin, prefix = *e.prefix](Asn neighbor) {
          if (!obs->announced_any(origin, neighbor)) return true;
          return obs->announced(origin, neighbor, prefix);
        };
      else
        filter = [obs, origin](Asn neighbor) {
          return !obs->announced_any(origin, neighbor);
        };
    }
    e.set = model_.compute(e.dest, filter);
  });
  return e.set;
}

const GrPathSet& DecisionClassifier::path_set(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  bool inserted = false;
  return computed(entry(d, opts, inserted));
}

void DecisionClassifier::precompute(
    const std::vector<RouteDecision>& decisions, ThreadPool& pool,
    const std::vector<ScenarioOptions>& scenarios) const {
  // Insert serially so the pool sees one job per new cache key.
  std::vector<CacheEntry*> jobs;
  for (const ScenarioOptions& options : scenarios)
    for (const RouteDecision& d : decisions) {
      bool inserted = false;
      CacheEntry& e = entry(d, options, inserted);
      if (inserted) jobs.push_back(&e);
    }
  pool.parallel_for(0, jobs.size(),
                    [&](std::size_t i) { computed(*jobs[i]); });
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
  return is_best(d, opts, path_set(d, opts));
}

bool DecisionClassifier::is_best(const RouteDecision& d,
                                 const ScenarioOptions& opts,
                                 const GrPathSet& ps) const {
  // Sibling refinement (§4.2): routing into a sibling AS is internal to the
  // organization and marked as satisfying Best.
  if (opts.use_siblings && siblings_ != nullptr &&
      siblings_->same_group(d.decider, d.next_hop))
    return true;

  const auto rel = effective_relationship(d, opts);
  if (!rel) return false;  // Link not in the inferred topology.

  const auto best = ps.best_class(d.decider);
  if (!best) return false;  // Model sees no GR route at all.
  return preference_class(*rel) <= preference_class(*best);
}

bool DecisionClassifier::is_short(const RouteDecision& d,
                                  const ScenarioOptions& opts) const {
  return is_short(d, path_set(d, opts));
}

bool DecisionClassifier::is_short(const RouteDecision& d,
                                  const GrPathSet& ps) const {
  const std::size_t shortest = ps.shortest_length(d.decider);
  if (shortest == kUnreachable) return false;
  // "Short" means not longer than the model's shortest GR path; a measured
  // path *shorter* than the model (missing links in the inferred topology)
  // is not penalized as Long.
  return d.remaining_len <= shortest;
}

DecisionCategory DecisionClassifier::classify(
    const RouteDecision& d, const ScenarioOptions& opts) const {
  const GrPathSet& ps = path_set(d, opts);
  const bool best = is_best(d, opts, ps);
  const bool shrt = is_short(d, ps);
  if (best && shrt) return DecisionCategory::kBestShort;
  if (!best && shrt) return DecisionCategory::kNonBestShort;
  if (best) return DecisionCategory::kBestLong;
  return DecisionCategory::kNonBestLong;
}

}  // namespace irp
