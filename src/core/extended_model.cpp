#include "core/extended_model.hpp"

#include <array>

namespace irp {

InferredTopology apply_cable_correction(const InferredTopology& topo,
                                        const CableRegistry& cables) {
  InferredTopology out;
  for (const auto& [pair, rel] : topo.links()) {
    const auto [a, b] = pair;
    const bool a_cable = cables.is_cable_operator(a);
    const bool b_cable = cables.is_cable_operator(b);
    if (a_cable && !b_cable)
      out.set(a, b, InferredRel::kAProviderOfB);
    else if (b_cable && !a_cable)
      out.set(a, b, InferredRel::kBProviderOfA);
    else
      out.set(a, b, rel);
  }
  return out;
}

ExtendedModelReport compute_extended_model(const PassiveDataset& ds,
                                           const GeneratedInternet& net,
                                           const DecisionClassifier& classifier,
                                           ThreadPool& pool) {
  ExtendedModelReport report;
  const ScenarioOptions simple;
  const ScenarioOptions all1{.use_hybrid = true,
                             .use_siblings = true,
                             .psp = PspMode::kCriteria1};

  // Baselines on the raw aggregated topology.
  for (const RouteDecision& d : ds.decisions) {
    report.simple.add(classifier.classify(d, simple));
    report.all_refinements.add(classifier.classify(d, all1));
  }

  // Extended: prune stale links and correct cable relationships, together
  // and in isolation (to attribute the gain of each), then re-run All-1.
  const InferredTopology pruned = prune_stale_links(
      ds.inferred, net.neighbor_history, net.measurement_epoch);
  const InferredTopology corrected =
      apply_cable_correction(pruned, net.cable_registry);
  const InferredTopology cable_only_topo =
      apply_cable_correction(ds.inferred, net.cable_registry);
  const std::array<const InferredTopology*, 3> topos{&corrected, &pruned,
                                                     &cable_only_topo};
  const std::size_t num_ases = classifier.num_ases();
  const std::vector<CategoryBreakdown> all1_on =
      pool.parallel_map(topos.size(), [&](std::size_t i) {
        const DecisionClassifier corrected_classifier{
            topos[i], num_ases, &ds.hybrid, &ds.siblings, &ds.observations};
        corrected_classifier.precompute(ds.decisions, pool, {all1});
        CategoryBreakdown breakdown;
        for (const RouteDecision& d : ds.decisions)
          breakdown.add(corrected_classifier.classify(d, all1));
        return breakdown;
      });
  report.extended = all1_on[0];

  const double base =
      report.all_refinements.share(DecisionCategory::kBestShort);
  report.stale_gain = all1_on[1].share(DecisionCategory::kBestShort) - base;
  report.cable_gain = all1_on[2].share(DecisionCategory::kBestShort) - base;
  return report;
}

ExtendedModelReport compute_extended_model(const PassiveDataset& ds,
                                           const GeneratedInternet& net) {
  ThreadPool pool{1};
  return compute_extended_model(ds, net, make_classifier(ds), pool);
}

}  // namespace irp
