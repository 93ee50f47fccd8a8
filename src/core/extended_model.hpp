// The paper's §7 future work, implemented: an extended routing model that
// folds the study's findings back into the topology before classification.
//
// Corrections applied on top of the aggregated inferred topology:
//   * stale-link pruning using the neighbor-history service (§5);
//   * undersea-cable correction using the cable registry (§6): a listed
//     cable-operator AS sells point-to-point transit, so every link incident
//     to it is relabeled with the cable as the provider side;
//   * the full refinement ladder (hybrid relationships, siblings, PSP
//     criteria) during classification.
//
// compute_extended_model() reports how much of the model/reality gap the
// corrections close relative to the Simple model. It reads the study's
// frozen passive dataset only, so run_full_study runs it beside the other
// analyses and the active experiments on the study's one ThreadPool.
#pragma once

#include "core/analysis.hpp"
#include "topo/registry.hpp"

namespace irp {

/// Relabels links incident to registry-listed cable operators: the cable AS
/// is the provider of each attached AS (point-to-point transit), undoing
/// the customer-of-everyone misinference.
InferredTopology apply_cable_correction(const InferredTopology& topo,
                                        const CableRegistry& cables);

/// Results of the extended-model evaluation.
struct ExtendedModelReport {
  CategoryBreakdown simple;       ///< Plain GR on the raw inferred topology.
  CategoryBreakdown all_refinements;  ///< All-1 ladder, raw topology.
  CategoryBreakdown extended;     ///< All-1 + stale pruning + cable fix.
  /// Violations attributable to each correction (share of all decisions).
  double stale_gain = 0.0;
  double cable_gain = 0.0;
};

/// Evaluates Simple vs All-1 vs the extended model on a passive dataset.
/// `classifier` classifies over the raw aggregated topology
/// (make_classifier(ds)); Simple and All-1 reuse its GrPathSet cache. The
/// three corrected classifiers (pruned + cable, pruned, cable only) are
/// built, warmed for All-1 and run concurrently on `pool`.
ExtendedModelReport compute_extended_model(const PassiveDataset& ds,
                                           const GeneratedInternet& net,
                                           const DecisionClassifier& classifier,
                                           ThreadPool& pool);

/// The same, serially, with a fresh raw-topology classifier.
ExtendedModelReport compute_extended_model(const PassiveDataset& ds,
                                           const GeneratedInternet& net);

}  // namespace irp
