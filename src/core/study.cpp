#include "core/study.hpp"

#include <set>

namespace irp {
namespace {

/// The active chain (§3.2, §4.4): vantage selection, alternate-route
/// discovery, then the magnet experiment.
void run_active_experiments(const GeneratedInternet& net,
                            const PassiveDataset& ds,
                            const ActiveConfig& config,
                            StudyResults& results) {
  // Vantage candidates: the distinct probe ASes of the passive campaign.
  std::set<Asn> candidate_set;
  for (const Probe& p : ds.probes) candidate_set.insert(p.asn);
  const std::vector<Asn> candidates{candidate_set.begin(),
                                    candidate_set.end()};
  const std::vector<Asn> vantages = ActiveExperiment::select_vantages(
      net, *ds.policy, candidates, config.traceroute_vantages);
  ActiveExperiment active{&net, ds.policy.get(), &ds.inferred, vantages,
                          config, &ds.siblings};
  results.alternate = active.discover_alternate_routes();
  results.table2 = active.magnet_experiment();
}

}  // namespace

StudyResults run_full_study(const StudyConfig& config) {
  StudyResults results;
  results.net = generate_internet(config.generator);
  const GeneratedInternet& net = *results.net;
  ThreadPool pool{config.passive.parallel.threads};

  results.passive = run_passive_study(net, config.passive, pool);
  const PassiveDataset& ds = results.passive;

  const DecisionClassifier classifier = make_classifier(ds);
  // Warm the GR path-set cache in parallel; every analysis below then hits
  // the cache. A no-op for results — purely a wall-clock optimization.
  classifier.precompute(ds.decisions, pool);

  // Three branches that only read the frozen passive dataset (and the
  // warmed classifier), each writing its own report fields. The longest,
  // the active chain, comes first so it starts first.
  pool.parallel_for(0, 3, [&](std::size_t branch) {
    switch (branch) {
      case 0:
        if (config.run_active)
          run_active_experiments(net, ds, config.active, results);
        break;
      case 1:
        results.extended = compute_extended_model(ds, net, classifier, pool);
        break;
      case 2:
        results.table1 = compute_table1(ds, net);
        results.figure1 = compute_figure1(ds, classifier);
        results.skew = compute_skew(ds, net, classifier);
        results.figure3 = compute_figure3(ds, net, classifier);
        results.table3 = compute_table3(ds, net, classifier);
        results.table4 = compute_table4(ds, net, classifier);
        results.psp = validate_psp(ds, net, classifier);
        break;
    }
  });
  return results;
}

}  // namespace irp
