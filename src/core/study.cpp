#include "core/study.hpp"

#include <set>

namespace irp {
namespace {

/// The active chain's vantages (§3.2): greedy coverage over the distinct
/// probe ASes of the passive campaign.
std::vector<Asn> select_active_vantages(const GeneratedInternet& net,
                                        const PassiveDataset& ds,
                                        const ActiveConfig& config) {
  std::set<Asn> candidate_set;
  for (const Probe& p : ds.probes) candidate_set.insert(p.asn);
  const std::vector<Asn> candidates{candidate_set.begin(),
                                    candidate_set.end()};
  return ActiveExperiment::select_vantages(net, *ds.policy, candidates,
                                           config.traceroute_vantages);
}

}  // namespace

StudyResults run_full_study(const StudyConfig& config) {
  StudyResults results;
  results.net = generate_internet(config.generator);
  const GeneratedInternet& net = *results.net;
  PassiveDataset& ds = results.passive;
  ThreadPool pool{config.passive.parallel.threads};

  // The active chain's BGP half (vantage selection and the discovery
  // simulation) reads only the Internet, the ground-truth policy and the
  // probe sample, so it runs as one more index of the campaign's
  // convergence loop.
  std::vector<Asn> vantages;
  DiscoverySimulation discovery;
  std::function<void()> active_bgp;
  if (config.run_active)
    active_bgp = [&] {
      vantages = select_active_vantages(net, ds, config.active);
      discovery = ActiveExperiment::simulate_discovery(
          net, *ds.policy, vantages, config.active);
    };
  PassiveCampaign campaign =
      begin_passive_study(net, config.passive, pool, ds, active_bgp);
  finish_passive_study(net, config.passive, pool, std::move(campaign), ds);

  // The classifier precompute, then the extended model and each analysis
  // as an index of its own; they only read the finished dataset and the
  // warmed classifier, and each writes its own report fields.
  const DecisionClassifier classifier = make_classifier(ds);
  // Warm the GR path-set cache in parallel; every analysis below then hits
  // the cache. A no-op for results — purely a wall-clock optimization.
  classifier.precompute(ds.decisions, pool);
  pool.parallel_for(0, 8, [&](std::size_t analysis) {
    switch (analysis) {
      case 0:
        results.extended = compute_extended_model(ds, net, classifier, pool);
        break;
      case 1: results.figure1 = compute_figure1(ds, classifier); break;
      case 2: results.skew = compute_skew(ds, net, classifier); break;
      case 3: results.figure3 = compute_figure3(ds, net, classifier); break;
      case 4: results.table3 = compute_table3(ds, net, classifier); break;
      case 5: results.table4 = compute_table4(ds, net, classifier); break;
      case 6: results.psp = validate_psp(ds, net, classifier); break;
      case 7: results.table1 = compute_table1(ds, net); break;
    }
  });

  // The active chain's inference half: score the discovery against the
  // inferred relationships, then the magnet experiment (§3.2, §4.4).
  if (config.run_active) {
    results.alternate = ActiveExperiment::evaluate_discovery(
        discovery, ds.inferred, &ds.siblings);
    ActiveExperiment active{&net, ds.policy.get(), &ds.inferred, vantages,
                            config.active, &ds.siblings};
    results.table2 = active.magnet_experiment();
  }
  return results;
}

}  // namespace irp
