// The passive measurement campaign (§3.1) and its observable products.
//
// Runs the whole pipeline the paper runs against the live Internet, against
// the simulated one instead:
//   1. converge the ground-truth BGP system for five monthly snapshots and
//      collect route-collector feeds (the inference corpus);
//   2. converge the measurement-epoch system for all content-related
//      prefixes;
//   3. sample RIPE-style probes (continent round-robin), resolve the content
//      hostnames per probe, traceroute to the resolved addresses;
//   4. convert IP paths to AS paths and extract per-AS routing decisions;
//   5. run relationship inference (per-snapshot + §3.3 aggregation),
//      sibling inference, and collect the per-prefix BGP observations the
//      PSP criteria need.
//
// On a pool these overlap (DESIGN.md §6). All random draws (the probe
// sample and the hostname shuffle) come first. Then one loop runs step 2
// and the measurement feed beside every corpus convergence of step 1, and
// beside one caller-supplied task; each earlier epoch's path set and
// inference run as soon as that epoch's last corpus job lands. A second
// loop runs the measurement epoch's set and inference, which also need the
// measurement feed, beside steps 3-4 in fixed chunks of probes.
// begin_passive_study is the draws and the first loop; finish_passive_study
// is the second loop and the aggregated products.
//
// Everything downstream (Figure 1, 2, 3, Tables 3, 4) consumes the returned
// PassiveDataset, which contains only analyst-observable artifacts plus the
// live engine handle for the active experiments.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bgp/engine.hpp"
#include "core/decisions.hpp"
#include "dataplane/ip_to_as.hpp"
#include "dataplane/probes.hpp"
#include "dataplane/traceroute.hpp"
#include "inference/bgp_observations.hpp"
#include "inference/hybrid_dataset.hpp"
#include "inference/path_corpus.hpp"
#include "inference/relationships.hpp"
#include "inference/siblings.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace irp {

/// Campaign parameters.
struct PassiveStudyConfig {
  ProbeSamplerConfig probes;
  /// Hostnames each probe measures per campaign (the paper's probing budget
  /// kept the traceroute count below probes x hostnames).
  int hostnames_per_probe = 14;
  /// Coverage of the Giotsas-style complex-relationships dataset.
  double hybrid_coverage = 0.85;
  InferenceConfig inference;
  /// Engine batching for the snapshot runs (memory control).
  int snapshot_batch = 64;
  /// Thread count of the study's ThreadPool. The passive campaign runs the
  /// measurement-epoch convergence beside its corpus convergences on it,
  /// each epoch's corpus assembly and inference as soon as that epoch's
  /// jobs are done, and the measurement epoch's inference beside the
  /// traceroute chunks; run_full_study also runs the active experiments'
  /// BGP simulation beside the convergences, and the classifier precompute,
  /// the extended model and each analysis, on the same pool.
  /// All randomness stays in the serial orchestration, so any thread count
  /// produces byte-identical results; 1 (the default) is the classic
  /// serial path.
  ParallelConfig parallel;
  std::uint64_t seed = 7;
};

/// Everything the passive campaign produced.
struct PassiveDataset {
  // Observables.
  std::vector<Probe> probes;
  std::vector<Traceroute> traceroutes;
  std::vector<RouteDecision> decisions;
  std::vector<FeedEntry> measurement_feed;
  PathCorpus corpus;
  std::vector<InferredTopology> snapshots;  ///< Per epoch, ascending.
  InferredTopology inferred;                ///< §3.3 aggregation.
  SiblingGroups siblings;
  HybridDataset hybrid;
  BgpObservations observations;
  IpToAsMap ip_to_as;

  // Live simulation handles (measurement epoch; content prefixes announced).
  std::unique_ptr<GroundTruthPolicy> policy;
  std::unique_ptr<BgpEngine> engine;

  // Summary statistics.
  std::size_t num_destination_ases = 0;
  std::size_t num_observed_decider_ases = 0;

  PassiveDataset() = default;
  PassiveDataset(const PassiveDataset&) = delete;
  PassiveDataset& operator=(const PassiveDataset&) = delete;
  PassiveDataset(PassiveDataset&&) = default;
  PassiveDataset& operator=(PassiveDataset&&) = default;
};

/// Runs the passive campaign over a generated Internet on a ThreadPool of
/// its own, sized by `config.parallel`.
PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config);

/// The same on a caller-owned pool (`config.parallel` is not read), so a
/// whole study runs on one pool: finish_passive_study(begin_passive_study()).
PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config,
                                 ThreadPool& pool);

/// What the first half of the campaign hands its second half besides the
/// dataset: each epoch's path set, the shuffled hostname list, the
/// campaign's random stream, and the corpus jobs' recycled engine states,
/// which the second half frees beside the traceroutes instead of on the
/// calling thread.
struct PassiveCampaign {
  std::vector<PathSet> parts;  ///< Per epoch, ascending.
  std::vector<std::string> hostnames;
  Rng rng;
  std::unique_ptr<BgpEngine::StatePool> state_pool;
};

/// The random draws of step 3 (the probe sample, then the hostname
/// shuffle), then steps 1-2 into `ds` in one convergence loop, with
/// `beside` (if set) as one more index of that loop. Afterwards ds.policy,
/// ds.engine, ds.measurement_feed and ds.probes are final, and
/// finish_passive_study writes none of them. `beside` may read ds.policy
/// and ds.probes; it runs on any thread, concurrently with the
/// convergences.
PassiveCampaign begin_passive_study(const GeneratedInternet& net,
                                    const PassiveStudyConfig& config,
                                    ThreadPool& pool, PassiveDataset& ds,
                                    const std::function<void()>& beside = {});

/// The rest of steps 3-5 into `ds`: traceroutes and decisions beside the
/// measurement epoch's inference, then the aggregated inference products.
void finish_passive_study(const GeneratedInternet& net,
                          const PassiveStudyConfig& config, ThreadPool& pool,
                          PassiveCampaign campaign, PassiveDataset& ds);

/// Announces every originated prefix of the given ASes on `engine`
/// (honoring selective-announcement restrictions) and converges.
void announce_all(BgpEngine& engine, const Topology& topo,
                  const std::vector<Asn>& origins);

}  // namespace irp
