#include "core/passive_study.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <string>

#include "dataplane/dns.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

/// Collects the ASes whose prefixes must be live in the measurement engine:
/// content origins (and their sibling ASNs) plus every cache host.
std::vector<Asn> content_related_ases(const GeneratedInternet& net) {
  std::set<Asn> ases;
  for (const auto& service : net.content.services()) {
    ases.insert(service.origin_asn);
    for (const auto& cache : service.caches) ases.insert(cache.host_asn);
  }
  for (Asn asn : net.content_asns) ases.insert(asn);
  return {ases.begin(), ases.end()};
}

/// The route-collector view of each monthly snapshot: per-epoch chunked
/// convergences announcing one prefix per AS, one (epoch, batch) job each,
/// jobs in ascending epoch order. Each job owns a private BgpEngine over the
/// shared immutable topology/policy, so jobs run concurrently, and reads its
/// engine's collector view straight into a PathSet of its own.
class CorpusJobs {
 public:
  CorpusJobs(const GeneratedInternet& net, const GroundTruthPolicy& policy,
             int batch, BgpEngine::StatePool& state_pool)
      : net_(net),
        policy_(policy),
        batch_(static_cast<std::size_t>(batch)),
        state_pool_(state_pool) {
    net.topology.for_each_as([&](const AsNode& node) {
      if (!node.prefixes.empty())
        origins_.emplace_back(node.prefixes.front().prefix, node.asn);
    });
    for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
      for (std::size_t start = 0; start < origins_.size(); start += batch_) {
        epoch_.push_back(epoch);
        start_.push_back(start);
      }
    sets_.resize(epoch_.size());
  }

  std::size_t size() const { return epoch_.size(); }
  int epoch(std::size_t job) const { return epoch_[job]; }

  /// Converges job `job` and keeps its path set until consume_epoch().
  void run(std::size_t job) {
    BgpEngine engine{&net_.topology, &policy_, epoch_[job], &state_pool_};
    const std::size_t end = std::min(origins_.size(), start_[job] + batch_);
    for (std::size_t i = start_[job]; i < end; ++i)
      engine.announce(origins_[i].first, origins_[i].second);
    engine.run();
    PathSet& set = sets_[job];
    engine.visit_feed(net_.collector_peers,
                      [&](Asn peer, const Ipv4Prefix&, PathId path) {
                        set.add_feed(peer, engine.paths(), path);
                      });
  }

  /// Merges the path sets of `e`'s jobs into `out`, in job order, and frees
  /// them. The caller must have seen every one of those jobs finish.
  void consume_epoch(int e, PathSet& out) {
    for (std::size_t j = 0; j < sets_.size(); ++j)
      if (epoch_[j] == e) out.merge(std::move(sets_[j]));
  }

  bool all_consumed() const {
    return std::all_of(sets_.begin(), sets_.end(),
                       [](const PathSet& set) { return set.empty(); });
  }

 private:
  const GeneratedInternet& net_;
  const GroundTruthPolicy& policy_;
  std::size_t batch_;
  // Engines are short-lived (one per job) but their per-prefix state is
  // O(num_ases · batch); the shared pool recycles it across jobs instead of
  // re-mallocing it for every (epoch, batch).
  BgpEngine::StatePool& state_pool_;
  std::vector<std::pair<Ipv4Prefix, Asn>> origins_;
  std::vector<int> epoch_;          ///< Per job.
  std::vector<std::size_t> start_;  ///< Per job: first index into origins_.
  std::vector<PathSet> sets_;       ///< Per job.
};

/// Probes per traceroute chunk of finish_passive_study's loop. Fixed, so
/// the chunks, and the order their results are concatenated in, do not
/// depend on the thread count.
constexpr std::size_t kProbesPerChunk = 32;

/// What steps 3-4 produce for one chunk of probes; traceroute_index counts
/// from the chunk's first traceroute.
struct Measured {
  std::vector<Traceroute> traceroutes;
  std::vector<RouteDecision> decisions;
};

/// Steps 3-4 of the campaign for probes [first, last) over the converged
/// measurement engine: every probe traceroutes to a rotating window of
/// `hostnames`, then each reached trace becomes an AS path and one routing
/// decision per hop.
Measured measure(const GeneratedInternet& net,
                 const std::vector<std::string>& hostnames,
                 int hostnames_per_probe, const PassiveDataset& ds,
                 std::size_t first, std::size_t last) {
  const Topology& topo = net.topology;
  ContentResolver resolver{&topo, &net.world, &net.content};
  TracerouteSim tracer{&topo, ds.engine.get()};
  const int per_probe =
      std::min<int>(hostnames_per_probe, int(hostnames.size()));
  Measured out;
  for (std::size_t pi = first; pi < last; ++pi) {
    const Probe& probe = ds.probes[pi];
    for (int h = 0; h < per_probe; ++h) {
      const std::string& hostname =
          hostnames[(pi * per_probe + h) % hostnames.size()];
      const auto answer = resolver.resolve(hostname, probe.asn);
      IRP_CHECK(answer.has_value(), "catalog hostname failed to resolve");
      auto tr = tracer.run(probe.asn, probe.address, answer->address,
                           answer->prefix);
      if (!tr) continue;  // Probe's AS has no route at all.
      tr->hostname = hostname;
      out.traceroutes.push_back(std::move(*tr));
    }
  }

  // Convert to AS paths and extract decisions.
  for (std::size_t ti = 0; ti < out.traceroutes.size(); ++ti) {
    const Traceroute& tr = out.traceroutes[ti];
    if (!tr.reached) continue;
    std::vector<Ipv4Addr> ips{tr.src_address};
    for (const auto& hop : tr.hops) ips.push_back(hop.address);
    const std::vector<Asn> as_path = ds.ip_to_as.as_path_of(ips);
    if (as_path.size() < 2) continue;

    // City where each AS was entered (first hop mapping to that AS),
    // resolved through the (imperfect) geolocation database.
    std::map<Asn, CityId> entry_city;
    for (const auto& hop : tr.hops) {
      const auto asn = ds.ip_to_as.lookup(hop.address);
      if (!asn || entry_city.count(*asn)) continue;
      const auto city = net.geo->locate_city(hop.address);
      if (city) entry_city[*asn] = *city;
    }

    for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
      RouteDecision d;
      d.decider = as_path[i];
      d.next_hop = as_path[i + 1];
      d.dest_asn = as_path.back();
      d.src_asn = as_path.front();
      d.remaining_len = as_path.size() - 1 - i;
      d.dst_prefix = tr.dst_prefix;
      d.origin_asn = as_path.back();
      auto city = entry_city.find(d.next_hop);
      if (city != entry_city.end()) d.interconnect_city = city->second;
      d.measured_remaining.assign(as_path.begin() + long(i), as_path.end());
      d.traceroute_index = ti;
      out.decisions.push_back(std::move(d));
    }
  }
  return out;
}

}  // namespace

void announce_all(BgpEngine& engine, const Topology& topo,
                  const std::vector<Asn>& origins) {
  for (Asn asn : origins) {
    const AsNode& node = topo.as_node(asn);
    for (const auto& op : node.prefixes) {
      AnnounceOptions options;
      options.only_links = op.announce_only_on;
      options.prepend_on = op.prepend_on;
      engine.announce(op.prefix, asn, std::move(options));
    }
  }
  engine.run();
}

PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config) {
  ThreadPool pool{config.parallel.threads};
  return run_passive_study(net, config, pool);
}

PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config,
                                 ThreadPool& pool) {
  PassiveDataset ds;
  finish_passive_study(net, config, pool,
                       begin_passive_study(net, config, pool, ds), ds);
  return ds;
}

PassiveCampaign begin_passive_study(const GeneratedInternet& net,
                                    const PassiveStudyConfig& config,
                                    ThreadPool& pool, PassiveDataset& ds,
                                    const std::function<void()>& beside) {
  PassiveCampaign campaign{{}, {}, Rng{config.seed},
                           std::make_unique<BgpEngine::StatePool>()};
  Rng& rng = campaign.rng;
  const Topology& topo = net.topology;
  const int measurement_epoch = net.measurement_epoch;

  ds.policy = std::make_unique<GroundTruthPolicy>(&topo);

  // -- Every random draw of the campaign but the hybrid dataset's, before
  // any work starts: the probe sample, then the hostname shuffle. Workers
  // never touch an Rng.
  ProbeSampler sampler{&topo, &net.world, config.probes, rng.fork()};
  const auto population = sampler.platform_population();
  ds.probes = sampler.sample(population);

  // Hostname list, shuffled once; each probe measures a rotating window so
  // every hostname is covered while respecting the probing budget.
  std::vector<std::string>& hostnames = campaign.hostnames;
  for (const auto& service : net.content.services())
    for (const auto& h : service.hostnames) {
      hostnames.push_back(h.name);
      // The wide deployers are the traffic heavyweights (the study selected
      // its targets by downstream bytes): weight their hostnames double.
      if (service.wide_deployment) hostnames.push_back(h.name);
    }
  rng.shuffle(hostnames);
  IRP_CHECK(!hostnames.empty(), "no content hostnames to measure");

  // -- 1. One convergence loop. Index 0 (the longest job; the pool runs it
  // on the calling thread, so its ~120 MB reuse the same malloc arena in
  // every study) converges the measurement-epoch engine with all
  // content-related prefixes and reads its collector feed. Index 1 runs
  // `beside`. Index j + 2 is corpus job j. Each epoch counts down its jobs;
  // the thread that finishes an epoch's last job merges that epoch's job
  // sets, in job order, and, for every epoch but the measurement epoch
  // (whose set also needs the measurement feed), infers it.
  std::vector<PathSet>& parts = campaign.parts;
  parts.resize(static_cast<std::size_t>(measurement_epoch) + 1);
  ds.snapshots.resize(parts.size());
  ds.engine =
      std::make_unique<BgpEngine>(&topo, ds.policy.get(), measurement_epoch);
  CorpusJobs jobs{net, *ds.policy, config.snapshot_batch,
                  *campaign.state_pool};
  std::vector<std::atomic<std::size_t>> pending(parts.size());
  for (std::size_t j = 0; j < jobs.size(); ++j)
    pending[static_cast<std::size_t>(jobs.epoch(j))].fetch_add(1);
  pool.parallel_for(0, jobs.size() + 2, [&](std::size_t i) {
    if (i == 0) {
      announce_all(*ds.engine, topo, content_related_ases(net));
      ds.measurement_feed = ds.engine->feed(net.collector_peers);
      return;
    }
    if (i == 1) {
      if (beside) beside();
      return;
    }
    jobs.run(i - 2);
    const int epoch = jobs.epoch(i - 2);
    const auto e = static_cast<std::size_t>(epoch);
    // The thread that lands the last job sees every other job's set.
    if (pending[e].fetch_sub(1) != 1) return;
    jobs.consume_epoch(epoch, parts[e]);
    if (epoch != measurement_epoch)
      ds.snapshots[e] = infer_snapshot(parts[e], config.inference);
  });
  IRP_CHECK(jobs.all_consumed(), "a corpus job's paths were never consumed");
  return campaign;
}

void finish_passive_study(const GeneratedInternet& net,
                          const PassiveStudyConfig& config, ThreadPool& pool,
                          PassiveCampaign campaign, PassiveDataset& ds) {
  std::vector<PathSet>& parts = campaign.parts;

  // -- 3. One loop. Index 0: the measurement epoch's path set and
  // inference. Index 1: drop the corpus jobs' recycled engine states off
  // the critical path. Index c + 2: the traceroutes and decisions of probe
  // chunk c. The chunks are concatenated in probe order afterwards.
  ds.ip_to_as = IpToAsMap::from_topology(net.topology);
  const std::size_t chunks =
      (ds.probes.size() + kProbesPerChunk - 1) / kProbesPerChunk;
  std::vector<Measured> measured(chunks);
  pool.parallel_for(0, chunks + 2, [&](std::size_t i) {
    if (i == 0) {
      PathSet& latest = parts.back();
      for (const FeedEntry& e : ds.measurement_feed) latest.add_feed(e);
      ds.snapshots.back() = infer_snapshot(latest, config.inference);
      return;
    }
    if (i == 1) {
      campaign.state_pool.reset();
      return;
    }
    const std::size_t first = (i - 2) * kProbesPerChunk;
    measured[i - 2] =
        measure(net, campaign.hostnames, config.hostnames_per_probe, ds,
                first, std::min(ds.probes.size(), first + kProbesPerChunk));
  });
  std::size_t num_traceroutes = 0, num_decisions = 0;
  for (const Measured& chunk : measured) {
    num_traceroutes += chunk.traceroutes.size();
    num_decisions += chunk.decisions.size();
  }
  ds.traceroutes.reserve(num_traceroutes);
  ds.decisions.reserve(num_decisions);
  for (Measured& chunk : measured) {
    const std::size_t offset = ds.traceroutes.size();
    for (Traceroute& tr : chunk.traceroutes)
      ds.traceroutes.push_back(std::move(tr));
    for (RouteDecision& d : chunk.decisions) {
      d.traceroute_index += offset;
      ds.decisions.push_back(std::move(d));
    }
  }
  std::set<Asn> dest_ases, decider_ases;
  for (const RouteDecision& d : ds.decisions) {
    dest_ases.insert(d.dest_asn);
    decider_ases.insert(d.decider);
  }
  ds.num_destination_ases = dest_ases.size();
  ds.num_observed_decider_ases = decider_ases.size();

  // -- 4. Inference products: the aggregation over every epoch, siblings,
  // the complex-relationships dataset and the PSP observations.
  for (std::size_t e = 0; e < parts.size(); ++e)
    ds.corpus.epoch_set(static_cast<int>(e)).merge(std::move(parts[e]));
  ds.inferred = aggregate_snapshots(ds.snapshots);

  ds.siblings = infer_siblings(net.whois, net.soa);
  Rng hybrid_rng = campaign.rng.fork();
  ds.hybrid = build_hybrid_dataset(net.topology, config.hybrid_coverage,
                                   hybrid_rng);
  ds.observations.ingest(ds.measurement_feed);
}

}  // namespace irp
