#include "core/passive_study.hpp"

#include <algorithm>
#include <atomic>
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
/// shared immutable topology/policy, so jobs run concurrently.
class CorpusJobs {
 public:
  CorpusJobs(const GeneratedInternet& net, const GroundTruthPolicy& policy,
             int batch)
      : net_(net), policy_(policy), batch_(static_cast<std::size_t>(batch)) {
    net.topology.for_each_as([&](const AsNode& node) {
      if (!node.prefixes.empty())
        origins_.emplace_back(node.prefixes.front().prefix, node.asn);
    });
    for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
      for (std::size_t start = 0; start < origins_.size(); start += batch_) {
        epoch_.push_back(epoch);
        start_.push_back(start);
      }
    feeds_.resize(epoch_.size());
  }

  std::size_t size() const { return epoch_.size(); }
  int epoch(std::size_t job) const { return epoch_[job]; }

  /// Converges job `job` and keeps its feed until consume_epoch().
  void run(std::size_t job) {
    BgpEngine engine{&net_.topology, &policy_, epoch_[job], &state_pool_};
    const std::size_t end = std::min(origins_.size(), start_[job] + batch_);
    for (std::size_t i = start_[job]; i < end; ++i)
      engine.announce(origins_[i].first, origins_[i].second);
    engine.run();
    feeds_[job] = engine.feed(net_.collector_peers);
  }

  /// Adds every feed of `e`'s jobs to `corpus` and frees it. The caller
  /// must have seen every one of those jobs finish.
  void consume_epoch(int e, PathCorpus& corpus) {
    for (std::size_t j = 0; j < feeds_.size(); ++j) {
      if (epoch_[j] != e) continue;
      for (const FeedEntry& entry : feeds_[j]) corpus.add_feed(e, entry);
      std::vector<FeedEntry>().swap(feeds_[j]);
    }
  }

  bool all_consumed() const {
    return std::all_of(feeds_.begin(), feeds_.end(),
                       [](const auto& feed) { return feed.empty(); });
  }

 private:
  const GeneratedInternet& net_;
  const GroundTruthPolicy& policy_;
  std::size_t batch_;
  std::vector<std::pair<Ipv4Prefix, Asn>> origins_;
  std::vector<int> epoch_;          ///< Per job.
  std::vector<std::size_t> start_;  ///< Per job: first index into origins_.
  std::vector<std::vector<FeedEntry>> feeds_;  ///< Per job.
  // Engines are short-lived (one per job) but their per-prefix state is
  // O(num_ases · batch); the shared pool recycles it across jobs instead of
  // re-mallocing it for every (epoch, batch).
  BgpEngine::StatePool state_pool_;
};

/// Steps 3-4 of the campaign over the converged measurement engine: every
/// probe traceroutes to a rotating window of `hostnames`, then each reached
/// trace becomes an AS path and one routing decision per hop.
void measure(const GeneratedInternet& net,
             const std::vector<std::string>& hostnames,
             int hostnames_per_probe, PassiveDataset& ds) {
  const Topology& topo = net.topology;
  ds.ip_to_as = IpToAsMap::from_topology(topo);
  ContentResolver resolver{&topo, &net.world, &net.content};
  TracerouteSim tracer{&topo, ds.engine.get()};
  const int per_probe =
      std::min<int>(hostnames_per_probe, int(hostnames.size()));
  for (std::size_t pi = 0; pi < ds.probes.size(); ++pi) {
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
      ds.traceroutes.push_back(std::move(*tr));
    }
  }

  // Convert to AS paths and extract decisions.
  std::set<Asn> dest_ases;
  std::set<Asn> decider_ases;
  for (std::size_t ti = 0; ti < ds.traceroutes.size(); ++ti) {
    const Traceroute& tr = ds.traceroutes[ti];
    if (!tr.reached) continue;
    std::vector<Ipv4Addr> ips{tr.src_address};
    for (const auto& hop : tr.hops) ips.push_back(hop.address);
    const std::vector<Asn> as_path = ds.ip_to_as.as_path_of(ips);
    if (as_path.size() < 2) continue;
    dest_ases.insert(as_path.back());

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
      decider_ases.insert(d.decider);
      ds.decisions.push_back(std::move(d));
    }
  }
  ds.num_destination_ases = dest_ases.size();
  ds.num_observed_decider_ases = decider_ases.size();
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
                                    ThreadPool& pool, PassiveDataset& ds) {
  PassiveCampaign campaign{{}, {}, Rng{config.seed}};
  Rng& rng = campaign.rng;
  const Topology& topo = net.topology;
  const int measurement_epoch = net.measurement_epoch;

  ds.policy = std::make_unique<GroundTruthPolicy>(&topo);

  // -- 1. One convergence loop: the measurement-epoch engine with all
  // content-related prefixes (index 0, the longest job; the pool runs it on
  // the calling thread, so its ~120 MB reuse the same malloc arena in every
  // study) beside every (epoch, batch) corpus job (index j + 1). Each epoch
  // counts down its jobs; the thread that finishes an epoch's last job
  // assembles that epoch's part of the corpus and, for every epoch but the
  // measurement epoch (whose set also needs the measurement feed), infers
  // it. Path sets do not depend on insertion order, so merging the parts
  // yields the corpus a serial run builds.
  std::vector<PathCorpus>& parts = campaign.parts;
  parts.resize(static_cast<std::size_t>(measurement_epoch) + 1);
  ds.snapshots.resize(parts.size());
  ds.engine =
      std::make_unique<BgpEngine>(&topo, ds.policy.get(), measurement_epoch);
  {
    CorpusJobs jobs{net, *ds.policy, config.snapshot_batch};
    std::vector<std::atomic<std::size_t>> pending(parts.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
      pending[static_cast<std::size_t>(jobs.epoch(j))].fetch_add(1);
    pool.parallel_for(0, jobs.size() + 1, [&](std::size_t i) {
      if (i == 0) {
        announce_all(*ds.engine, topo, content_related_ases(net));
        return;
      }
      jobs.run(i - 1);
      const int epoch = jobs.epoch(i - 1);
      const auto e = static_cast<std::size_t>(epoch);
      // The thread that lands the last job sees every other job's feed.
      if (pending[e].fetch_sub(1) != 1) return;
      jobs.consume_epoch(epoch, parts[e]);
      if (epoch != measurement_epoch)
        ds.snapshots[e] = infer_snapshot(parts[e].paths(epoch),
                                         config.inference);
    });
    IRP_CHECK(jobs.all_consumed(), "a corpus feed was never consumed");
  }

  // -- 2. Serial middle: the measurement feed, then every random draw
  // (the probe sample and the hostname shuffle). Workers never touch an Rng.
  ds.measurement_feed = ds.engine->feed(net.collector_peers);
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
  return campaign;
}

void finish_passive_study(const GeneratedInternet& net,
                          const PassiveStudyConfig& config, ThreadPool& pool,
                          PassiveCampaign campaign, PassiveDataset& ds) {
  const int measurement_epoch = net.measurement_epoch;
  std::vector<PathCorpus>& parts = campaign.parts;

  // -- 3. The measurement epoch's path set and inference (index 0) beside
  // the traceroutes and decision extraction (index 1).
  pool.parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) {
      PathCorpus& latest = parts.back();
      for (const FeedEntry& e : ds.measurement_feed)
        latest.add_feed(measurement_epoch, e);
      ds.snapshots.back() =
          infer_snapshot(latest.paths(measurement_epoch), config.inference);
      return;
    }
    measure(net, campaign.hostnames, config.hostnames_per_probe, ds);
  });

  // -- 4. Inference products: the aggregation over every epoch, siblings,
  // the complex-relationships dataset and the PSP observations.
  for (PathCorpus& part : parts) ds.corpus.merge(std::move(part));
  ds.inferred = aggregate_snapshots(ds.snapshots);

  ds.siblings = infer_siblings(net.whois, net.soa);
  Rng hybrid_rng = campaign.rng.fork();
  ds.hybrid = build_hybrid_dataset(net.topology, config.hybrid_coverage,
                                   hybrid_rng);
  ds.observations.ingest(ds.measurement_feed);
}

}  // namespace irp
