#include "core/passive_study.hpp"

#include <algorithm>
#include <map>

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
/// convergences announcing one prefix per AS, one feed per (epoch, batch)
/// job, jobs in ascending epoch order.
struct CorpusFeeds {
  std::vector<int> epoch;                     ///< Per job.
  std::vector<std::vector<FeedEntry>> feeds;  ///< Per job.

  /// Adds every feed of `e`'s jobs to `corpus` and frees it.
  void consume_epoch(int e, PathCorpus& corpus) {
    for (std::size_t j = 0; j < feeds.size(); ++j) {
      if (epoch[j] != e) continue;
      for (const FeedEntry& entry : feeds[j]) corpus.add_feed(e, entry);
      std::vector<FeedEntry>().swap(feeds[j]);
    }
  }
};

/// Each (epoch, batch) convergence owns a private BgpEngine over the shared
/// immutable topology/policy, so jobs run concurrently on `pool`.
CorpusFeeds converge_corpus_jobs(const GeneratedInternet& net,
                                 const GroundTruthPolicy& policy, int batch,
                                 ThreadPool& pool) {
  const Topology& topo = net.topology;
  std::vector<std::pair<Ipv4Prefix, Asn>> origins;
  topo.for_each_as([&](const AsNode& node) {
    if (!node.prefixes.empty())
      origins.emplace_back(node.prefixes.front().prefix, node.asn);
  });

  CorpusFeeds out;
  std::vector<std::size_t> starts;
  for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
    for (std::size_t start = 0; start < origins.size();
         start += static_cast<std::size_t>(batch)) {
      out.epoch.push_back(epoch);
      starts.push_back(start);
    }

  // Engines are short-lived (one per job) but their per-prefix state is
  // O(num_ases · batch); the shared pool recycles it across jobs instead of
  // re-mallocing it for every (epoch, batch).
  BgpEngine::StatePool state_pool;
  out.feeds = pool.parallel_map(starts.size(), [&](std::size_t j) {
    BgpEngine engine{&topo, &policy, out.epoch[j], &state_pool};
    const std::size_t end = std::min(
        origins.size(), starts[j] + static_cast<std::size_t>(batch));
    for (std::size_t i = starts[j]; i < end; ++i)
      engine.announce(origins[i].first, origins[i].second);
    engine.run();
    return engine.feed(net.collector_peers);
  });
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
  Rng rng{config.seed};
  const Topology& topo = net.topology;
  const int measurement_epoch = net.measurement_epoch;

  ds.policy = std::make_unique<GroundTruthPolicy>(&topo);

  // -- 1. Inference corpus convergences across all snapshots.
  CorpusFeeds corpus_feeds =
      converge_corpus_jobs(net, *ds.policy, config.snapshot_batch, pool);

  // -- 2. Measurement-epoch engine with all content-related prefixes
  // (index 0), beside each earlier epoch's path set and its inference
  // (index e + 1). The measurement epoch's set also needs the measurement
  // feed, so it is built after step 4. Each epoch fills a PathCorpus of its
  // own; path sets do not depend on insertion order, so merging the parts
  // yields the corpus a serial run builds.
  std::vector<PathCorpus> parts(static_cast<std::size_t>(measurement_epoch) +
                                1);
  ds.snapshots.resize(parts.size());
  ds.engine =
      std::make_unique<BgpEngine>(&topo, ds.policy.get(), measurement_epoch);
  pool.parallel_for(0, parts.size(), [&](std::size_t i) {
    if (i == 0) {
      announce_all(*ds.engine, topo, content_related_ases(net));
      return;
    }
    const int epoch = static_cast<int>(i) - 1;
    corpus_feeds.consume_epoch(epoch, parts[i - 1]);
    ds.snapshots[i - 1] =
        infer_snapshot(parts[i - 1].paths(epoch), config.inference);
  });

  // -- 3. Probes and traceroutes.
  ProbeSampler sampler{&topo, &net.world, config.probes, rng.fork()};
  const auto population = sampler.platform_population();
  ds.probes = sampler.sample(population);

  ds.ip_to_as = IpToAsMap::from_topology(topo);
  ContentResolver resolver{&topo, &net.world, &net.content};
  TracerouteSim tracer{&topo, ds.engine.get()};

  // Hostname list, shuffled once; each probe measures a rotating window so
  // every hostname is covered while respecting the probing budget.
  std::vector<std::string> hostnames;
  for (const auto& service : net.content.services())
    for (const auto& h : service.hostnames) {
      hostnames.push_back(h.name);
      // The wide deployers are the traffic heavyweights (the study selected
      // its targets by downstream bytes): weight their hostnames double.
      if (service.wide_deployment) hostnames.push_back(h.name);
    }
  rng.shuffle(hostnames);
  IRP_CHECK(!hostnames.empty(), "no content hostnames to measure");
  const int per_probe =
      std::min<int>(config.hostnames_per_probe, int(hostnames.size()));

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

  // -- 4. Convert to AS paths and extract decisions.
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

  // -- 5. Inference products: the measurement epoch's path set and its
  // inference, then the aggregation over every epoch.
  ds.measurement_feed = ds.engine->feed(net.collector_peers);
  PathCorpus& latest = parts.back();
  corpus_feeds.consume_epoch(measurement_epoch, latest);
  for (const FeedEntry& e : ds.measurement_feed)
    latest.add_feed(measurement_epoch, e);
  ds.snapshots.back() =
      infer_snapshot(latest.paths(measurement_epoch), config.inference);
  for (PathCorpus& part : parts) ds.corpus.merge(std::move(part));
  ds.inferred = aggregate_snapshots(ds.snapshots);

  ds.siblings = infer_siblings(net.whois, net.soa);
  Rng hybrid_rng = rng.fork();
  ds.hybrid = build_hybrid_dataset(topo, config.hybrid_coverage, hybrid_rng);
  ds.observations.ingest(ds.measurement_feed);

  return ds;
}

}  // namespace irp
