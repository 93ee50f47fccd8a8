// Determinism harness for the parallel execution layer: the passive study
// and the full classification pipeline must produce byte-identical results
// at any thread count, because workers only ever claim *which* unit of work
// to run — all randomness and all result ordering stay serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/paper_claims.hpp"
#include "core/report_io.hpp"
#include "core/study.hpp"
#include "inference/serialize.hpp"
#include "serve/oracle_snapshot.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

/// Full text dump of every extracted routing decision, in order.
std::string dump_decisions(const PassiveDataset& ds) {
  std::ostringstream out;
  for (const RouteDecision& d : ds.decisions) {
    out << d.decider << '>' << d.next_hop << " dest=" << d.dest_asn
        << " src=" << d.src_asn << " rem=" << d.remaining_len
        << " prefix=" << d.dst_prefix.to_string()
        << " origin=" << d.origin_asn << " city="
        << (d.interconnect_city ? int(*d.interconnect_city) : -1)
        << " tr=" << d.traceroute_index << " path=";
    for (Asn asn : d.measured_remaining) out << asn << ',';
    out << '\n';
  }
  return out.str();
}

/// Full text dump of the corpus: every epoch, every path, paths in
/// lexicographic order.
std::string dump_corpus(const PathCorpus& corpus) {
  std::ostringstream out;
  for (int epoch : corpus.epochs()) {
    out << "epoch " << epoch << '\n';
    std::vector<std::vector<Asn>> paths;
    for (const std::span<const Asn> path : corpus.paths(epoch))
      paths.emplace_back(path.begin(), path.end());
    std::sort(paths.begin(), paths.end());
    for (const std::vector<Asn>& path : paths) {
      for (Asn asn : path) out << asn << ' ';
      out << '\n';
    }
  }
  return out.str();
}

/// Per-decision categories under every Figure 1 scenario, one char each.
std::string dump_classification(const PassiveDataset& ds,
                                const DecisionClassifier& classifier) {
  std::ostringstream out;
  for (const NamedScenario& scenario : figure1_scenarios()) {
    out << scenario.name << ':';
    for (const RouteDecision& d : ds.decisions)
      out << int(classifier.classify(d, scenario.options));
    out << '\n';
  }
  return out.str();
}

TEST(ParallelDeterminism, ParallelEqualsSerialEverywhere) {
  const auto net = generate_internet(test::small_generator_config());

  PassiveStudyConfig serial_config = test::small_passive_config();
  serial_config.parallel.threads = 1;
  PassiveStudyConfig parallel_config = serial_config;
  parallel_config.parallel.threads = 4;

  const PassiveDataset serial = run_passive_study(*net, serial_config);
  const PassiveDataset parallel = run_passive_study(*net, parallel_config);

  // -- Decisions: identical, field by field, in extraction order.
  EXPECT_EQ(dump_decisions(serial), dump_decisions(parallel));

  // -- Corpus: identical path sets in every epoch.
  EXPECT_EQ(dump_corpus(serial.corpus), dump_corpus(parallel.corpus));

  // -- Inferred relationships: the aggregate and every monthly snapshot
  // serialize to identical CAIDA serial-1 text (round-trip format).
  EXPECT_EQ(to_caida_format(serial.inferred), to_caida_format(parallel.inferred));
  ASSERT_EQ(serial.snapshots.size(), parallel.snapshots.size());
  for (std::size_t i = 0; i < serial.snapshots.size(); ++i)
    EXPECT_EQ(to_caida_format(serial.snapshots[i]),
              to_caida_format(parallel.snapshots[i]))
        << "snapshot " << i;

  // Round-trip sanity: the text parses back to the same number of links.
  EXPECT_EQ(from_caida_format(to_caida_format(parallel.inferred)).num_links(),
            parallel.inferred.num_links());

  // -- Classification: a serial classifier vs one whose cache was warmed
  // by a 4-thread precompute, decision by decision, scenario by scenario.
  const DecisionClassifier serial_cls = make_classifier(serial);
  const DecisionClassifier parallel_cls = make_classifier(parallel);
  parallel_cls.precompute(parallel.decisions, 4);
  EXPECT_EQ(dump_classification(serial, serial_cls),
            dump_classification(parallel, parallel_cls));

  // -- Report tables: byte-identical CSV for the classifier-driven reports.
  EXPECT_EQ(figure1_csv(compute_figure1(serial, serial_cls)),
            figure1_csv(compute_figure1(parallel, parallel_cls)));
  EXPECT_EQ(figure2_csv(compute_skew(serial, *net, serial_cls)),
            figure2_csv(compute_skew(parallel, *net, parallel_cls)));
  EXPECT_EQ(table1_csv(compute_table1(serial, *net)),
            table1_csv(compute_table1(parallel, *net)));
}

TEST(ParallelDeterminism, HardwareThreadCountAlsoMatchesSerial) {
  // threads = 0 (one per core) through the same harness, on a reduced
  // config to keep the suite fast: corpus and inference must still match.
  auto config = test::small_generator_config(11);
  config.stubs_per_country = 2;
  const auto net = generate_internet(config);

  PassiveStudyConfig serial_config = test::small_passive_config();
  serial_config.probes.sample_per_continent = 10;
  serial_config.parallel.threads = 1;
  PassiveStudyConfig hw_config = serial_config;
  hw_config.parallel.threads = 0;

  const PassiveDataset serial = run_passive_study(*net, serial_config);
  const PassiveDataset hw = run_passive_study(*net, hw_config);
  EXPECT_EQ(dump_corpus(serial.corpus), dump_corpus(hw.corpus));
  EXPECT_EQ(dump_decisions(serial), dump_decisions(hw));
  EXPECT_EQ(to_caida_format(serial.inferred), to_caida_format(hw.inferred));
}

/// The corpus the passive study must build, assembled without its phase
/// graph: every (epoch, batch) job converged on its own engine, one after
/// another, each feed added to one PathCorpus as it lands, then the feed of
/// a separately converged measurement-epoch engine.
PathCorpus reference_corpus(const GeneratedInternet& net,
                            const PassiveStudyConfig& config) {
  const Topology& topo = net.topology;
  const GroundTruthPolicy policy{&topo};
  std::vector<std::pair<Ipv4Prefix, Asn>> origins;
  topo.for_each_as([&](const AsNode& node) {
    if (!node.prefixes.empty())
      origins.emplace_back(node.prefixes.front().prefix, node.asn);
  });
  const auto batch = static_cast<std::size_t>(config.snapshot_batch);
  PathCorpus corpus;
  for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
    for (std::size_t start = 0; start < origins.size(); start += batch) {
      BgpEngine engine{&topo, &policy, epoch};
      for (std::size_t i = start; i < std::min(origins.size(), start + batch);
           ++i)
        engine.announce(origins[i].first, origins[i].second);
      engine.run();
      for (const FeedEntry& entry : engine.feed(net.collector_peers))
        corpus.add_feed(epoch, entry);
    }

  std::set<Asn> content;
  for (const auto& service : net.content.services()) {
    content.insert(service.origin_asn);
    for (const auto& cache : service.caches) content.insert(cache.host_asn);
  }
  content.insert(net.content_asns.begin(), net.content_asns.end());
  BgpEngine measurement{&topo, &policy, net.measurement_epoch};
  announce_all(measurement, topo, {content.begin(), content.end()});
  for (const FeedEntry& entry : measurement.feed(net.collector_peers))
    corpus.add_feed(net.measurement_epoch, entry);
  return corpus;
}

TEST(ParallelDeterminism, EpochSetsMatchAnIndependentReference) {
  // Each epoch's path set is assembled, and inferred, by whichever thread
  // lands that epoch's last corpus job. A follow-up that fired before its
  // epoch's last job would drop paths at every thread count alike, so this
  // checks against a corpus built without the phase graph, not against a
  // serial run.
  auto gen = test::small_generator_config(11);
  gen.stubs_per_country = 2;
  const auto net = generate_internet(gen);
  PassiveStudyConfig config = test::small_passive_config();
  config.probes.sample_per_continent = 10;
  config.snapshot_batch = 16;  // Several jobs per epoch.
  const PathCorpus reference = reference_corpus(*net, config);
  ASSERT_EQ(reference.epochs().size(),
            static_cast<std::size_t>(net->measurement_epoch) + 1);

  for (int threads : {1, 4}) {
    config.parallel.threads = threads;
    const PassiveDataset ds = run_passive_study(*net, config);
    EXPECT_EQ(dump_corpus(ds.corpus), dump_corpus(reference))
        << "threads=" << threads;
    ASSERT_EQ(ds.snapshots.size(), reference.epochs().size());
    for (int epoch : reference.epochs())
      EXPECT_EQ(to_caida_format(ds.snapshots[static_cast<std::size_t>(epoch)]),
                to_caida_format(infer_snapshot(reference.paths(epoch),
                                               config.inference)))
          << "epoch " << epoch << " at threads=" << threads;
  }
}

/// Every artifact of a full study, by name: the CSV reports, the extended
/// model's counts and gains, the oracle image and the paper-claims table.
std::vector<std::pair<std::string, std::string>> study_artifacts(
    const StudyResults& r) {
  std::vector<std::pair<std::string, std::string>> out{
      {"table1", table1_csv(r.table1)},
      {"figure1", figure1_csv(r.figure1)},
      {"figure2", figure2_csv(r.skew)},
      {"figure3", figure3_csv(r.figure3)},
      {"table3", table3_csv(r.table3)},
      {"table4", table4_csv(r.table4)},
      {"psp", psp_csv(r.psp)},
      {"alternate", alternate_csv(r.alternate)},
      {"table2", table2_csv(r.table2)},
  };
  std::ostringstream extended;
  for (const CategoryBreakdown* b :
       {&r.extended.simple, &r.extended.all_refinements, &r.extended.extended}) {
    for (std::size_t c : b->counts) extended << c << ',';
    extended << '\n';
  }
  extended.precision(17);
  extended << r.extended.stale_gain << ',' << r.extended.cable_gain;
  out.emplace_back("extended", extended.str());
  out.emplace_back("image", snapshot_study(r.passive).to_bytes());
  out.emplace_back("claims", render_paper_claims(r));
  return out;
}

TEST(ParallelDeterminism, FullStudyEqualsSerial) {
  // The whole study — passive campaign, analyses, extended model and the
  // active experiments, whose phases overlap on one pool — at 1, 4 and
  // hardware threads.
  StudyConfig config;
  config.generator = test::small_generator_config();
  config.passive = test::small_passive_config();
  config.active.traceroute_vantages = 24;
  config.active.max_targets = 60;

  config.passive.parallel.threads = 1;
  const auto serial = study_artifacts(run_full_study(config));
  for (int threads : {4, 0}) {
    config.passive.parallel.threads = threads;
    const auto parallel = study_artifacts(run_full_study(config));
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(serial[i].second, parallel[i].second)
          << serial[i].first << " at threads=" << threads;
  }
}

}  // namespace
}  // namespace irp
