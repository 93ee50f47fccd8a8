// Tests for the relationship-inference pipeline, sibling inference, and
// auxiliary datasets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "core/passive_study.hpp"
#include "inference/bgp_observations.hpp"
#include "inference/hybrid_dataset.hpp"
#include "inference/path_corpus.hpp"
#include "inference/relationships.hpp"
#include "inference/serialize.hpp"
#include "inference/siblings.hpp"
#include "serve/byte_io.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

/// The paths of a set, in insertion order.
std::vector<std::vector<Asn>> paths_of(const PathSet& set) {
  std::vector<std::vector<Asn>> out;
  for (const std::span<const Asn> path : set)
    out.emplace_back(path.begin(), path.end());
  return out;
}

using Paths = std::vector<std::vector<Asn>>;

TEST(PathSet, DeduplicatesAndCollapsesPrepending) {
  PathSet set;
  EXPECT_TRUE(set.add(std::vector<Asn>{1, 1, 2, 3, 3, 3}));
  EXPECT_FALSE(set.add(std::vector<Asn>{1, 2, 3}));
  EXPECT_FALSE(set.add(std::vector<Asn>{1, 2, 2, 3}));
  EXPECT_TRUE(set.add(std::vector<Asn>{1, 2}));  // A prefix is its own path.
  EXPECT_EQ(paths_of(set), (Paths{{1, 2, 3}, {1, 2}}));
  EXPECT_EQ(set.num_hops(), 5u);
  EXPECT_EQ(set.max_asn(), 3u);
}

TEST(PathSet, DropsPathsShorterThanTwoHops) {
  PathSet set;
  EXPECT_FALSE(set.add(std::vector<Asn>{}));
  EXPECT_FALSE(set.add(std::vector<Asn>{4}));
  EXPECT_FALSE(set.add(std::vector<Asn>{5, 5}));  // Collapses to one hop.
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.num_hops(), 0u);  // Dropped hops leave nothing behind.
  EXPECT_TRUE(set.add(std::vector<Asn>{6, 7}));
  EXPECT_EQ(paths_of(set), (Paths{{6, 7}}));
}

TEST(PathSet, SkipsPoisonedPaths) {
  PathSet set;
  FeedEntry poisoned;
  poisoned.peer = 1;
  poisoned.path.hops = {1, 2};
  poisoned.path.poison_set = {9};
  EXPECT_FALSE(set.add_feed(poisoned));

  // The engine-side form: peer 1 prepended to an interned path.
  PathTable table;
  const PathId poisoned_id = table.prepend(table.root(std::vector<Asn>{9}), 2);
  EXPECT_FALSE(set.add_feed(1, table, poisoned_id));
  EXPECT_TRUE(set.empty());

  const PathId clean_id = table.prepend(table.prepend(kEmptyPathId, 3), 2);
  EXPECT_TRUE(set.add_feed(1, table, clean_id));
  FeedEntry clean = poisoned;
  clean.path.hops = {1, 2, 3};
  clean.path.poison_set.clear();
  EXPECT_FALSE(set.add_feed(clean));  // The same path as the engine's.
  EXPECT_EQ(paths_of(set), (Paths{{1, 2, 3}}));

  // A corpus keeps no epoch for paths it skipped.
  PathCorpus corpus;
  corpus.add_feed(0, poisoned);
  EXPECT_EQ(corpus.total_paths(), 0u);
  corpus.add_feed(1, clean);
  EXPECT_EQ(corpus.paths(1).size(), 1u);
  EXPECT_EQ(corpus.epochs(), std::vector<int>{1});
  EXPECT_TRUE(corpus.paths(7).empty());
}

TEST(PathSet, KeepsFirstInsertionOrderAcrossMerges) {
  const Paths stream{{3, 4}, {1, 2}, {2, 5}, {1, 2}, {9, 8}, {3, 4}, {7, 6}};
  PathSet whole;
  for (const auto& path : stream) whole.add(path);
  EXPECT_EQ(paths_of(whole), (Paths{{3, 4}, {1, 2}, {2, 5}, {9, 8}, {7, 6}}));

  // Split the stream into consecutive parts and merge them in order: the
  // result equals adding the whole stream to one set, order included.
  PathSet merged, first, second;
  for (std::size_t i = 0; i < stream.size(); ++i)
    (i < 3 ? first : second).add(stream[i]);
  merged.merge(std::move(first));
  merged.merge(std::move(second));
  EXPECT_TRUE(first.empty());
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(paths_of(merged), paths_of(whole));
  EXPECT_EQ(merged.num_hops(), whole.num_hops());
  EXPECT_FALSE(merged.add(std::vector<Asn>{2, 5}));
}

TEST(PathSet, GrowsWithTheDistinctPaths) {
  PathSet set;
  for (Asn i = 1; i <= 20000; ++i)
    ASSERT_TRUE(set.add(std::vector<Asn>{i, i + 1, 30000 + i % 7}));
  for (Asn i = 1; i <= 20000; ++i)
    ASSERT_FALSE(set.add(std::vector<Asn>{i, i + 1, i + 1, 30000 + i % 7}));
  EXPECT_EQ(set.size(), 20000u);
  EXPECT_EQ(set.max_asn(), 30006u);
  EXPECT_EQ(paths_of(set)[12344], (std::vector<Asn>{12345, 12346, 30004}));
}

TEST(InferredTopology, OrientationIsPerspectiveCorrect) {
  InferredTopology topo;
  // set(5, 2, kAProviderOfB): the first argument (5) is the provider of the
  // second (2), whatever the normalized storage key ends up being.
  topo.set(5, 2, InferredRel::kAProviderOfB);
  EXPECT_EQ(topo.relationship(2, 5), Relationship::kProvider);  // 5 provides 2.
  EXPECT_EQ(topo.relationship(5, 2), Relationship::kCustomer);
  EXPECT_TRUE(topo.has_link(2, 5));
  EXPECT_FALSE(topo.has_link(2, 6));
  EXPECT_EQ(topo.relationship(2, 6), std::nullopt);
  EXPECT_EQ(topo.neighbors(5), std::vector<Asn>{2});
}

TEST(InferredTopology, ConcurrentNeighborReadersOnAFreshTopology) {
  // Links inserted in scrambled order, some relabeled; no read happens
  // before the four threads start, so a lazily built adjacency would be
  // filled concurrently (a data race under TSan).
  InferredTopology topo;
  constexpr Asn kAses = 300;
  std::uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Asn a = 1 + static_cast<Asn>((x >> 33) % kAses);
    const Asn b = 1 + static_cast<Asn>((x >> 13) % kAses);
    if (a != b) topo.set(a, b, static_cast<InferredRel>(i % 3));
  }

  std::map<Asn, std::vector<Asn>> expected;
  for (const auto& [pair, rel] : topo.links()) {
    expected[pair.first].push_back(pair.second);
    expected[pair.second].push_back(pair.first);
  }
  for (auto& [asn, list] : expected) std::sort(list.begin(), list.end());

  std::vector<std::vector<std::vector<Asn>>> seen(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < seen.size(); ++t)
    readers.emplace_back([&, t] {
      for (Asn asn = 0; asn <= kAses + 1; ++asn)
        seen[t].push_back(topo.neighbors(asn));
    });
  for (std::thread& r : readers) r.join();

  for (const auto& lists : seen)
    for (Asn asn = 0; asn <= kAses + 1; ++asn) {
      const auto it = expected.find(asn);
      EXPECT_EQ(lists[asn],
                it == expected.end() ? std::vector<Asn>{} : it->second)
          << "AS " << asn;
    }
}

TEST(Inference, SimpleChainInfersTransit) {
  // Star-free chain: collector at 1 sees paths through a hierarchy where 2
  // transits for many, so 2 is the apex.
  PathSet paths;
  for (Asn leaf = 10; leaf < 30; ++leaf) {
    paths.add(std::vector<Asn>{1, 2, leaf});
    paths.add(std::vector<Asn>{leaf, 2, 1});
  }
  const auto topo = infer_snapshot(paths);
  for (Asn leaf = 10; leaf < 30; ++leaf)
    EXPECT_EQ(topo.relationship(leaf, 2), Relationship::kProvider)
        << "leaf " << leaf;
}

TEST(Inference, PeerAtApexWithComparableDegrees) {
  // Two regional hubs exchange their customer cones: hub links are flat.
  PathSet paths;
  for (Asn a = 10; a < 25; ++a)
    for (Asn b = 30; b < 45; ++b) {
      paths.add(std::vector<Asn>{a, 2, 3, b});
      paths.add(std::vector<Asn>{b, 3, 2, a});
    }
  const auto topo = infer_snapshot(paths);
  EXPECT_EQ(topo.relationship(2, 3), Relationship::kPeer);
  EXPECT_EQ(topo.relationship(10, 2), Relationship::kProvider);
  EXPECT_EQ(topo.relationship(30, 3), Relationship::kProvider);
}

TEST(Inference, CliqueDetectedAndFullyMeshed) {
  // A 4-clique (1..4) with distinct customer trees; paths cross the core.
  PathSet paths;
  const auto customers_of = [](Asn t) {
    return std::vector<Asn>{t * 10, t * 10 + 1, t * 10 + 2};
  };
  for (Asn t1 = 1; t1 <= 4; ++t1)
    for (Asn t2 = 1; t2 <= 4; ++t2) {
      if (t1 == t2) continue;
      for (Asn c1 : customers_of(t1))
        for (Asn c2 : customers_of(t2))
          paths.add(std::vector<Asn>{c1, t1, t2, c2});
    }
  std::set<Asn> clique;
  const auto topo = infer_snapshot(paths, {}, &clique);
  EXPECT_EQ(clique, (std::set<Asn>{1, 2, 3, 4}));
  for (Asn t1 = 1; t1 <= 4; ++t1)
    for (Asn t2 = t1 + 1; t2 <= 4; ++t2)
      EXPECT_EQ(topo.relationship(t1, t2), Relationship::kPeer);
  // Clique members are providers of their adjacent customers.
  EXPECT_EQ(topo.relationship(10, 1), Relationship::kProvider);
}

TEST(Aggregation, LatestTwoMonthsOverrideHistory) {
  InferredTopology old1, old2, old3, new1, new2;
  for (auto* t : {&old1, &old2, &old3})
    t->set(1, 2, InferredRel::kAProviderOfB);
  new1.set(1, 2, InferredRel::kPeer);
  new2.set(1, 2, InferredRel::kPeer);
  const auto agg = aggregate_snapshots({old1, old2, old3, new1, new2});
  EXPECT_EQ(agg.relationship(1, 2), Relationship::kPeer);
}

TEST(Aggregation, WeightedMajorityWhenLatestDisagree) {
  InferredTopology s0, s1, s2, s3, s4;
  s0.set(1, 2, InferredRel::kPeer);
  s1.set(1, 2, InferredRel::kPeer);
  s2.set(1, 2, InferredRel::kPeer);
  s3.set(1, 2, InferredRel::kAProviderOfB);
  s4.set(1, 2, InferredRel::kPeer);
  // Latest two disagree; weights: peer = 1+2+3+5 = 11 vs 4.
  const auto agg = aggregate_snapshots({s0, s1, s2, s3, s4});
  EXPECT_EQ(agg.relationship(1, 2), Relationship::kPeer);
}

TEST(Aggregation, UnionKeepsStaleLinks) {
  InferredTopology s0, s1;
  s0.set(1, 2, InferredRel::kPeer);  // Link only in the old snapshot.
  s1.set(3, 4, InferredRel::kPeer);
  const auto agg = aggregate_snapshots({s0, s1});
  EXPECT_TRUE(agg.has_link(1, 2));  // Stale link survives aggregation.
  EXPECT_TRUE(agg.has_link(3, 4));
}

TEST(Siblings, GroupsByEmailAndSoa) {
  WhoisDb whois;
  whois.add({1, "dish", "dish.example", "n0", "RIR-NA"});
  whois.add({2, "dish tv", "dishaccess.example", "n0", "RIR-NA"});
  whois.add({3, "other", "other.example", "n0", "RIR-NA"});
  DnsSoaDb soa;
  soa.add("dish.example", "dishdns.example");
  soa.add("dishaccess.example", "dishdns.example");
  const auto groups = infer_siblings(whois, soa);
  EXPECT_EQ(groups.num_groups(), 1u);
  EXPECT_TRUE(groups.same_group(1, 2));
  EXPECT_FALSE(groups.same_group(1, 3));
}

TEST(Siblings, FiltersPopularAndRirDomains) {
  WhoisDb whois;
  whois.add({1, "a", "mail-a.example", "n0", "RIR-NA"});
  whois.add({2, "b", "mail-a.example", "n0", "RIR-NA"});
  whois.add({3, "c", "rir-eu.example", "e0", "RIR-EU"});
  whois.add({4, "d", "rir-eu.example", "e1", "RIR-EU"});
  DnsSoaDb soa;
  const auto groups = infer_siblings(whois, soa);
  EXPECT_EQ(groups.num_groups(), 0u);
  EXPECT_FALSE(groups.same_group(1, 2));
  EXPECT_FALSE(groups.same_group(3, 4));
}

TEST(HybridDataset, FindsDifferingParallelLinks) {
  test::TinyTopo t;
  const Asn a = t.add();
  const Asn b = t.add();
  const LinkId l1 = t.link(a, b, Relationship::kPeer);
  const LinkId l2 = t.link(a, b, Relationship::kCustomer);
  t.topo.link_mutable(l1).city = 1;
  t.topo.link_mutable(l2).city = 2;
  Rng rng{3};
  const auto ds = build_hybrid_dataset(t.topo, 1.0, rng);
  EXPECT_TRUE(ds.covers_pair(a, b));
  EXPECT_EQ(ds.relationship_at(a, b, 1), Relationship::kPeer);
  EXPECT_EQ(ds.relationship_at(a, b, 2), Relationship::kCustomer);
  EXPECT_EQ(ds.relationship_at(b, a, 2), Relationship::kProvider);
  EXPECT_EQ(ds.relationship_at(a, b, 9), std::nullopt);
}

TEST(HybridDataset, RecordsPartialTransit) {
  test::TinyTopo t;
  const Asn prov = t.add();
  const Asn cust = t.add();
  const LinkId l = t.link(prov, cust, Relationship::kCustomer);
  t.topo.link_mutable(l).partial_transit = true;
  Rng rng{4};
  const auto ds = build_hybrid_dataset(t.topo, 1.0, rng);
  EXPECT_TRUE(ds.is_partial_transit(prov, cust));
  EXPECT_FALSE(ds.is_partial_transit(cust, prov));
}

TEST(HybridDataset, CoverageZeroIsEmpty) {
  test::TinyTopo t;
  const Asn a = t.add();
  const Asn b = t.add();
  t.link(a, b, Relationship::kPeer);
  t.link(a, b, Relationship::kCustomer);
  Rng rng{5};
  const auto ds = build_hybrid_dataset(t.topo, 0.0, rng);
  EXPECT_FALSE(ds.covers_pair(a, b));
  EXPECT_TRUE(ds.entries().empty());
}

TEST(BgpObservations, TracksOriginNeighborPerPrefix) {
  BgpObservations obs;
  const auto p1 = *Ipv4Prefix::parse("10.0.0.0/24");
  const auto p2 = *Ipv4Prefix::parse("10.0.1.0/24");
  std::vector<FeedEntry> feed;
  feed.push_back({7, p1, AsPath{{7, 5, 3}, {}}});  // 3 announced p1 to 5.
  feed.push_back({7, p2, AsPath{{7, 3}, {}}});     // 3 announced p2 to 7.
  obs.ingest(feed);
  EXPECT_TRUE(obs.announced(3, 5, p1));
  EXPECT_FALSE(obs.announced(3, 5, p2));
  EXPECT_TRUE(obs.announced(3, 7, p2));
  EXPECT_TRUE(obs.announced_any(3, 5));
  EXPECT_FALSE(obs.announced_any(5, 3));
  EXPECT_EQ(obs.neighbors_for(3, p1), std::set<Asn>{5});
}

/// Regression bound: end-to-end inference accuracy on the generated
/// Internet must stay high — every analysis depends on it.
TEST(Inference, EndToEndAccuracyBound) {
  const auto net = generate_internet(test::small_generator_config());
  const auto ds = run_passive_study(*net, test::small_passive_config());

  std::map<std::pair<Asn, Asn>, std::set<Relationship>> truth;
  net->topology.for_each_link([&](const Link& l) {
    if (!net->topology.link_alive(l, net->measurement_epoch)) return;
    const Asn a = std::min(l.a, l.b), b = std::max(l.a, l.b);
    truth[{a, b}].insert(l.a == a ? l.rel_of_b_from_a
                                  : reverse(l.rel_of_b_from_a));
  });
  std::size_t comparable = 0, correct = 0;
  for (const auto& [pair, rel] : ds.inferred.links()) {
    auto it = truth.find(pair);
    if (it == truth.end() || it->second.size() != 1) continue;
    const Relationship t = *it->second.begin();
    if (t == Relationship::kSibling) continue;
    ++comparable;
    if (*ds.inferred.relationship(pair.first, pair.second) == t) ++correct;
  }
  ASSERT_GT(comparable, 100u);
  EXPECT_GT(double(correct) / double(comparable), 0.80)
      << correct << "/" << comparable;
}

/// FNV-1a digests of to_caida_format for every epoch snapshot and for the
/// §3.3 aggregation of the fixture's small passive study. They were taken
/// from the std::map/std::set implementation of the corpus and of
/// infer_snapshot, so they pin the flat rewrite to it byte for byte.
TEST(Inference, SmallStudyMatchesGoldenDigests) {
  const auto net = generate_internet(test::small_generator_config());
  const auto ds = run_passive_study(*net, test::small_passive_config());
  const std::vector<std::uint64_t> snapshots{
      0xd9fd22f71ac393f3ULL, 0x6d06b16aad4b9f8dULL, 0xd1c9fca61e80fe87ULL,
      0xb1b7d21b2d6dbc3eULL, 0xf2dd45dfcebcbeaeULL};
  ASSERT_EQ(ds.snapshots.size(), snapshots.size());
  for (std::size_t e = 0; e < snapshots.size(); ++e)
    EXPECT_EQ(fnv1a64(to_caida_format(ds.snapshots[e])), snapshots[e])
        << "epoch " << e;
  EXPECT_EQ(fnv1a64(to_caida_format(ds.inferred)), 0x4622d5501338232bULL);
}

}  // namespace
}  // namespace irp
