// Tests for decision classification and the refinement scenarios.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/classify.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

/// Fixture topology:
///   dest 1; 2 and 3 are 1's providers (inferred); 4 peers with 2 and 3 and
///   has customer 5... built so AS 4 has a customer-class route via nothing,
///   peer routes via 2/3, and we can exercise every quadrant.
class ClassifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_.set(2, 1, InferredRel::kAProviderOfB);  // 2 provider of 1.
    topo_.set(3, 1, InferredRel::kAProviderOfB);  // 3 provider of 1.
    topo_.set(4, 2, InferredRel::kPeer);
    topo_.set(4, 3, InferredRel::kPeer);
    topo_.set(4, 5, InferredRel::kAProviderOfB);  // 4 provider of 5.
    topo_.set(5, 2, InferredRel::kBProviderOfA);  // 2 provider of 5.
    prefix_ = *Ipv4Prefix::parse("10.9.0.0/24");
  }

  RouteDecision decision(Asn decider, Asn next, std::size_t remaining) {
    RouteDecision d;
    d.decider = decider;
    d.next_hop = next;
    d.dest_asn = 1;
    d.origin_asn = 1;
    d.src_asn = 5;
    d.remaining_len = remaining;
    d.dst_prefix = prefix_;
    d.measured_remaining = {decider, next, 1};
    return d;
  }

  InferredTopology topo_;
  Ipv4Prefix prefix_;
  SiblingGroups siblings_;
  HybridDataset hybrid_;
  BgpObservations obs_;
};

TEST_F(ClassifyTest, BestShortQuadrants) {
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs_};
  const ScenarioOptions simple;

  // AS 4's best class toward 1 is peer (via 2 or 3), shortest length 2.
  EXPECT_EQ(cls.classify(decision(4, 2, 2), simple),
            DecisionCategory::kBestShort);
  EXPECT_EQ(cls.classify(decision(4, 2, 3), simple),
            DecisionCategory::kBestLong);

  // AS 5: customer... 5 buys from 2 (2 provider of 5) and from 4.
  // Best class at 5 is provider (only up routes); shortest = 2 via 2.
  EXPECT_EQ(cls.classify(decision(5, 2, 2), simple),
            DecisionCategory::kBestShort);
  // Going via 4 (provider, length 3: 5-4-2-1) is Best but Long.
  EXPECT_EQ(cls.classify(decision(5, 4, 3), simple),
            DecisionCategory::kBestLong);
}

TEST_F(ClassifyTest, UnknownLinkIsNonBest) {
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs_};
  const ScenarioOptions simple;
  // 4 -> 1 directly: no such link in the inferred topology.
  EXPECT_EQ(cls.classify(decision(4, 1, 2), simple),
            DecisionCategory::kNonBestShort);
  EXPECT_EQ(cls.classify(decision(4, 1, 5), simple),
            DecisionCategory::kNonBestLong);
}

TEST_F(ClassifyTest, SiblingRefinementMarksBest) {
  SiblingGroups siblings;
  siblings.add_group({4, 1});
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings, &obs_};
  const ScenarioOptions simple;
  const ScenarioOptions sibs{.use_siblings = true};
  const auto d = decision(4, 1, 2);  // Unknown link, but 1 is 4's sibling.
  EXPECT_EQ(cls.classify(d, simple), DecisionCategory::kNonBestShort);
  EXPECT_EQ(cls.classify(d, sibs), DecisionCategory::kBestShort);
}

TEST_F(ClassifyTest, HybridOverrideChangesClass) {
  // At city 9 the 4-2 relationship is transit: 2 is 4's customer.
  HybridDataset hybrid;
  hybrid.add({4, 2, 9, Relationship::kCustomer});
  DecisionClassifier cls{&topo_, 5, &hybrid, &siblings_, &obs_};
  const ScenarioOptions complex{.use_hybrid = true};

  auto d = decision(4, 2, 2);
  d.interconnect_city = 9;
  // Customer beats the best-known class (peer): still Best.
  EXPECT_EQ(cls.classify(d, complex), DecisionCategory::kBestShort);

  // At city 9, make it *provider* instead: now NonBest (peer was available).
  HybridDataset hybrid2;
  hybrid2.add({4, 2, 9, Relationship::kProvider});
  DecisionClassifier cls2{&topo_, 5, &hybrid2, &siblings_, &obs_};
  EXPECT_EQ(cls2.classify(d, complex), DecisionCategory::kNonBestShort);
  // Without the city annotation the dataset is not applied.
  EXPECT_EQ(cls2.classify(decision(4, 2, 2), complex),
            DecisionCategory::kBestShort);
}

TEST_F(ClassifyTest, PspCriteriaRestrictOriginEdges) {
  // Feeds only show origin 1 announcing the prefix to neighbor 2.
  BgpObservations obs;
  std::vector<FeedEntry> feed;
  feed.push_back({9, prefix_, AsPath{{9, 2, 1}, {}}});
  obs.ingest(feed);
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs};

  const ScenarioOptions simple;
  const ScenarioOptions psp1{.psp = PspMode::kCriteria1};
  const ScenarioOptions psp2{.psp = PspMode::kCriteria2};

  // Under Simple, AS 4 best=peer shortest=2 via either 2 or 3. A longer
  // measured path via 2 (len 3) is Best/Long.
  const auto via2_long = decision(4, 2, 3);
  EXPECT_EQ(cls.classify(via2_long, simple), DecisionCategory::kBestLong);
  // Criteria 1 removes edge 3->1 (never observed): shortest via 3
  // disappears, but via 2 it is still 2... so still Long.
  EXPECT_EQ(cls.classify(via2_long, psp1), DecisionCategory::kBestLong);

  // Remove the observation for 2->... use a prefix never observed at all:
  // criteria 1 removes both origin edges -> no GR route -> NonBest/Long;
  // criteria 2 keeps edges whose (origin, neighbor) pair was never seen
  // for any prefix (visibility caution), so it still classifies Best.
  auto other = decision(4, 2, 2);
  other.dst_prefix = *Ipv4Prefix::parse("10.77.0.0/24");
  EXPECT_EQ(cls.classify(other, psp1), DecisionCategory::kNonBestLong);
  // Criteria 2: (1,2) announced *some* prefix -> criteria 1 applies to that
  // edge and removes it; (1,3) was never seen at all -> kept.
  EXPECT_EQ(cls.classify(other, psp2), DecisionCategory::kBestShort);
}

TEST_F(ClassifyTest, DistinctPspPrefixesGetDistinctPathSets) {
  // Regression: the cache is keyed per (destination, PSP mode, prefix) —
  // two decisions toward the same destination but for different prefixes
  // must not share a PSP path set (their origin-edge filters differ).
  BgpObservations obs;
  std::vector<FeedEntry> feed;
  feed.push_back({9, prefix_, AsPath{{9, 2, 1}, {}}});
  obs.ingest(feed);
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs};
  const ScenarioOptions psp1{.psp = PspMode::kCriteria1};

  const auto observed = decision(4, 2, 2);  // dst_prefix = prefix_.
  auto unobserved = decision(4, 2, 2);
  unobserved.dst_prefix = *Ipv4Prefix::parse("10.77.0.0/24");

  const GrPathSet& ps_observed = cls.path_set(observed, psp1);
  const GrPathSet& ps_unobserved = cls.path_set(unobserved, psp1);
  EXPECT_NE(&ps_observed, &ps_unobserved);
  EXPECT_EQ(cls.cache_misses(), 2u);
  // And the contents differ: only the observed prefix keeps a GR route
  // into the destination (1->2 was the only announcement seen).
  EXPECT_NE(ps_observed.shortest_length(4), ps_unobserved.shortest_length(4));

  // Same destination and prefix: one shared entry, no new computation.
  EXPECT_EQ(&cls.path_set(decision(4, 2, 5), psp1), &ps_observed);
  EXPECT_EQ(cls.cache_misses(), 2u);

  // Scenarios without PSP share one entry per destination across prefixes.
  const ScenarioOptions simple;
  EXPECT_EQ(&cls.path_set(observed, simple), &cls.path_set(unobserved, simple));
  EXPECT_EQ(cls.cache_misses(), 3u);
  // All-1 reuses PSP-1's entries (the path set ignores hybrid/siblings).
  const ScenarioOptions all1{
      .use_hybrid = true, .use_siblings = true, .psp = PspMode::kCriteria1};
  EXPECT_EQ(&cls.path_set(observed, all1), &ps_observed);
  EXPECT_EQ(cls.cache_misses(), 3u);
}

TEST_F(ClassifyTest, ConcurrentCacheComputesEachPathSetOnce) {
  // Hammer path_set and classify() from 8 threads for a mix of same and
  // different destinations and PSP prefixes; every distinct key must be
  // computed exactly once, every thread must agree on the returned pointer,
  // and every category must equal a serial classifier's.
  BgpObservations obs;
  std::vector<FeedEntry> feed;
  feed.push_back({9, prefix_, AsPath{{9, 2, 1}, {}}});
  obs.ingest(feed);
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs};
  DecisionClassifier serial{&topo_, 5, &hybrid_, &siblings_, &obs};
  const ScenarioOptions simple;
  const ScenarioOptions psp1{.psp = PspMode::kCriteria1};
  const ScenarioOptions psp2{.psp = PspMode::kCriteria2};
  const Ipv4Prefix unobserved = *Ipv4Prefix::parse("10.77.0.0/24");

  // Every (decider, next hop, destination, remaining length, prefix).
  std::vector<RouteDecision> decisions;
  for (Asn decider = 1; decider <= 5; ++decider)
    for (Asn next = 1; next <= 5; ++next)
      for (Asn dest = 1; dest <= 5; ++dest)
        for (std::size_t remaining = 1; remaining <= 4; ++remaining)
          for (const Ipv4Prefix& prefix : {prefix_, unobserved}) {
            if (next == decider) continue;
            RouteDecision d = decision(decider, next, remaining);
            d.dest_asn = dest;
            d.dst_prefix = prefix;
            decisions.push_back(d);
          }
  const std::vector<ScenarioOptions> scenarios = figure1_options();
  std::vector<DecisionCategory> expected;
  for (const RouteDecision& d : decisions)
    for (const ScenarioOptions& opts : scenarios)
      expected.push_back(serial.classify(d, opts));

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<DecisionCategory>> got(
      kThreads, std::vector<DecisionCategory>(expected.size()));
  std::vector<const GrPathSet*> first_psp1(kThreads);
  const auto worker = [&](std::size_t salt) {
    for (int round = 0; round < 50; ++round) {
      for (Asn dest = 1; dest <= 5; ++dest) {
        RouteDecision d = decision(4, 2, 2);
        d.dest_asn = dest;
        cls.path_set(d, simple);
      }
      auto d = decision(4, 2, 2);
      if ((round + salt) % 2 == 0) d.dst_prefix = unobserved;
      cls.path_set(d, psp1);
      cls.path_set(d, psp2);
    }
    first_psp1[salt] = &cls.path_set(decision(4, 2, 2), psp1);
    // Each thread starts at a different decision, so threads race on
    // first lookups of different keys.
    const std::size_t n = decisions.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + salt * n / kThreads) % n;
      for (std::size_t s = 0; s < scenarios.size(); ++s)
        got[salt][i * scenarios.size() + s] =
            cls.classify(decisions[i], scenarios[s]);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected) << "thread " << t;
    EXPECT_EQ(first_psp1[t], first_psp1[0]);
  }
  // 5 destinations x simple, plus per PSP mode: destination 1's observed
  // prefix and one shared entry per destination for unobserved prefixes.
  constexpr std::size_t kExpectedKeys = 5 + 2 * (1 + 5);
  EXPECT_EQ(serial.cache_misses(), kExpectedKeys);
  EXPECT_EQ(cls.cache_misses(), kExpectedKeys);
  // A post-hoc lookup still hits the cache.
  cls.path_set(decision(4, 2, 2), simple);
  EXPECT_EQ(cls.cache_misses(), kExpectedKeys);
}

TEST_F(ClassifyTest, UnobservedPrefixesShareOnePathSetPerMode) {
  // Remote queries may name any prefix: one the destination was never seen
  // announcing must not cost a path set of its own.
  BgpObservations obs;
  obs.add(1, 2, prefix_);  // 1 announced prefix_ to 2 ...
  obs.add(1, 3, *Ipv4Prefix::parse("10.8.0.0/24"));  // ... and another to 3.
  DecisionClassifier cls{&topo_, 5, &hybrid_, &siblings_, &obs};
  const ScenarioOptions psp1{.psp = PspMode::kCriteria1};
  const ScenarioOptions psp2{.psp = PspMode::kCriteria2};

  std::vector<Ipv4Prefix> unobserved;
  for (std::uint32_t i = 0; i < 1000; ++i)
    unobserved.emplace_back(Ipv4Addr{0x0B000000u + (i << 8)}, 24);
  for (const ScenarioOptions& opts : {psp1, psp2}) {
    const std::size_t before = cls.cache_misses();
    for (const Ipv4Prefix& prefix : unobserved) {
      RouteDecision d = decision(4, 2, 2);
      d.dst_prefix = prefix;
      cls.classify(d, opts);
    }
    EXPECT_LE(cls.cache_misses() - before, 1u);
  }

  // Observed or not, every answer is GrModel::compute under the explicit
  // per-prefix filter.
  const GrModel model{&topo_, 5};
  for (const Ipv4Prefix& prefix :
       {prefix_, *Ipv4Prefix::parse("10.8.0.0/24"), unobserved.front(),
        unobserved.back()}) {
    RouteDecision d = decision(4, 2, 2);
    d.dst_prefix = prefix;
    const OriginEdgeFilter c1 = [&](Asn n) {
      return obs.announced(1, n, prefix);
    };
    const OriginEdgeFilter c2 = [&](Asn n) {
      return !obs.announced_any(1, n) || obs.announced(1, n, prefix);
    };
    for (const auto& [opts, filter] :
         {std::pair{psp1, c1}, std::pair{psp2, c2}}) {
      const GrPathSet reference = model.compute(1, filter);
      const GrPathSet& cached = cls.path_set(d, opts);
      for (Asn x = 1; x <= 5; ++x)
        for (Relationship rel : {Relationship::kCustomer, Relationship::kPeer,
                                 Relationship::kProvider})
          EXPECT_EQ(cached.length_via(x, rel), reference.length_via(x, rel))
              << prefix.to_string() << " AS" << x;
    }
  }

  // Destinations outside 1..num_ases throw before touching the cache.
  const std::size_t misses = cls.cache_misses();
  for (Asn dest : {Asn{0}, Asn{6}, Asn{1000000}}) {
    RouteDecision d = decision(4, 2, 2);
    d.dest_asn = dest;
    EXPECT_THROW(cls.classify(d, psp1), CheckError);
    EXPECT_THROW(cls.path_set(d, ScenarioOptions{}), CheckError);
  }
  EXPECT_EQ(cls.cache_misses(), misses);
}

TEST(ClassifyStudy, ClassifyComposesIsBestAndIsShort) {
  // On every decision of a small study, under every Figure 1 scenario,
  // classify() (one path-set lookup) equals the category composed from
  // the two properties.
  const auto net = generate_internet(test::small_generator_config());
  const PassiveDataset ds =
      run_passive_study(*net, test::small_passive_config());
  const DecisionClassifier cls = make_classifier(ds);
  ASSERT_FALSE(ds.decisions.empty());
  for (const ScenarioOptions& opts : figure1_options())
    for (const RouteDecision& d : ds.decisions) {
      const bool best = cls.is_best(d, opts);
      const bool shrt = cls.is_short(d, opts);
      const DecisionCategory composed =
          best ? (shrt ? DecisionCategory::kBestShort
                       : DecisionCategory::kBestLong)
               : (shrt ? DecisionCategory::kNonBestShort
                       : DecisionCategory::kNonBestLong);
      ASSERT_EQ(cls.classify(d, opts), composed);
    }
}

TEST_F(ClassifyTest, Figure1ScenarioListIsComplete) {
  const auto scenarios = figure1_scenarios();
  ASSERT_EQ(scenarios.size(), 7u);
  EXPECT_EQ(scenarios[0].name, "Simple");
  EXPECT_EQ(scenarios[6].name, "All-2");
  EXPECT_TRUE(scenarios[5].options.use_hybrid);
  EXPECT_TRUE(scenarios[5].options.use_siblings);
  EXPECT_EQ(scenarios[5].options.psp, PspMode::kCriteria1);
}

TEST_F(ClassifyTest, CategoryHelpers) {
  EXPECT_FALSE(is_violation(DecisionCategory::kBestShort));
  EXPECT_TRUE(is_violation(DecisionCategory::kNonBestShort));
  EXPECT_TRUE(is_violation(DecisionCategory::kBestLong));
  EXPECT_TRUE(is_violation(DecisionCategory::kNonBestLong));
  EXPECT_EQ(decision_category_name(DecisionCategory::kBestShort),
            "Best/Short");
}

}  // namespace
}  // namespace irp
