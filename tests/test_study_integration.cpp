// Integration tests: the passive campaign, the analyses, and the active
// experiments running end-to-end on a small synthetic Internet.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.generator = test::small_generator_config();
    config.passive = test::small_passive_config();
    config.active.traceroute_vantages = 24;
    config.active.max_targets = 60;
    results_ = new StudyResults(run_full_study(config));
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }
  static const StudyResults* results_;
};

const StudyResults* StudyTest::results_ = nullptr;

TEST_F(StudyTest, CampaignProducesData) {
  const auto& ds = results_->passive;
  EXPECT_GT(ds.probes.size(), 100u);
  EXPECT_GT(ds.traceroutes.size(), 500u);
  EXPECT_GT(ds.decisions.size(), 1000u);
  EXPECT_GT(ds.num_destination_ases, 3u);
  EXPECT_GT(ds.num_observed_decider_ases, 20u);
  EXPECT_GT(ds.inferred.num_links(), 100u);
  EXPECT_EQ(ds.snapshots.size(),
            std::size_t(results_->net->measurement_epoch + 1));
}

TEST_F(StudyTest, DecisionsReferenceValidData) {
  const auto& ds = results_->passive;
  const std::size_t n = results_->net->topology.num_ases();
  for (const auto& d : ds.decisions) {
    EXPECT_GE(d.decider, 1u);
    EXPECT_LE(d.decider, n);
    EXPECT_LE(d.next_hop, n);
    EXPECT_LT(d.traceroute_index, ds.traceroutes.size());
    EXPECT_GE(d.remaining_len, 1u);
    ASSERT_GE(d.measured_remaining.size(), 2u);
    EXPECT_EQ(d.measured_remaining.front(), d.decider);
    EXPECT_EQ(d.measured_remaining.back(), d.dest_asn);
    EXPECT_EQ(d.measured_remaining.size(), d.remaining_len + 1);
  }
}

TEST_F(StudyTest, TraceroutesMostlyReachAndMapBack) {
  const auto& ds = results_->passive;
  std::size_t reached = 0;
  for (const auto& tr : ds.traceroutes) {
    if (!tr.reached) continue;
    ++reached;
    // Destination address maps to the serving AS via LPM.
    const auto asn = ds.ip_to_as.lookup(tr.dst_address);
    ASSERT_TRUE(asn.has_value());
    EXPECT_EQ(ds.ip_to_as.lookup(tr.hops.back().address), asn);
  }
  EXPECT_GT(double(reached) / double(ds.traceroutes.size()), 0.9);
}

TEST_F(StudyTest, Figure1LadderBehaves) {
  const auto& fig1 = results_->figure1;
  ASSERT_EQ(fig1.scenarios.size(), 7u);
  const auto share = [&](int i) {
    return fig1.scenarios[i].second.share(DecisionCategory::kBestShort);
  };
  // A majority of decisions follow the model in every scenario.
  EXPECT_GT(share(0), 0.5);
  // Refinements never *hurt* by much and the combined scenarios explain at
  // least as much as Simple.
  EXPECT_GE(share(5) + 1e-9, share(0));  // All-1 >= Simple.
  EXPECT_GE(share(6) + 1e-9, share(0));  // All-2 >= Simple.
  // Totals are consistent: every decision classified in every scenario.
  for (const auto& [name, b] : fig1.scenarios)
    EXPECT_EQ(b.total(), results_->passive.decisions.size()) << name;
}

TEST_F(StudyTest, Table1CoversAllProbes) {
  const auto& t1 = results_->table1;
  std::size_t probes = 0;
  for (const auto& row : t1.rows) probes += row.probes;
  EXPECT_EQ(probes, t1.total_probes);
  EXPECT_EQ(t1.total_probes, results_->passive.probes.size());
  EXPECT_EQ(t1.rows.size(), 4u);
  // The bulk of probes sit at the network edge (paper, Table 1).
  EXPECT_GT(t1.rows[0].probes + t1.rows[1].probes, t1.total_probes / 2);
}

TEST_F(StudyTest, SkewCurvesAreValidCdfs) {
  const auto& skew = results_->skew;
  for (const auto& [cat, curves] : skew.curves) {
    for (const auto* curve : {&curves.by_source, &curves.by_dest}) {
      if (curve->empty()) continue;
      EXPECT_NEAR(curve->back().cumulative, 1.0, 1e-9);
      for (std::size_t i = 1; i < curve->size(); ++i)
        EXPECT_GE((*curve)[i].cumulative, (*curve)[i - 1].cumulative);
    }
  }
  double total_service_share = 0;
  for (const auto& [name, s] : skew.top_dest_services) {
    EXPECT_GE(s, 0.0);
    total_service_share += s;
  }
  EXPECT_LE(total_service_share, 1.0 + 1e-9);
  EXPECT_GE(skew.gini_dests, 0.0);
  EXPECT_LE(skew.gini_dests, 1.0);
}

TEST_F(StudyTest, Figure3ContinentalBeatsIntercontinental) {
  const auto& f3 = results_->figure3;
  ASSERT_GT(f3.continental_all.total(), 0u);
  ASSERT_GT(f3.intercontinental.total(), 0u);
  EXPECT_GT(f3.continental_all.share(DecisionCategory::kBestShort),
            f3.intercontinental.share(DecisionCategory::kBestShort));
  EXPECT_GT(f3.continental_traceroute_fraction, 0.05);
  EXPECT_LT(f3.continental_traceroute_fraction, 0.95);
  // Per-continent counts sum to the continental aggregate.
  std::size_t sum = 0;
  for (const auto& [c, b] : f3.per_continent) sum += b.total();
  EXPECT_EQ(sum, f3.continental_all.total());
}

TEST_F(StudyTest, Table3FractionsAreBounded) {
  const auto& t3 = results_->table3;
  for (const auto& row : t3.rows) {
    EXPECT_LE(row.explained, row.domestic_violations);
    EXPECT_GT(row.domestic_violations, 0u);
  }
  EXPECT_GE(t3.overall_explained_fraction, 0.0);
  EXPECT_LE(t3.overall_explained_fraction, 1.0);
}

TEST_F(StudyTest, Table4CableAttribution) {
  const auto& t4 = results_->table4;
  for (double f : {t4.nonbest_short, t4.best_long, t4.nonbest_long,
                   t4.paths_with_cable, t4.cable_decision_deviation}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // Cable ASes appear on a small share of paths (paper: <2%).
  EXPECT_LT(t4.paths_with_cable, 0.25);
}

TEST_F(StudyTest, AlternateRoutesAccounting) {
  const auto& alt = results_->alternate;
  EXPECT_GT(alt.targets, 10u);
  EXPECT_EQ(alt.both + alt.best_only + alt.short_only + alt.neither,
            alt.targets);
  EXPECT_GT(alt.poisoned_announcements, alt.targets);
  EXPECT_GT(alt.links_observed, 50u);
  EXPECT_LE(alt.links_poison_only, alt.links_not_in_db);
  // Most targets follow both properties (paper: 86.1%).
  EXPECT_GT(double(alt.both) / double(alt.targets), 0.5);
}

TEST_F(StudyTest, ActiveReportsArePinned) {
  // Exact values of this small study's active reports. Discovery runs as a
  // BGP simulation and a separate evaluation, on a different thread than
  // the inference it is scored against; neither split may move a count.
  const AlternateRouteReport& alt = results_->alternate;
  EXPECT_EQ(alt.targets, 39u);
  EXPECT_EQ(alt.both, 31u);
  EXPECT_EQ(alt.best_only, 6u);
  EXPECT_EQ(alt.short_only, 1u);
  EXPECT_EQ(alt.neither, 1u);
  EXPECT_EQ(alt.poisoned_announcements, 153u);
  EXPECT_EQ(alt.links_observed, 167u);
  EXPECT_EQ(alt.links_not_in_db, 11u);
  EXPECT_EQ(alt.links_poison_only, 5u);
  EXPECT_EQ(alt.violation_notes,
            std::vector<std::string>{
                "AS6 preferred AS5 (class 1) over AS24 (class 0), "
                "contradicting inferred relationships"});

  const auto expect_counts = [](const TriggerCounts& c,
                                std::vector<std::size_t> expected) {
    EXPECT_EQ((std::vector<std::size_t>{c.best_relationship, c.shorter_path,
                                        c.intradomain, c.oldest_route,
                                        c.violation}),
              expected);
  };
  expect_counts(results_->table2.feeds, {26, 4, 12, 8, 7});
  expect_counts(results_->table2.traceroutes, {35, 20, 14, 15, 15});
}

TEST_F(StudyTest, Table2HasBothChannels) {
  const auto& t2 = results_->table2;
  EXPECT_GT(t2.feeds.total(), 10u);
  EXPECT_GT(t2.traceroutes.total(), 10u);
  // Relationship and length dominate the decision process (paper Table 2).
  const auto dominant = [](const TriggerCounts& c) {
    return c.best_relationship + c.shorter_path > c.total() / 3;
  };
  EXPECT_TRUE(dominant(t2.feeds));
  EXPECT_TRUE(dominant(t2.traceroutes));
}

TEST_F(StudyTest, PspValidationConsistent) {
  const auto& psp = results_->psp;
  EXPECT_LE(psp.correct, psp.checked);
  EXPECT_LE(psp.neighbors_with_lg, psp.unique_neighbors);
  if (psp.checked > 0) {
    EXPECT_GT(psp.precision(), 0.3);
    EXPECT_LE(psp.precision(), 1.0);
  }
}

TEST_F(StudyTest, RenderersProduceTables) {
  EXPECT_GT(render_table1(results_->table1).render().size(), 50u);
  EXPECT_GT(render_figure1(results_->figure1).render().size(), 100u);
  EXPECT_GT(render_figure3(results_->figure3).render().size(), 50u);
  EXPECT_GT(render_table3(results_->table3, results_->net->world)
                .render()
                .size(),
            20u);
  EXPECT_GT(render_table4(results_->table4).render().size(), 20u);
}

TEST_F(StudyTest, StalePruningRemovesLinks) {
  const auto& ds = results_->passive;
  const auto pruned = prune_stale_links(ds.inferred,
                                        results_->net->neighbor_history,
                                        results_->net->measurement_epoch);
  EXPECT_LE(pruned.num_links(), ds.inferred.num_links());
}

TEST(InferTrigger, AllCategories) {
  InferredTopology topo;
  topo.set(1, 2, InferredRel::kBProviderOfA);  // 2 is provider of 1? No:
  // kBProviderOfA with key(1,2): B(=2) provider of A(=1) -> from 1's view,
  // 2 is its provider.
  topo.set(1, 3, InferredRel::kAProviderOfB);  // 3 is 1's customer.
  topo.set(1, 4, InferredRel::kPeer);

  auto route_via = [](Asn from, std::size_t len) {
    Route r;
    r.from_asn = from;
    r.path.hops.assign(len, from);
    return r;
  };

  // Chosen customer route vs provider alternative: best relationship.
  EXPECT_EQ(infer_trigger(topo, 1, 3, 3, {route_via(2, 3)}, false),
            DecisionTrigger::kBestRelationship);
  // Chosen peer route while a customer alternative exists: violation.
  EXPECT_EQ(infer_trigger(topo, 1, 4, 3, {route_via(3, 3)}, false),
            DecisionTrigger::kViolation);
  // Same class, chosen shorter: shorter path.
  EXPECT_EQ(infer_trigger(topo, 1, 4, 2,
                          {[&] {
                            auto r = route_via(4, 4);
                            r.via_link = 7;
                            return r;
                          }()},
                          false),
            DecisionTrigger::kShorterPath);
  // Same class and length: intradomain when switched, oldest when kept.
  EXPECT_EQ(infer_trigger(topo, 1, 4, 3, {route_via(4, 3)}, false),
            DecisionTrigger::kIntradomain);
  EXPECT_EQ(infer_trigger(topo, 1, 4, 3, {route_via(4, 3)}, true),
            DecisionTrigger::kOldestRoute);
  // Same class, chosen longer: violation.
  EXPECT_EQ(infer_trigger(topo, 1, 4, 5, {route_via(4, 3)}, false),
            DecisionTrigger::kViolation);
}

}  // namespace
}  // namespace irp
