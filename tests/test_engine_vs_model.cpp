// Cross-validation: on *policy-pure* Gao-Rexford topologies (no TE deltas,
// no flat preferences, no siblings, no partial transit), the BGP engine and
// the analytical GR model must agree:
//   * reachability is identical (an AS has a route iff a GR path exists);
//   * the class of the chosen route equals the model's best class;
//   * the chosen path length is never shorter than the model's shortest.
//
// Note the length can legitimately be *longer*: BGP composes local
// selections (each AS exports only its own best route), while the model
// enumerates every valley-free path — one of the structural reasons even a
// GR-pure Internet produces "Best/Long" decisions under the paper's
// methodology.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"
#include "core/gr_model.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace irp {
namespace {

/// Builds a random policy-pure topology and its InferredTopology mirror.
struct PureGr {
  test::TinyTopo tiny;
  InferredTopology mirror;
};

PureGr random_pure_gr(Rng& rng, std::size_t n) {
  PureGr out;
  out.tiny.add(int(n));
  // A provider tree guarantees base connectivity: each AS i >= 2 buys from
  // a random earlier AS, so AS 1 is the root.
  for (Asn i = 2; i <= n; ++i) {
    const Asn provider = Asn(1 + rng.index(i - 1));
    out.tiny.link(provider, i, Relationship::kCustomer);
    out.mirror.set(provider, i, provider < i ? InferredRel::kAProviderOfB
                                             : InferredRel::kBProviderOfA);
  }
  // Sprinkle peer links between unrelated pairs.
  for (Asn a = 1; a <= n; ++a)
    for (Asn b = a + 1; b <= n; ++b) {
      if (!out.tiny.topo.links_between(a, b).empty()) continue;
      if (!rng.chance(0.15)) continue;
      out.tiny.link(a, b, Relationship::kPeer);
      out.mirror.set(a, b, InferredRel::kPeer);
    }
  return out;
}

TEST(EngineVsModel, AgreeOnPureGaoRexfordTopologies) {
  Rng rng{20240705};
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 12;
    PureGr gr = random_pure_gr(rng, n);
    GroundTruthPolicy policy{&gr.tiny.topo};
    GrModel model{&gr.mirror, n};

    for (Asn dest = 1; dest <= n; ++dest) {
      BgpEngine engine{&gr.tiny.topo, &policy, 0};
      const Ipv4Prefix pfx = gr.tiny.prefix_of(dest);
      engine.announce(pfx, dest);
      engine.run();
      ASSERT_TRUE(engine.converged());
      const GrPathSet ps = model.compute(dest);

      for (Asn x = 1; x <= n; ++x) {
        if (x == dest) continue;
        const auto* sel = engine.best(x, pfx);
        const auto best = ps.best_class(x);
        const std::string ctx = "trial " + std::to_string(trial) + " dest " +
                                std::to_string(dest) + " x " +
                                std::to_string(x);
        // Reachability equivalence.
        ASSERT_EQ(sel != nullptr, best.has_value()) << ctx;
        if (sel == nullptr) continue;
        // Class agreement.
        const Relationship chosen_rel = gr.tiny.topo.relationship_from(
            gr.tiny.topo.link(sel->via_link), x);
        EXPECT_EQ(preference_class(chosen_rel), preference_class(*best))
            << ctx;
        // The realized path is never shorter than the model's shortest.
        EXPECT_GE(engine.paths().length(sel->path_id), ps.shortest_length(x))
            << ctx;
        // And the realized path is itself valley-free.
        int state = 0;
        Asn prev = x;
        for (Asn hop : engine.paths().materialize(sel->path_id).hops) {
          const auto rel = gr.mirror.relationship(prev, hop);
          ASSERT_TRUE(rel.has_value()) << ctx;
          if (*rel == Relationship::kProvider) {
            ASSERT_EQ(state, 0) << ctx << ": up after flat/down";
          } else if (*rel == Relationship::kPeer) {
            ASSERT_EQ(state, 0) << ctx << ": second flat hop";
            state = 2;
          } else {
            state = 2;
          }
          prev = hop;
        }
      }
    }
  }
}

TEST(EngineVsModel, PoisoningNeverCreatesInvalidPaths) {
  Rng rng{777};
  PureGr gr = random_pure_gr(rng, 10);
  GroundTruthPolicy policy{&gr.tiny.topo};
  const Asn dest = 5;
  const Ipv4Prefix pfx = gr.tiny.prefix_of(dest);
  BgpEngine engine{&gr.tiny.topo, &policy, 0};
  engine.announce(pfx, dest);
  engine.run();

  // Poison progressively larger random sets; every surviving route must
  // avoid every poisoned AS and stay valley-free.
  std::vector<Asn> poison;
  for (int round = 0; round < 5; ++round) {
    const Asn victim = Asn(1 + rng.index(10));
    if (victim == dest) continue;
    poison.push_back(victim);
    engine.announce(pfx, dest, AnnounceOptions{.poison_set = poison});
    engine.run();
    for (Asn x = 1; x <= 10; ++x) {
      const auto* sel = engine.best(x, pfx);
      if (sel == nullptr || sel->self_originated) continue;
      for (Asn bad : poison) {
        EXPECT_NE(x, bad) << "poisoned AS kept a route";
        for (Asn hop : engine.paths().materialize(sel->path_id).hops)
          EXPECT_NE(hop, bad);
      }
    }
  }
}

}  // namespace
}  // namespace irp
