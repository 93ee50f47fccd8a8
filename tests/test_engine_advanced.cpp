// Advanced BGP engine behaviours: prepending, sibling chains, incremental
// state, and policy interactions.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

TEST(EngineAdvanced, PerLinkPrependSteersInboundTraffic) {
  // Origin d has two providers p1, p2 which both connect to x. Without
  // prepending, x ties on class/length and picks by IGP; prepending on the
  // p1 link makes the p1 path longer, steering x via p2.
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn p1 = t.add();
  const Asn p2 = t.add();
  const Asn x = t.add();
  const LinkId ld1 = t.link(d, p1, Relationship::kProvider);
  t.link(d, p2, Relationship::kProvider);
  t.link(p1, x, Relationship::kProvider, 1, 1);
  t.link(p2, x, Relationship::kProvider, 9, 9);  // Worse IGP at x.
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);

  engine.announce(pfx, d);
  engine.run();
  // x learns both; equal length; IGP picks p1... wait: x is the *provider*
  // of p1/p2, so it receives their customer-learned routes. Both length 2;
  // IGP cost from x: link to p1 has cost 1 at the x side? igp_cost_a is the
  // a-side; links were created as (p1, x) so x is side b with cost 1 and 9.
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, p1);

  AnnounceOptions options;
  options.prepend_on = {{ld1, 3}};  // d prepends 3x toward p1.
  engine.announce(pfx, d, std::move(options));
  engine.run();
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, p2)
      << "prepending must steer x away from the p1 side";
  // The prepended path is visibly longer via p1.
  for (const Route& r : engine.routes_at(x, pfx))
    if (r.from_asn == p1) EXPECT_EQ(r.path.length(), 5u);  // p1 d d d d.
}

TEST(EngineAdvanced, PrependDoesNotAffectOtherLinks) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn p1 = t.add();
  const Asn p2 = t.add();
  const LinkId ld1 = t.link(d, p1, Relationship::kProvider);
  t.link(d, p2, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);
  AnnounceOptions options;
  options.prepend_on = {{ld1, 2}};
  engine.announce(pfx, d, std::move(options));
  engine.run();
  ASSERT_NE(engine.best(p1, pfx), nullptr);
  ASSERT_NE(engine.best(p2, pfx), nullptr);
  EXPECT_EQ(engine.paths().length(engine.best(p1, pfx)->path_id), 3u);
  EXPECT_EQ(engine.paths().length(engine.best(p2, pfx)->path_id), 1u);
}

TEST(EngineAdvanced, SiblingChainPropagatesOrgClass) {
  // s1 - s2 - s3 sibling chain; s1 learns from a peer. The route may cross
  // the whole chain but must not leave via s3's peer.
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn s1 = t.add();
  const Asn s2 = t.add();
  const Asn s3 = t.add();
  const Asn out_peer = t.add();
  t.link(s1, d, Relationship::kPeer);
  t.link(s1, s2, Relationship::kSibling);
  t.link(s2, s3, Relationship::kSibling);
  t.link(s3, out_peer, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  // d's prefix reaches s1 via peer only if d's route is customer-class at
  // d (self-originated) — fine.
  const Ipv4Prefix pfx = t.prefix_of(d);
  engine.announce(pfx, d);
  engine.run();
  ASSERT_NE(engine.best(s1, pfx), nullptr);
  ASSERT_NE(engine.best(s2, pfx), nullptr);
  ASSERT_NE(engine.best(s3, pfx), nullptr);
  EXPECT_EQ(engine.best(s3, pfx)->effective_class, Relationship::kPeer);
  EXPECT_EQ(engine.best(out_peer, pfx), nullptr)
      << "peer-learned route crossed the org and leaked to a peer";
}

TEST(EngineAdvanced, SelectiveAndPoisonCompose) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn p1 = t.add();
  const Asn p2 = t.add();
  const Asn x = t.add();
  const LinkId l1 = t.link(d, p1, Relationship::kProvider);
  const LinkId l2 = t.link(d, p2, Relationship::kProvider);
  t.link(p1, x, Relationship::kProvider);
  t.link(p2, x, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);

  // Announce on both links but poison p1: x must route via p2.
  AnnounceOptions options;
  options.only_links = {l1, l2};
  options.poison_set = {p1};
  engine.announce(pfx, d, std::move(options));
  engine.run();
  EXPECT_EQ(engine.best(p1, pfx), nullptr);
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, p2);
}

TEST(EngineAdvanced, MessagesCountedAndMonotone) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn m = t.add();
  t.link(d, m, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  EXPECT_EQ(engine.messages_delivered(), 0u);
  engine.announce(t.prefix_of(d), d);
  engine.run();
  const auto after_first = engine.messages_delivered();
  EXPECT_GT(after_first, 0u);
  engine.withdraw(t.prefix_of(d));
  engine.run();
  EXPECT_GT(engine.messages_delivered(), after_first);
}

TEST(EngineAdvanced, LogicalTimeAdvancesAcrossStages) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn m = t.add();
  t.link(d, m, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  engine.announce(t.prefix_of(d), d);
  engine.run();
  const LogicalTime t1 = engine.now();
  ASSERT_NE(engine.best(m, t.prefix_of(d)), nullptr);
  const LogicalTime age1 = engine.best(m, t.prefix_of(d))->age;
  EXPECT_LE(age1, t1);

  // Re-announcing the identical route must not refresh its age.
  engine.announce(t.prefix_of(d), d);
  engine.run();
  EXPECT_EQ(engine.best(m, t.prefix_of(d))->age, age1);
}

TEST(EngineAdvanced, ParallelLinksBothInRib) {
  // Hybrid pair: two links between x and y; x sees two candidate routes.
  test::TinyTopo t;
  const Asn y = t.add();
  const Asn x = t.add();
  const LinkId peer_link = t.link(x, y, Relationship::kPeer, 5, 1);
  const LinkId cust_link = t.link(x, y, Relationship::kCustomer, 9, 1);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(y);
  engine.announce(pfx, y);
  engine.run();
  const auto routes = engine.routes_at(x, pfx);
  ASSERT_EQ(routes.size(), 2u);
  // Customer class (lp 300) wins over peer (200) despite worse IGP.
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->via_link, cust_link);
  EXPECT_NE(engine.best(x, pfx)->via_link, peer_link);
}

TEST(EngineAdvanced, DispueWheelHitsSafetyCap) {
  // A classic 3-node dispute wheel: each AS prefers the route through its
  // clockwise neighbor over its direct route (via lp deltas). BGP cannot
  // converge; the engine must stop at the cap and flag it.
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn a = t.add();
  const Asn b = t.add();
  const Asn c = t.add();
  // d is everyone's customer.
  t.link(a, d, Relationship::kCustomer);
  t.link(b, d, Relationship::kCustomer);
  t.link(c, d, Relationship::kCustomer);
  // Ring of peer links with boosted preference for peer routes.
  const LinkId ab = t.link(a, b, Relationship::kPeer);
  const LinkId bc = t.link(b, c, Relationship::kPeer);
  const LinkId ca = t.link(c, a, Relationship::kPeer);
  // Each prefers the peer-learned route over its own customer route.
  t.topo.link_mutable(ab).lp_delta_a = 200;  // a prefers via b.
  t.topo.link_mutable(bc).lp_delta_a = 200;  // b prefers via c.
  t.topo.link_mutable(ca).lp_delta_a = 200;  // c prefers via a.
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  engine.announce(t.prefix_of(d), d);
  engine.run();  // Must terminate regardless of the oscillation.
  // Whether or not the cap was hit for this wheel, the run terminates and
  // every AS still holds some route to d.
  for (Asn asn : {a, b, c})
    EXPECT_NE(engine.best(asn, t.prefix_of(d)), nullptr);
}

TEST(EngineAdvanced, PoisonSetRendering) {
  AsPath path;
  path.hops = {5, 9, 7};
  path.poison_set = {11, 12};
  const std::string text = path.to_string();
  EXPECT_NE(text.find("{11,12}"), std::string::npos);
  EXPECT_EQ(path.length(), 4u);
  EXPECT_TRUE(path.contains(11));
  EXPECT_TRUE(path.contains(9));
  EXPECT_FALSE(path.contains(13));
}

}  // namespace
}  // namespace irp
