// Tests for the BGP propagation engine on hand-built topologies.
#include <gtest/gtest.h>

#include "bgp/engine.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

/// Convenience: run an engine announcing `origin`'s own prefix.
Ipv4Prefix announce_own(BgpEngine& engine, const test::TinyTopo& t,
                        Asn origin) {
  const Ipv4Prefix p = t.prefix_of(origin);
  engine.announce(p, origin);
  engine.run();
  return p;
}

TEST(Engine, PropagatesAlongProviderChain) {
  test::TinyTopo t;
  const Asn a = t.add(3);  // a=1, b=2, c=3.
  const Asn b = a + 1, c = a + 2;
  t.link(a, b, Relationship::kCustomer);  // b buys from a.
  t.link(b, c, Relationship::kCustomer);  // c buys from b.
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto p = announce_own(engine, t, c);

  const auto* sel = engine.best(a, p);
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(engine.paths().materialize(sel->path_id).hops,
            (std::vector<Asn>{b, c}));
  EXPECT_EQ(engine.forward_next_hop(a, p), b);
  EXPECT_TRUE(engine.converged());
}

TEST(Engine, OriginSelectsItself) {
  test::TinyTopo t;
  const Asn a = t.add();
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto p = announce_own(engine, t, a);
  const auto* sel = engine.best(a, p);
  ASSERT_NE(sel, nullptr);
  EXPECT_TRUE(sel->self_originated);
  EXPECT_EQ(engine.forward_next_hop(a, p), std::nullopt);
}

TEST(Engine, PrefersCustomerOverPeerOverProvider) {
  // x has three routes to dest d: via customer c, peer p, provider v.
  test::TinyTopo t;
  const Asn x = t.add();
  const Asn c = t.add();
  const Asn p = t.add();
  const Asn v = t.add();
  const Asn d = t.add();
  t.link(x, c, Relationship::kCustomer);
  t.link(x, p, Relationship::kPeer);
  t.link(x, v, Relationship::kProvider);
  // All three reach d via their own customer links (so export to x is legal).
  t.link(c, d, Relationship::kCustomer);
  t.link(p, d, Relationship::kCustomer);
  t.link(v, d, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);

  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, c);
  // All three candidate routes are in the Adj-RIB-In.
  EXPECT_EQ(engine.routes_at(x, pfx).size(), 3u);
}

TEST(Engine, ValleyFreeExportEnforced) {
  // d - v(provider of x) - x - p(peer of x): x must not export the provider
  // route to its peer, so p has no route (p's only neighbor is x).
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn v = t.add();
  const Asn x = t.add();
  const Asn p = t.add();
  t.link(v, d, Relationship::kCustomer);   // d buys from v.
  t.link(x, v, Relationship::kProvider);   // v is x's provider.
  t.link(x, p, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);

  ASSERT_NE(engine.best(x, pfx), nullptr);  // x reaches d via provider.
  EXPECT_EQ(engine.best(p, pfx), nullptr);  // Peer must not learn it.
}

TEST(Engine, ShorterPathWinsWithinClass) {
  test::TinyTopo t;
  const Asn x = t.add();
  const Asn c1 = t.add();
  const Asn c2 = t.add();
  const Asn mid = t.add();
  const Asn d = t.add();
  t.link(x, c1, Relationship::kCustomer);
  t.link(x, c2, Relationship::kCustomer);
  t.link(c1, d, Relationship::kCustomer);        // Short: x-c1-d.
  t.link(c2, mid, Relationship::kCustomer);      // Long: x-c2-mid-d.
  t.link(mid, d, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, c1);
  EXPECT_EQ(engine.paths().length(engine.best(x, pfx)->path_id), 2u);
}

TEST(Engine, IgpCostBreaksTies) {
  test::TinyTopo t;
  const Asn x = t.add();
  const Asn c1 = t.add();
  const Asn c2 = t.add();
  const Asn d = t.add();
  t.link(x, c1, Relationship::kCustomer, /*igp_a=*/9, 1);
  t.link(x, c2, Relationship::kCustomer, /*igp_a=*/2, 1);
  t.link(c1, d, Relationship::kCustomer);
  t.link(c2, d, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, c2);  // Lower IGP cost.
}

TEST(Engine, PoisonedAnnouncementTriggersLoopPrevention) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn n1 = t.add();
  const Asn n2 = t.add();
  const Asn x = t.add();
  t.link(d, n1, Relationship::kProvider);
  t.link(d, n2, Relationship::kProvider);
  t.link(n1, x, Relationship::kPeer);
  t.link(n2, x, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);

  engine.announce(pfx, d);
  engine.run();
  ASSERT_NE(engine.best(x, pfx), nullptr);
  const Asn first = engine.best(x, pfx)->next_hop;

  // Poison the currently used neighbor: x must switch to the other one.
  engine.announce(pfx, d, AnnounceOptions{.poison_set = {first}});
  engine.run();
  EXPECT_EQ(engine.best(first, pfx), nullptr);  // Poisoned AS lost the route.
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_NE(engine.best(x, pfx)->next_hop, first);
  // The poisoned set counts as one extra hop of path length.
  EXPECT_EQ(engine.paths().length(engine.best(x, pfx)->path_id), 3u);

  // Poison both: x has no route left.
  engine.announce(pfx, d,
                  AnnounceOptions{.poison_set = {n1, n2}});
  engine.run();
  EXPECT_EQ(engine.best(x, pfx), nullptr);
}

TEST(Engine, WithdrawPropagates) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn m = t.add();
  const Asn x = t.add();
  t.link(d, m, Relationship::kProvider);
  t.link(m, x, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);
  ASSERT_NE(engine.best(x, pfx), nullptr);

  engine.withdraw(pfx);
  engine.run();
  EXPECT_EQ(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(m, pfx), nullptr);
  EXPECT_EQ(engine.best(d, pfx), nullptr);
}

TEST(Engine, SelectiveAnnouncementRestrictsOriginLinks) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn p1 = t.add();
  const Asn p2 = t.add();
  const LinkId l1 = t.link(d, p1, Relationship::kProvider);
  t.link(d, p2, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);

  engine.announce(pfx, d, AnnounceOptions{.only_links = {l1}});
  engine.run();
  EXPECT_NE(engine.best(p1, pfx), nullptr);
  EXPECT_EQ(engine.best(p2, pfx), nullptr);

  // Re-announcing everywhere reaches p2 as well.
  engine.announce(pfx, d);
  engine.run();
  EXPECT_NE(engine.best(p2, pfx), nullptr);

  // And narrowing again must withdraw from p2.
  engine.announce(pfx, d, AnnounceOptions{.only_links = {l1}});
  engine.run();
  EXPECT_EQ(engine.best(p2, pfx), nullptr);
}

TEST(Engine, OldestRouteWinsOnFullTie) {
  // Two equal-class, equal-length, equal-IGP routes: the first received
  // (lower logical time) must be kept.
  test::TinyTopo t;
  const Asn x = t.add();
  const Asn n1 = t.add();
  const Asn n2 = t.add();
  const Asn d = t.add();
  const LinkId lx1 = t.link(x, n1, Relationship::kProvider, 5, 1);
  t.link(x, n2, Relationship::kProvider, 5, 1);
  const LinkId ld1 = t.link(n1, d, Relationship::kCustomer);
  const LinkId ld2 = t.link(n2, d, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);

  // Announce first via n1 only, then anycast: x should keep the n1 route.
  engine.announce(pfx, d, AnnounceOptions{.only_links = {ld1}});
  engine.run();
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, n1);

  engine.announce(pfx, d, AnnounceOptions{.only_links = {ld1, ld2}});
  engine.run();
  ASSERT_EQ(engine.routes_at(x, pfx).size(), 2u);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, n1) << "oldest route must win";
  EXPECT_EQ(engine.best(x, pfx)->via_link, lx1);
}

TEST(Engine, SiblingOrgClassInheritanceBlocksLeak) {
  // Sibling family (s1, s2). s1 learns d's prefix from its provider; it may
  // hand it to s2 (sibling), but s2 must NOT re-export it to s2's peer —
  // the organization-wide class is still "provider".
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn s1 = t.add();
  const Asn s2 = t.add();
  const Asn peer = t.add();
  t.link(s1, d, Relationship::kProvider);  // d is s1's provider.
  t.link(s1, s2, Relationship::kSibling);
  t.link(s2, peer, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);

  ASSERT_NE(engine.best(s1, pfx), nullptr);
  ASSERT_NE(engine.best(s2, pfx), nullptr);  // Sibling received it.
  EXPECT_EQ(engine.best(s2, pfx)->effective_class, Relationship::kProvider);
  EXPECT_EQ(engine.best(peer, pfx), nullptr) << "provider route leaked to peer";
}

TEST(Engine, SiblingCustomerRoutesExportEverywhere) {
  // The org's customer routes flow through siblings to the whole world.
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn s1 = t.add();
  const Asn s2 = t.add();
  const Asn peer = t.add();
  t.link(s1, d, Relationship::kCustomer);  // d is s1's customer.
  t.link(s1, s2, Relationship::kSibling);
  t.link(s2, peer, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);
  ASSERT_NE(engine.best(peer, pfx), nullptr);
  EXPECT_EQ(engine.paths().materialize(engine.best(peer, pfx)->path_id).hops,
            (std::vector<Asn>{s2, s1, d}));
}

TEST(Engine, FeedReportsCollectorPeersBestRoutes) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn m = t.add();
  t.link(d, m, Relationship::kProvider);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const auto pfx = announce_own(engine, t, d);

  const std::vector<Asn> peers{m, d};
  const auto feed = engine.feed(peers);
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_EQ(feed[0].peer, m);
  EXPECT_EQ(feed[0].path.hops, (std::vector<Asn>{m, d}));
  EXPECT_EQ(feed[1].peer, d);
  EXPECT_EQ(feed[1].path.hops, (std::vector<Asn>{d}));
  EXPECT_EQ(feed[0].prefix, pfx);
}

TEST(Engine, EpochControlsLinkLiveness) {
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn x = t.add();
  const LinkId l = t.link(d, x, Relationship::kProvider);
  t.topo.link_mutable(l).died_epoch = 2;
  GroundTruthPolicy policy{&t.topo};

  BgpEngine alive{&t.topo, &policy, 1};
  alive.announce(t.prefix_of(d), d);
  alive.run();
  EXPECT_NE(alive.best(x, t.prefix_of(d)), nullptr);

  BgpEngine dead{&t.topo, &policy, 2};
  dead.announce(t.prefix_of(d), d);
  dead.run();
  EXPECT_EQ(dead.best(x, t.prefix_of(d)), nullptr);
}

TEST(Engine, RejectsForeignOriginForOwnedPrefix) {
  test::TinyTopo t;
  const Asn a = t.add();
  const Asn b = t.add();
  t.link(a, b, Relationship::kPeer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  engine.announce(t.prefix_of(a), a);
  EXPECT_THROW(engine.announce(t.prefix_of(a), b), CheckError);
}

TEST(Engine, PartialTransitServesHalfTheTable) {
  test::TinyTopo t;
  const Asn prov = t.add();
  const Asn cust = t.add();
  const Asn origin = t.add();
  const LinkId pc = t.link(prov, cust, Relationship::kCustomer);
  t.topo.link_mutable(pc).partial_transit = true;
  t.link(prov, origin, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};

  int received = 0;
  const int total = 32;
  for (int i = 0; i < total; ++i) {
    const Ipv4Prefix pfx{Ipv4Addr(172, 20, std::uint8_t(i), 0), 24};
    engine.announce(pfx, origin);
    engine.run();
    if (engine.best(cust, pfx) != nullptr) ++received;
  }
  EXPECT_GT(received, total / 4);
  EXPECT_LT(received, 3 * total / 4);
}

TEST(Engine, AnycastChoosesClosestSite) {
  // Origin announces from two sites (links); a distant AS picks the shorter
  // side.
  test::TinyTopo t;
  const Asn d = t.add();
  const Asn near = t.add();
  const Asn far1 = t.add();
  const Asn far2 = t.add();
  const Asn x = t.add();
  const LinkId site_near = t.link(d, near, Relationship::kProvider);
  const LinkId site_far = t.link(d, far1, Relationship::kProvider);
  t.link(far1, far2, Relationship::kProvider);
  t.link(near, x, Relationship::kCustomer);
  t.link(far2, x, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(d);
  engine.announce(pfx, d, AnnounceOptions{.only_links = {site_near, site_far}});
  engine.run();
  // x is a provider of both near and far2; both exports are legal
  // (customer-learned chains), x picks the shorter (via near).
  ASSERT_NE(engine.best(x, pfx), nullptr);
  EXPECT_EQ(engine.best(x, pfx)->next_hop, near);
}

}  // namespace
}  // namespace irp
