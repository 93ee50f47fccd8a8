// PathTable unit tests: hash-consing semantics (same path <=> same id),
// prepend/contains/length, poison-set identity, a randomized stress run
// that cross-checks the table against materialized AsPath values, and
// cross-table import.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "bgp/path_table.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace irp {
namespace {

TEST(PathTable, EmptyPath) {
  PathTable table;
  EXPECT_EQ(table.num_hops(kEmptyPathId), 0u);
  EXPECT_EQ(table.length(kEmptyPathId), 0u);
  EXPECT_EQ(table.front(kEmptyPathId), 0u);
  EXPECT_FALSE(table.contains(kEmptyPathId, 1));
  EXPECT_TRUE(table.poison_set(kEmptyPathId).empty());
  const AsPath empty = table.materialize(kEmptyPathId);
  EXPECT_TRUE(empty.hops.empty());
  EXPECT_TRUE(empty.poison_set.empty());
  // The empty root is pre-interned.
  EXPECT_EQ(table.root({}), kEmptyPathId);
}

TEST(PathTable, PrependBuildsFrontToBack) {
  PathTable table;
  // Announce at 30, then 20 prepends, then 10: front must be most recent.
  PathId p = table.prepend(kEmptyPathId, 30);
  p = table.prepend(p, 20);
  p = table.prepend(p, 10);
  EXPECT_EQ(table.num_hops(p), 3u);
  EXPECT_EQ(table.front(p), 10u);
  const AsPath path = table.materialize(p);
  EXPECT_EQ(path.hops, (std::vector<Asn>{10, 20, 30}));
  EXPECT_EQ(path.to_string(), "10 20 30");
}

TEST(PathTable, InterningIsCanonical) {
  PathTable table;
  PathId a = table.prepend(table.prepend(kEmptyPathId, 2), 1);
  PathId b = table.prepend(table.prepend(kEmptyPathId, 2), 1);
  EXPECT_EQ(a, b);  // Equality is id equality.

  AsPath as_value;
  as_value.hops = {1, 2};
  EXPECT_EQ(table.intern(as_value), a);
  // Sharing: [1 2] and [3 2] share the [2] suffix node.
  PathId c = table.prepend(table.prepend(kEmptyPathId, 2), 3);
  EXPECT_NE(c, a);
  EXPECT_EQ(table.materialize(c).hops, (std::vector<Asn>{3, 2}));
}

TEST(PathTable, ContainsWalksHopsAndPoison) {
  PathTable table;
  PathId p = table.prepend(table.prepend(kEmptyPathId, 7), 5);
  EXPECT_TRUE(table.contains(p, 5));
  EXPECT_TRUE(table.contains(p, 7));
  EXPECT_FALSE(table.contains(p, 6));

  PathId poisoned = table.prepend(table.root(std::vector<Asn>{42, 43}), 5);
  EXPECT_TRUE(table.contains(poisoned, 42));
  EXPECT_TRUE(table.contains(poisoned, 43));
  EXPECT_TRUE(table.contains(poisoned, 5));
  EXPECT_FALSE(table.contains(poisoned, 44));
}

TEST(PathTable, PoisonSetIsPartOfIdentityAndLength) {
  PathTable table;
  const PathId plain = table.prepend(kEmptyPathId, 9);
  const PathId poisoned = table.prepend(table.root(std::vector<Asn>{1}), 9);
  EXPECT_NE(plain, poisoned);
  // BGP length counts a non-empty AS-set as one hop.
  EXPECT_EQ(table.length(plain), 1u);
  EXPECT_EQ(table.length(poisoned), 2u);
  EXPECT_EQ(table.num_hops(poisoned), 1u);
  EXPECT_EQ(table.poison_set(poisoned), (std::vector<Asn>{1}));

  // Same poison set twice -> same root, same derived ids.
  EXPECT_EQ(table.root(std::vector<Asn>{1}),
            table.root(std::vector<Asn>{1}));
  EXPECT_EQ(table.prepend(table.root(std::vector<Asn>{1}), 9), poisoned);
  // Different order = different set value (the engine never reorders).
  EXPECT_NE(table.root(std::vector<Asn>{1, 2}),
            table.root(std::vector<Asn>{2, 1}));
}

TEST(PathTable, PrependN) {
  PathTable table;
  PathId p = table.prepend(kEmptyPathId, 4);
  p = table.prepend(p, 8);
  p = table.prepend_n(p, 8, 3);  // Origin-side prepending.
  EXPECT_EQ(table.materialize(p).hops, (std::vector<Asn>{8, 8, 8, 8, 4}));
  EXPECT_EQ(table.prepend_n(p, 8, 0), p);
}

TEST(PathTable, StatsCountHitsAndSharing) {
  PathTable table;
  const auto nodes_before = table.stats().nodes;
  PathId p = table.prepend(kEmptyPathId, 1);
  EXPECT_EQ(table.stats().nodes, nodes_before + 1);
  const auto hits_before = table.stats().hits;
  EXPECT_EQ(table.prepend(kEmptyPathId, 1), p);
  EXPECT_EQ(table.stats().hits, hits_before + 1);
  EXPECT_GT(table.stats().bytes_saved, 0u);
}

TEST(PathTable, RandomizedStressRoundTrips) {
  // Intern a few thousand random paths (with occasional poison sets) and
  // verify (a) materialization round-trips exactly, (b) value-equality and
  // id-equality coincide, (c) contains() agrees with the materialized value.
  // This also hammers the intern map with many (head, tail) keys sharing
  // low bits — the closest thing to a collision stress the 64-bit key
  // admits.
  PathTable table;
  Rng rng{20260805};
  std::map<std::string, PathId> seen;
  for (int i = 0; i < 4000; ++i) {
    AsPath value;
    const std::size_t len = 1 + rng.index(12);
    for (std::size_t h = 0; h < len; ++h)
      value.hops.push_back(Asn(1 + rng.index(50)));
    if (rng.chance(0.2))
      for (std::size_t s = 0; s < 1 + rng.index(3); ++s)
        value.poison_set.push_back(Asn(1 + rng.index(50)));

    const PathId id = table.intern(value);
    const AsPath back = table.materialize(id);
    ASSERT_EQ(back, value) << back.to_string();
    ASSERT_EQ(table.num_hops(id), value.hops.size());
    ASSERT_EQ(table.length(id), value.length());

    const std::string key = value.to_string();
    auto [it, inserted] = seen.emplace(key, id);
    ASSERT_EQ(it->second, id) << "same value must intern to the same id";

    for (Asn probe = 1; probe <= 50; ++probe)
      ASSERT_EQ(table.contains(id, probe), value.contains(probe))
          << key << " probe " << probe;
  }
  // Sharing must have happened: far fewer nodes than total hops interned.
  EXPECT_GT(table.stats().hits, 0u);
  EXPECT_LT(table.stats().nodes, 4000u * 6);
}

TEST(PathTable, FlatRoundTripPreservesIdsAndValues) {
  // Build a table with plain paths, poison roots, and shared suffixes, dump
  // it via flat_node()/poison_set_at(), rebuild with from_flat(), and check
  // every id materializes identically — the oracle snapshot contract.
  PathTable table;
  std::vector<std::pair<PathId, AsPath>> interned;
  auto keep = [&](const AsPath& value) {
    interned.emplace_back(table.intern(value), value);
  };
  keep(AsPath{{10, 20, 30}, {}});
  keep(AsPath{{40, 20, 30}, {}});          // Shares the [20 30] suffix.
  keep(AsPath{{10}, {99}});                // Poisoned root + hop.
  keep(AsPath{{50, 10}, {99}});
  keep(AsPath{{50, 10}, {99, 98}});        // Distinct poison set.
  keep(AsPath{{}, {7}});                   // Bare poison root.

  std::vector<PathTable::FlatNode> nodes;
  for (PathId id = 0; id < table.num_paths(); ++id)
    nodes.push_back(table.flat_node(id));
  std::vector<std::vector<Asn>> poison_sets;
  for (std::size_t i = 0; i < table.num_poison_sets(); ++i)
    poison_sets.push_back(table.poison_set_at(i));

  const PathTable rebuilt = PathTable::from_flat(nodes, std::move(poison_sets));
  ASSERT_EQ(rebuilt.num_paths(), table.num_paths());
  for (const auto& [id, value] : interned) {
    EXPECT_EQ(rebuilt.materialize(id), value) << value.to_string();
    EXPECT_EQ(rebuilt.num_hops(id), value.hops.size());
    EXPECT_EQ(rebuilt.length(id), value.length());
  }
}

TEST(PathTable, RebuiltTableKeepsInterning) {
  // After from_flat, interning an existing path must return its old id (the
  // rebuilt intern map is live, not just a dead archive).
  PathTable table;
  const AsPath value{{1, 2, 3}, {}};
  const PathId id = table.intern(value);

  std::vector<PathTable::FlatNode> nodes;
  for (PathId i = 0; i < table.num_paths(); ++i)
    nodes.push_back(table.flat_node(i));
  std::vector<std::vector<Asn>> poison_sets;
  for (std::size_t i = 0; i < table.num_poison_sets(); ++i)
    poison_sets.push_back(table.poison_set_at(i));

  PathTable rebuilt = PathTable::from_flat(nodes, std::move(poison_sets));
  EXPECT_EQ(rebuilt.intern(value), id);
  // New paths keep working on top of the rebuilt state.
  const PathId extended = rebuilt.prepend(id, 9);
  EXPECT_EQ(rebuilt.materialize(extended).hops, (std::vector<Asn>{9, 1, 2, 3}));
}

TEST(PathTable, ImportMatchesInterningTheMaterializedPath) {
  // import() is the cross-table copy behind the oracle snapshot builder and
  // the study catalog; their image bytes rely on it creating exactly the
  // ids and node layout that intern(src.materialize(id)) would. Cover
  // poisoned roots, shared suffixes, a destination that already holds some
  // of the paths, and ids visited in shuffled order (so walks stop at
  // memoized nodes at every depth).
  PathTable src;
  Rng rng{20261017};
  for (int i = 0; i < 1500; ++i) {
    AsPath value;
    const std::size_t len = rng.index(8);
    for (std::size_t h = 0; h < len; ++h)
      value.hops.push_back(Asn(1 + rng.index(12)));
    if (rng.chance(0.15)) value.poison_set.push_back(Asn(1 + rng.index(4)));
    (void)src.intern(value);
  }
  ASSERT_GT(src.num_poison_sets(), 2u);

  PathTable by_value;
  PathTable by_import;
  for (PathTable* dst : {&by_value, &by_import}) {
    (void)dst->intern(AsPath{{3, 2, 1}, {}});
    (void)dst->intern(AsPath{{7}, {4}});
  }

  std::vector<PathId> order(src.num_paths());
  for (PathId id = 0; id < src.num_paths(); ++id) order[id] = id;
  rng.shuffle(order);
  std::vector<PathId> memo;
  for (const PathId id : order) {
    const AsPath value = src.materialize(id);
    const PathId expected = by_value.intern(value);
    ASSERT_EQ(by_import.import(src, id, memo), expected) << value.to_string();
    ASSERT_EQ(by_import.materialize(expected), value);
  }
  // Importing again is a pure memo hit.
  const std::size_t nodes = by_import.num_paths();
  for (const PathId id : order)
    ASSERT_EQ(by_import.import(src, id, memo), memo[id]);
  EXPECT_EQ(by_import.num_paths(), nodes);

  // Same layout node for node, so a snapshot image would be byte-identical.
  ASSERT_EQ(by_import.num_paths(), by_value.num_paths());
  for (PathId id = 0; id < by_value.num_paths(); ++id) {
    const PathTable::FlatNode a = by_import.flat_node(id);
    const PathTable::FlatNode b = by_value.flat_node(id);
    ASSERT_EQ(std::tie(a.head, a.tail, a.num_hops, a.poison),
              std::tie(b.head, b.tail, b.num_hops, b.poison))
        << "node " << id;
  }
  ASSERT_EQ(by_import.num_poison_sets(), by_value.num_poison_sets());
  for (std::size_t i = 0; i < by_value.num_poison_sets(); ++i)
    EXPECT_EQ(by_import.poison_set_at(i), by_value.poison_set_at(i));
}

TEST(PathTable, FromFlatRejectsMalformedImages) {
  const auto flat = [](Asn head, PathId tail, std::uint32_t hops,
                       std::uint32_t poison) {
    PathTable::FlatNode n;
    n.head = head;
    n.tail = tail;
    n.num_hops = hops;
    n.poison = poison;
    return n;
  };
  // No nodes at all.
  EXPECT_THROW(
      PathTable::from_flat(std::span<const PathTable::FlatNode>{}, {{}}),
      CheckError);
  // Node 0 not the empty root.
  {
    std::vector<PathTable::FlatNode> nodes = {flat(5, 0, 1, 0)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{}}), CheckError);
  }
  // Hop node whose tail points forward.
  {
    std::vector<PathTable::FlatNode> nodes = {flat(0, 0, 0, 0),
                                              flat(5, 2, 1, 0)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{}}), CheckError);
  }
  // Inconsistent hop count.
  {
    std::vector<PathTable::FlatNode> nodes = {flat(0, 0, 0, 0),
                                              flat(5, 0, 3, 0)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{}}), CheckError);
  }
  // Poison id out of range.
  {
    std::vector<PathTable::FlatNode> nodes = {flat(0, 0, 0, 0),
                                              flat(5, 0, 1, 4)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{}}), CheckError);
  }
  // Duplicate node (same head, same tail) — intern map collision.
  {
    std::vector<PathTable::FlatNode> nodes = {
        flat(0, 0, 0, 0), flat(5, 0, 1, 0), flat(5, 0, 1, 0)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{}}), CheckError);
  }
  // Missing empty poison set at pool slot 0.
  {
    std::vector<PathTable::FlatNode> nodes = {flat(0, 0, 0, 0)};
    EXPECT_THROW(PathTable::from_flat(nodes, {{1, 2}}), CheckError);
  }
}

}  // namespace
}  // namespace irp
