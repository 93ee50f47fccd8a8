// PathTable unit tests: hash-consing semantics (same path <=> same id),
// prepend/contains/length, poison-set identity, a randomized stress run
// that cross-checks the table against materialized AsPath values,
// cross-table import, and loading flat images (intern_flat) with rollback.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
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

TEST(PathTable, CountsNodesAndHits) {
  PathTable table;
  const auto nodes_before = table.num_paths();
  PathId p = table.prepend(kEmptyPathId, 1);
  EXPECT_EQ(table.num_paths(), nodes_before + 1);
  const auto hits_before = table.hits();
  EXPECT_EQ(table.prepend(kEmptyPathId, 1), p);
  EXPECT_EQ(table.hits(), hits_before + 1);
  table.note_reuse();
  EXPECT_EQ(table.hits(), hits_before + 2);
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
  EXPECT_GT(table.hits(), 0u);
  EXPECT_LT(table.num_paths(), 4000u * 6);
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

// -- Flat images: intern_flat() is the loader of every oracle image.

/// A table's flat image: its node array and its poison-set pool.
struct FlatImage {
  std::vector<PathTable::FlatNode> nodes;
  std::vector<std::vector<Asn>> pool;
};

FlatImage flat_image(const PathTable& table) {
  FlatImage image;
  for (PathId id = 0; id < table.num_paths(); ++id)
    image.nodes.push_back(table.flat_node(id));
  for (std::size_t i = 0; i < table.num_poison_sets(); ++i)
    image.pool.push_back(table.poison_set_at(i));
  return image;
}

bool same_image(const FlatImage& a, const FlatImage& b) {
  if (a.nodes.size() != b.nodes.size() || a.pool != b.pool) return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const PathTable::FlatNode& x = a.nodes[i];
    const PathTable::FlatNode& y = b.nodes[i];
    if (std::tie(x.head, x.tail, x.num_hops, x.poison) !=
        std::tie(y.head, y.tail, y.num_hops, y.poison))
      return false;
  }
  return true;
}

PathTable::FlatNode flat(Asn head, PathId tail, std::uint32_t hops,
                         std::uint32_t poison) {
  PathTable::FlatNode n;
  n.head = head;
  n.tail = tail;
  n.num_hops = hops;
  n.poison = poison;
  return n;
}

/// A table with plain paths, poisoned roots and shared suffixes.
PathTable mixed_table(std::vector<std::pair<PathId, AsPath>>* interned) {
  PathTable table;
  for (const AsPath& value : {AsPath{{10, 20, 30}, {}},
                              AsPath{{40, 20, 30}, {}},  // Shared suffix.
                              AsPath{{10}, {99}},        // Poisoned root.
                              AsPath{{50, 10}, {99}},
                              AsPath{{50, 10}, {99, 98}},  // Another set.
                              AsPath{{}, {7}}}) {          // Bare root.
    const PathId id = table.intern(value);
    if (interned != nullptr) interned->emplace_back(id, value);
  }
  return table;
}

/// Expects intern_flat(image) on `table` to throw a CheckError naming
/// `what`, and the table to come out exactly as it went in: same nodes,
/// pool and counters, and no stale intern keys or roots (interning a
/// further image lands where it lands on an untouched copy).
void expect_rejected(PathTable& table, const FlatImage& image,
                     const std::string& what) {
  const PathTable untouched = table;
  try {
    (void)table.intern_flat(image.nodes, image.pool);
    ADD_FAILURE() << "expected CheckError mentioning '" << what << "'";
    return;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(same_image(flat_image(table), flat_image(untouched)));
  EXPECT_EQ(table.hits(), untouched.hits());

  PathTable copy = untouched;
  const FlatImage next = flat_image(mixed_table(nullptr));
  EXPECT_EQ(table.intern_flat(next.nodes, next.pool),
            copy.intern_flat(next.nodes, next.pool));
  EXPECT_TRUE(same_image(flat_image(table), flat_image(copy)));
}

TEST(PathTable, InternFlatIntoAnEmptyTableRebuildsItIdForId) {
  std::vector<std::pair<PathId, AsPath>> interned;
  const PathTable table = mixed_table(&interned);
  const FlatImage image = flat_image(table);

  PathTable rebuilt;
  const std::vector<PathId> remap =
      rebuilt.intern_flat(image.nodes, image.pool);
  ASSERT_EQ(remap.size(), table.num_paths());
  for (PathId id = 0; id < remap.size(); ++id) EXPECT_EQ(remap[id], id);
  EXPECT_TRUE(same_image(flat_image(rebuilt), image));
  for (const auto& [id, value] : interned) {
    EXPECT_EQ(rebuilt.materialize(id), value) << value.to_string();
    EXPECT_EQ(rebuilt.length(id), value.length());
  }

  // The intern map and roots are live: existing paths keep their ids, and
  // new ones extend the rebuilt state.
  for (const auto& [id, value] : interned)
    EXPECT_EQ(rebuilt.intern(value), id);
  EXPECT_EQ(rebuilt.num_paths(), table.num_paths());
  const PathId extended = rebuilt.prepend(interned[0].first, 9);
  EXPECT_EQ(rebuilt.materialize(extended).hops,
            (std::vector<Asn>{9, 10, 20, 30}));
}

TEST(PathTable, InternFlatIntoANonEmptyTableMatchesInterningValues) {
  // An image interned into a table that already holds overlapping paths
  // (and poison sets) gets, id for id, what intern(materialize(id)) gets,
  // and the table grows exactly as interning the values would grow it.
  PathTable src;
  Rng rng{20261019};
  for (int i = 0; i < 800; ++i) {
    AsPath value;
    const std::size_t len = rng.index(7);
    for (std::size_t h = 0; h < len; ++h)
      value.hops.push_back(Asn(1 + rng.index(10)));
    if (rng.chance(0.2)) value.poison_set.push_back(Asn(1 + rng.index(5)));
    (void)src.intern(value);
  }
  const FlatImage image = flat_image(src);

  PathTable by_value;
  PathTable by_image;
  for (PathTable* dst : {&by_value, &by_image}) {
    (void)dst->intern(AsPath{{3, 2, 1}, {}});
    (void)dst->intern(AsPath{{7}, {4}});
    (void)dst->intern(AsPath{{6, 5}, {2}});
  }
  const std::vector<PathId> remap =
      by_image.intern_flat(image.nodes, image.pool);
  ASSERT_EQ(remap.size(), src.num_paths());
  for (PathId id = 0; id < src.num_paths(); ++id) {
    const AsPath value = src.materialize(id);
    ASSERT_EQ(remap[id], by_value.intern(value)) << value.to_string();
    ASSERT_EQ(by_image.materialize(remap[id]), value);
  }
  EXPECT_TRUE(same_image(flat_image(by_image), flat_image(by_value)));
}

TEST(PathTable, InternFlatRejectsMalformedImages) {
  // Every case also checks the rollback: the table is the one it was.
  PathTable table = mixed_table(nullptr);
  // No nodes at all.
  expect_rejected(table, FlatImage{{}, {{}}}, "has no nodes");
  // Node 0 not the empty root.
  expect_rejected(table, FlatImage{{flat(5, 0, 1, 0)}, {{}}},
                  "node 0 is not the empty root");
  // Missing empty poison set at pool slot 0.
  expect_rejected(table, FlatImage{{flat(0, 0, 0, 0)}, {{1, 2}}},
                  "must start with the empty set");
  // Hop node whose tail points forward.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(5, 0, 1, 0),
                             flat(6, 3, 1, 0), flat(7, 1, 2, 0)},
                            {{}}},
                  "tail does not precede node");
  // Inconsistent hop count, after a node the table did not hold yet.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(123, 0, 1, 0),
                             flat(5, 0, 3, 0)},
                            {{}}},
                  "hop count is inconsistent");
  // Poison id out of range.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(5, 0, 1, 4)}, {{}}},
                  "references a missing poison set");
  // A hop without a head; a malformed root; a second empty root.
  expect_rejected(table, FlatImage{{flat(0, 0, 0, 0), flat(0, 0, 1, 0)}, {{}}},
                  "hop node has no head");
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(0, 0, 0, 1)}, {{}, {8}}},
                  "root node is malformed");
  expect_rejected(table, FlatImage{{flat(0, 0, 0, 0), flat(0, 1, 0, 0)}, {{}}},
                  "duplicates the empty root");
  // A node whose poison id differs from its tail's.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(0, 1, 0, 1),
                             flat(5, 1, 1, 0)},
                            {{}, {8}}},
                  "not inherited from tail");
}

TEST(PathTable, InternFlatRejectsADuplicateNodeTheTableAlreadyHolds) {
  // The image holds [5] twice. The table already holds [5] from an earlier
  // image, so interning maps both copies onto that one node; the loader
  // must still see the duplicate and fail with the same message it gives
  // an empty table.
  const FlatImage twice{
      {flat(0, 0, 0, 0), flat(5, 0, 1, 0), flat(6, 1, 2, 0), flat(5, 0, 1, 0)},
      {{}}};
  PathTable empty;
  expect_rejected(empty, twice, "duplicate interned nodes");
  PathTable holding;
  (void)holding.intern(AsPath{{5}, {}});
  (void)holding.intern(AsPath{{6, 5}, {}});
  expect_rejected(holding, twice, "duplicate interned nodes");

  // Same for a poisoned root the image carries twice (here under two pool
  // slots holding one set, which is also a repeated set).
  const FlatImage two_roots{
      {flat(0, 0, 0, 0), flat(0, 1, 0, 1), flat(0, 2, 0, 2)}, {{}, {9}, {9}}};
  expect_rejected(empty, two_roots, "duplicate poison roots");
  (void)holding.root(std::vector<Asn>{9});
  expect_rejected(holding, two_roots, "duplicate poison roots");
}

TEST(PathTable, InternFlatRejectsNonCanonicalPoisonPools) {
  // A table's pool lists the empty set, then each poisoned root's set in
  // root order, once. The writer never produces anything else, and a pool
  // that differs would not re-encode to the image it came from.
  PathTable table = mixed_table(nullptr);
  // Roots in the opposite order of their sets.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(0, 1, 0, 2),
                             flat(0, 2, 0, 1)},
                            {{}, {7}, {8}}},
                  "poison set is out of root order");
  // A set no root uses.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(0, 1, 0, 1)},
                            {{}, {7}, {8}}},
                  "poison pool has an unused set");
  expect_rejected(table, FlatImage{{flat(0, 0, 0, 0)}, {{}, {8}}},
                  "poison pool has an unused set");
  // The same set twice, once for a root and once unused.
  expect_rejected(table,
                  FlatImage{{flat(0, 0, 0, 0), flat(0, 1, 0, 1)},
                            {{}, {7}, {7}}},
                  "poison pool repeats a set");
  expect_rejected(table, FlatImage{{flat(0, 0, 0, 0)}, {{}, {}}},
                  "poison pool repeats a set");
}

TEST(PathTable, TruncateDropsEverythingAfterTheMark) {
  PathTable table = mixed_table(nullptr);
  const PathTable before = table;
  const PathTable::Mark mark = table.mark();
  (void)table.intern(AsPath{{1, 2, 3}, {}});
  (void)table.intern(AsPath{{4}, {55, 56}});
  (void)table.intern(AsPath{{40, 20, 30}, {}});  // A hit.
  table.truncate(mark);
  EXPECT_TRUE(same_image(flat_image(table), flat_image(before)));
  EXPECT_EQ(table.hits(), before.hits());
  // The dropped paths intern afresh at the same ids as on the copy.
  PathTable copy = before;
  EXPECT_EQ(table.intern(AsPath{{4}, {55, 56}}),
            copy.intern(AsPath{{4}, {55, 56}}));
  EXPECT_EQ(table.intern(AsPath{{1, 2, 3}, {}}),
            copy.intern(AsPath{{1, 2, 3}, {}}));
  EXPECT_TRUE(same_image(flat_image(table), flat_image(copy)));
}

}  // namespace
}  // namespace irp
