// Hash-consed AS-path storage for the BGP engine.
//
// Every AS path that exists during a convergence is a prepend of some other
// path (its neighbor's path), so the set of live paths forms a tree rooted at
// the origin's (empty) announcement. PathTable stores that tree explicitly:
// each node is (head ASN, parent id) and interning guarantees one node per
// distinct path, so
//   * prepend()   is an O(1) hash probe instead of a full vector copy,
//   * equality    is a single integer compare (same table, same id),
//   * length()    is a cached field read,
//   * contains()  is an O(depth) walk of small nodes (loop prevention).
//
// Poisoned AS-sets (§3.2) are part of a path's identity — two paths with the
// same hops but different poison sets must not compare equal, and loop
// prevention fires on poison members too. The table therefore interns poison
// sets separately and roots each announcement's tree at an "empty path +
// poison set" node; every node inherits its root's poison id, so the poison
// lookup stays O(1).
//
// Ids are only meaningful within the table that produced them. A table is
// engine-local and not thread-safe; concurrent engines each own one.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"

namespace irp {

/// Handle to an interned path; valid for the lifetime of its PathTable.
using PathId = std::uint32_t;

/// The empty path (no hops, no poison set), pre-interned in every table.
inline constexpr PathId kEmptyPathId = 0;

class PathTable {
 public:
  PathTable();

  /// The empty path carrying `poison_set` (interned; empty set = kEmptyPathId).
  PathId root(std::span<const Asn> poison_set);

  /// The path `head · id`: `id` with one hop prepended. O(1) amortized.
  PathId prepend(PathId id, Asn head);

  /// `head` prepended `count` times (origin-side AS-path prepending).
  PathId prepend_n(PathId id, Asn head, std::size_t count);

  /// Interns a materialized AsPath (hops + poison set).
  PathId intern(const AsPath& path);

  /// Credits a prepend the caller avoided by reusing a path it already
  /// holds (e.g. the engine fanning one exported path out over several
  /// links). Keeps hits() meaningful after hot-path hoisting: each reuse is
  /// a hop-vector copy a value-based representation would have made.
  void note_reuse() { ++hits_; }

  /// Number of hops (excluding the poison set).
  std::size_t num_hops(PathId id) const { return nodes_[id].num_hops; }

  /// BGP path length: hops plus one for a non-empty poison set.
  std::size_t length(PathId id) const {
    const Node& n = nodes_[id];
    return n.num_hops + (n.poison == 0 ? 0 : 1);
  }

  /// First (most recent) hop; 0 for an empty path.
  Asn front(PathId id) const { return nodes_[id].head; }

  /// Loop prevention: true if `asn` is a hop or a poison-set member.
  bool contains(PathId id, Asn asn) const;

  /// The path's poison set (empty vector for unpoisoned paths).
  const std::vector<Asn>& poison_set(PathId id) const {
    return poison_sets_[nodes_[id].poison];
  }

  /// Visits hops front (most recent) to back (origin).
  template <typename Fn>
  void for_each_hop(PathId id, Fn&& fn) const {
    for (PathId cur = id; nodes_[cur].num_hops > 0; cur = nodes_[cur].tail)
      fn(nodes_[cur].head);
  }

  /// True if `fn` holds for every hop (vacuously true for the empty path);
  /// stops walking at the first failure.
  template <typename Fn>
  bool all_of_hops(PathId id, Fn&& fn) const {
    for (PathId cur = id; nodes_[cur].num_hops > 0; cur = nodes_[cur].tail)
      if (!fn(nodes_[cur].head)) return false;
    return true;
  }

  /// Appends the hops (front to back) to `out`.
  void append_hops(PathId id, std::vector<Asn>& out) const;

  /// Materializes the full AsPath value (one hop-vector allocation).
  AsPath materialize(PathId id) const;

  /// Copies path `id` of another table into this one and returns its id
  /// here: the one routine for moving paths between tables. `memo` maps
  /// `src` ids already imported into this table (grown on demand to
  /// src.num_paths(); pass the same vector for every id of one `src`). The
  /// walk stops at the first memoized node, so importing a whole table costs
  /// one step per source node, and nodes are created in exactly the order
  /// `intern(src.materialize(id))` would create them: importing a sequence
  /// of ids yields the same ids and node layout as interning their values.
  PathId import(const PathTable& src, PathId id, std::vector<PathId>& memo);

  std::size_t num_paths() const { return nodes_.size(); }
  /// Intern requests (and credited reuses) served by an existing path.
  std::uint64_t hits() const { return hits_; }

  // -- Snapshot hooks (RouteOracle binary images, see src/serve/).
  //
  // A table serializes as its flat node array plus the poison-set pool.
  // intern_flat() reads such an image back into any table, empty or not, and
  // reports where each image id landed, so route records referencing image
  // PathIds can be remapped on the fly.

  /// One node of the flat image; mirrors the private Node layout.
  struct FlatNode {
    Asn head = 0;
    PathId tail = 0;
    std::uint32_t num_hops = 0;
    std::uint32_t poison = 0;
  };

  /// The flat image of one node (`id < num_paths()`).
  FlatNode flat_node(PathId id) const {
    const Node& n = nodes_[id];
    return FlatNode{n.head, n.tail, n.num_hops, n.poison};
  }

  std::size_t num_poison_sets() const { return poison_sets_.size(); }
  const std::vector<Asn>& poison_set_at(std::size_t index) const {
    return poison_sets_[index];
  }

  /// Validates a flat image and interns its nodes into this table in image
  /// order, in O(nodes); returns `remap`, the id here of every image id.
  /// Interning node i is one root() or prepend() call, so the ids and node
  /// layout equal those of import()ing the image's ids in order, and into an
  /// empty table `remap` is the identity. The image must be what a table
  /// serializes: node 0 the empty root, tails preceding their nodes,
  /// consistent hop counts and inherited poison ids, no node twice within
  /// the image (whether or not this table already holds it), and a
  /// canonical pool — the empty set first, then one set per poisoned root
  /// in root order, each used once and none repeated. Anything else throws
  /// CheckError and leaves the table as it was.
  std::vector<PathId> intern_flat(
      std::span<const FlatNode> nodes,
      std::span<const std::vector<Asn>> poison_pool);

  /// A restore point: truncate(mark()) drops every node, intern key, root
  /// and poison set added after the mark and restores hits(), so a failed
  /// multi-step load leaves the table unchanged.
  struct Mark {
    std::size_t nodes = 0;
    std::size_t poison_sets = 0;
    std::uint64_t hits = 0;
  };
  Mark mark() const { return Mark{nodes_.size(), poison_sets_.size(), hits_}; }
  void truncate(const Mark& mark);

 private:
  struct Node {
    Asn head = 0;        ///< Most recent hop; 0 for root (empty) paths.
    PathId tail = 0;     ///< Rest of the path; self-referential for roots.
    std::uint32_t num_hops = 0;
    std::uint32_t poison = 0;  ///< Index into poison_sets_, inherited from root.
  };

  std::vector<Node> nodes_;
  std::vector<std::vector<Asn>> poison_sets_;  ///< [0] is the empty set.
  /// (head, tail) -> node id; the 64-bit key is collision-free by
  /// construction (two 32-bit halves), so lookups never compare paths.
  std::unordered_map<std::uint64_t, PathId> intern_;
  std::map<std::vector<Asn>, PathId> roots_;  ///< poison set -> root node.
  std::uint64_t hits_ = 0;
  /// import() scratch: source ids awaiting a prepend, most recent hop first.
  std::vector<PathId> import_chain_;
};

}  // namespace irp
