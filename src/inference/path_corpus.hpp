// A corpus of AS paths observed in public BGP data, per snapshot epoch.
//
// This is the raw material of relationship inference: whatever the route
// collectors saw. Coverage is partial by construction — collectors peer
// mostly with core networks, so edge links (and links only used by
// less-preferred routes) are invisible, one of the central limitations the
// paper investigates.
//
// Storage is flat. A PathSet keeps one epoch's distinct paths in a single
// hop array delimited by end offsets, in first-insertion order, and finds
// duplicates through a DenseIndex (util/dense_index.hpp) of path indices
// keyed by a mix64 hash of the hops, which grows with the number of
// distinct paths, never with the number of hops offered. Each corpus job of the
// passive study fills a PathSet of its own straight from its engine's
// interned paths (add_feed with a PathTable); the study merges them in job
// order, so a set's order is fixed by the inputs, not by thread timing.
// Relationship inference reads only which paths are present, never their
// order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "topo/types.hpp"
#include "util/dense_index.hpp"

namespace irp {

/// One epoch's distinct AS paths (front = collector peer, back = origin),
/// with prepending collapsed, in first-insertion order.
class PathSet {
 public:
  /// Adds `path` with consecutive duplicate hops collapsed. A path of fewer
  /// than two hops after that carries no adjacency and is dropped. Returns
  /// true if the path was new.
  bool add(std::span<const Asn> path);

  /// add() of a feed entry's hops; poisoned paths are skipped (inference
  /// must not learn adjacencies from AS-sets).
  bool add_feed(const FeedEntry& entry);

  /// The same for a route read out of an engine without materializing it:
  /// `peer` prepended to path `path` of `table`.
  bool add_feed(Asn peer, const PathTable& table, PathId path);

  /// Adds every path of `other` not already here, in `other`'s order, and
  /// leaves `other` empty.
  void merge(PathSet&& other);

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  /// Hops over all paths.
  std::size_t num_hops() const { return hops_.size(); }
  /// Largest ASN on any path (0 when empty).
  Asn max_asn() const { return max_asn_; }

  /// Path `i` (`i < size()`), in insertion order.
  std::span<const Asn> operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {hops_.data() + begin, ends_[i] - begin};
  }

  /// Forward iteration over the paths as spans, in insertion order.
  class Iterator {
   public:
    Iterator(const PathSet* set, std::size_t i) : set_(set), i_(i) {}
    std::span<const Asn> operator*() const { return (*set_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }

   private:
    const PathSet* set_;
    std::size_t i_;
  };
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

 private:
  /// Appends `asn` to the path being built from `start` unless it repeats
  /// that path's last hop.
  void append_collapsed(std::size_t start, Asn asn) {
    if (hops_.size() == start || hops_.back() != asn) hops_.push_back(asn);
  }
  /// Keeps the hops appended since `start` as a new path, or drops them if
  /// they are fewer than two or already present.
  bool commit(std::size_t start);
  /// True if `hops`, hashing to `hash`, is already a path here.
  bool contains(std::span<const Asn> hops, std::uint64_t hash) const;
  /// Records the hops appended since `start` as a new path under `hash`.
  void record(std::size_t start, std::uint64_t hash);

  std::vector<Asn> hops_;
  std::vector<std::uint32_t> ends_;     ///< Per path: one past its last hop.
  std::vector<std::uint64_t> hashes_;   ///< Per path.
  DenseIndex index_;                    ///< Hash -> path index.
  Asn max_asn_ = 0;
};

/// AS paths per epoch, deduplicated.
class PathCorpus {
 public:
  /// Adds the AS path of a feed entry to an epoch's set (poisoned paths are
  /// skipped, see PathSet::add_feed).
  void add_feed(int epoch, const FeedEntry& entry);

  /// The set of an epoch (`epoch >= 0`), created empty if absent, for bulk
  /// filling and merging.
  PathSet& epoch_set(int epoch);

  /// All distinct paths recorded for an epoch.
  const PathSet& paths(int epoch) const;

  /// All epochs with data, ascending.
  std::vector<int> epochs() const;

  std::size_t total_paths() const;

 private:
  std::vector<PathSet> by_epoch_;  ///< Indexed by epoch.
};

}  // namespace irp
