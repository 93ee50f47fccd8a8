// A corpus of AS paths observed in public BGP data, per snapshot epoch.
//
// This is the raw material of relationship inference: whatever the route
// collectors saw. Coverage is partial by construction — collectors peer
// mostly with core networks, so edge links (and links only used by
// less-preferred routes) are invisible, one of the central limitations the
// paper investigates.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "bgp/route.hpp"
#include "topo/types.hpp"

namespace irp {

/// AS paths per epoch, deduplicated.
class PathCorpus {
 public:
  /// Adds one observed AS path (front = collector peer, back = origin).
  /// Paths with fewer than two hops carry no adjacency and are dropped.
  void add(int epoch, const std::vector<Asn>& path);

  /// Convenience: adds the AS path of a feed entry (poisoned paths are
  /// skipped — inference must not learn adjacencies from AS-sets).
  void add_feed(int epoch, const FeedEntry& entry);

  /// Moves every path of `other` into this corpus. Paths are sets, so the
  /// result does not depend on how a corpus was split or merged.
  void merge(PathCorpus&& other);

  /// All distinct paths recorded for an epoch.
  const std::set<std::vector<Asn>>& paths(int epoch) const;

  /// All epochs with data, ascending.
  std::vector<int> epochs() const;

  /// Distinct adjacencies (unordered pairs) seen at an epoch.
  std::set<std::pair<Asn, Asn>> adjacencies(int epoch) const;

  std::size_t total_paths() const;

 private:
  std::map<int, std::set<std::vector<Asn>>> by_epoch_;
};

}  // namespace irp
