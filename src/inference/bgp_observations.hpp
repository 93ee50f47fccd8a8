// Per-prefix BGP visibility extracted from collector feeds.
//
// The prefix-specific-policy criteria of §4.3 need to know, from public BGP
// data alone, whether an origin AS O was seen announcing prefix P to a
// neighbor N. A feed path "... N O" for P is exactly that observation.
//
// Lookups are on the classifier's hot path (every PSP GrModel computation
// probes announced()/announced_any() once per candidate origin edge), so the
// store is hash-based: prefixes through Ipv4PrefixHash, (origin, neighbor)
// pairs packed into one 64-bit key. export_sorted() provides the
// deterministic ordering the RouteOracle snapshot format needs.
#pragma once

#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "net/ipv4.hpp"
#include "topo/types.hpp"

namespace irp {

/// Which (origin -> neighbor) announcements were visible per prefix.
class BgpObservations {
 public:
  /// Ingests feed entries (poisoned paths are skipped: a poisoned path does
  /// not witness a real origin -> neighbor announcement).
  void ingest(std::span<const FeedEntry> feed);

  /// Records one origin -> neighbor visibility fact for `prefix` directly
  /// (snapshot restore and unit tests; ingest() is the production path).
  void add(Asn origin, Asn neighbor, const Ipv4Prefix& prefix);

  /// True if the feeds show `origin` announcing `prefix` to `neighbor`.
  bool announced(Asn origin, Asn neighbor, const Ipv4Prefix& prefix) const;

  /// True if the feeds show `origin` announcing *any* prefix to `neighbor`.
  bool announced_any(Asn origin, Asn neighbor) const;

  /// True if the feeds show `origin` announcing `prefix` to *any* neighbor.
  /// When false, announced(origin, n, prefix) is false for every n.
  bool announced_by(Asn origin, const Ipv4Prefix& prefix) const;

  /// Neighbors that `origin` was seen announcing `prefix` to.
  std::set<Asn> neighbors_for(Asn origin, const Ipv4Prefix& prefix) const;

  std::size_t size() const { return per_prefix_.size(); }

  /// Deterministic dump for serialization: prefixes ascending, and within
  /// each prefix the (origin, neighbor) pairs ascending.
  std::vector<std::pair<Ipv4Prefix, std::vector<std::pair<Asn, Asn>>>>
  export_sorted() const;

 private:
  static std::uint64_t pack(Asn origin, Asn neighbor) {
    return (std::uint64_t{origin} << 32) | std::uint64_t{neighbor};
  }

  /// (origin, neighbor) pairs seen for each prefix, packed as u64 keys.
  std::unordered_map<Ipv4Prefix, std::unordered_set<std::uint64_t>,
                     Ipv4PrefixHash>
      per_prefix_;
  std::unordered_set<std::uint64_t> any_prefix_;
};

}  // namespace irp
