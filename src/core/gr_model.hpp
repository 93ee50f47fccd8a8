// Gao-Rexford path computation over an inferred topology (§3.3).
//
// For a destination AS d, computes for every AS x the set of GR-valid
// (valley-free, export-policy respecting) routes available, summarized as:
//   * the shortest path length whose first hop is a customer / peer /
//     provider of x, and
//   * witness paths for those lengths.
// "Best" relationship class at x is the cheapest class with any GR-valid
// route; "Short" is the overall shortest GR-valid length (§3.3's two
// properties). An optional first-hop filter into the destination models
// prefix-specific policies: edge N->d is only usable if the origin was seen
// announcing the prefix to N (§4.3 criteria).
//
// Implementation: the classic three-stage relaxation —
//   customer routes by BFS from d along provider edges (all-down paths),
//   peer routes as one peer hop onto a customer route,
//   provider routes by a Dijkstra-style descent (up*; the suffix after the
//   first down/flat step must itself be valley-free).
//
// Approximation note (standard in GR simulators): the per-class lengths of
// length_via() may count valley-free walks whose continuation passes back
// through the source AS — routes BGP loop prevention would reject. Because
// any such walk has a strictly shorter simple suffix starting at the source,
// best_class() and shortest_length() (the only quantities the decision
// classifier consumes) are exact; only a class-specific length can be
// optimistic when that class has no simple route at all.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "inference/relationships.hpp"
#include "topo/types.hpp"

namespace irp {

inline constexpr std::size_t kUnreachable =
    std::numeric_limits<std::size_t>::max();

/// Per-destination GR route summary for every AS.
class GrPathSet {
 public:
  /// Shortest GR path length from `asn` whose first hop has the given
  /// relationship class; kUnreachable if no such route exists.
  std::size_t length_via(Asn asn, Relationship first_hop_class) const;

  /// Cheapest relationship class with any GR route at `asn`.
  std::optional<Relationship> best_class(Asn asn) const;

  /// Shortest GR path length at `asn` over all classes.
  std::size_t shortest_length(Asn asn) const;

  /// A witness shortest GR path from `asn` to the destination (excluding
  /// `asn` itself, ending at the destination); empty if unreachable.
  std::vector<Asn> witness_shortest(Asn asn) const;

  Asn destination() const { return dest_; }

 private:
  friend class GrModel;
  Asn dest_ = 0;
  // Index 0 unused; sized num_ases + 1.
  std::vector<std::size_t> cust_, peer_, prov_;
  std::vector<Asn> cust_parent_, peer_parent_, prov_parent_;
};

/// First-hop admission filter: may the edge (neighbor -> destination) be
/// used for this computation? (Prefix-specific policy restriction.)
using OriginEdgeFilter = std::function<bool(Asn neighbor)>;

/// Computes GrPathSets over a fixed inferred topology.
class GrModel {
 public:
  /// `num_ases` bounds the dense ASN space (ASNs are 1..num_ases).
  GrModel(const InferredTopology* topo, std::size_t num_ases);

  /// Computes the GR route summary toward `dest`. If `filter` is provided,
  /// only neighbors passing it may use their direct edge to `dest`.
  GrPathSet compute(Asn dest, const OriginEdgeFilter& filter = nullptr) const;

  /// Throws CheckError unless `dest` is in 1..num_ases — compute()'s own
  /// precondition, for callers that index per-destination state first.
  void check_destination(Asn dest) const;

  std::size_t num_ases() const { return num_ases_; }

 private:
  struct Edge {
    Asn neighbor;
    Relationship rel;  ///< Role of `neighbor` from the local AS.
  };

  const InferredTopology* topo_;
  std::size_t num_ases_;
  std::vector<std::vector<Edge>> adj_;  ///< Dense adjacency, index = ASN.
};

}  // namespace irp
