// AS-relationship inference (CAIDA stand-in) and snapshot aggregation.
//
// Per-snapshot inference follows the classic Gao/Luckie recipe: compute
// transit degrees from observed paths, detect the Tier-1 clique, walk each
// path over its apex voting customer-to-provider on the uphill and downhill
// segments, and settle remaining comparable-degree links as peer-to-peer.
// It runs on flat arrays over one epoch's PathSet: per-ASN degree arrays
// (sized by the set's largest ASN), one array of the distinct link keys
// (deduplicated through a hash table, then sorted), the link each path edge
// crosses, and per-link vote counters. Links settle in ascending (a, b)
// order, and nothing depends on the order of the paths in the set.
//
// Aggregation follows §3.3 of the paper exactly: five monthly snapshots are
// merged by weighted majority with higher weight for recent months, and if
// the latest two months agree, their inference wins regardless of the first
// three. The merged topology is a *union* of links, which deliberately keeps
// stale links around — one of the violation root causes the paper reports.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "inference/path_corpus.hpp"
#include "topo/types.hpp"

namespace irp {

/// An inferred relationship for an unordered AS pair.
enum class InferredRel : std::uint8_t {
  kAProviderOfB,  ///< first (smaller ASN) is provider of second.
  kBProviderOfA,  ///< second is provider of first.
  kPeer,
};

/// An inferred AS-level topology: pairs with relationship labels.
class InferredTopology {
 public:
  /// Inserts/overwrites the label of a pair.
  void set(Asn a, Asn b, InferredRel rel);

  /// True if the pair is present.
  bool has_link(Asn a, Asn b) const;

  /// Relationship of `b` from `a`'s point of view; nullopt when the pair is
  /// absent from the inferred topology.
  std::optional<Relationship> relationship(Asn a, Asn b) const;

  /// Neighbors of an AS, ascending by ASN. A pure read: the lists are kept
  /// sorted by set(), so concurrent readers of a shared topology are safe.
  const std::vector<Asn>& neighbors(Asn asn) const;

  std::size_t num_links() const { return rel_.size(); }

  /// Every (pair, label).
  const std::map<std::pair<Asn, Asn>, InferredRel>& links() const {
    return rel_;
  }

 private:
  static std::pair<Asn, Asn> key(Asn a, Asn b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }
  std::map<std::pair<Asn, Asn>, InferredRel> rel_;
  std::map<Asn, std::vector<Asn>> adj_;  ///< Sorted neighbor lists.
};

/// Tuning knobs of the per-snapshot inference.
struct InferenceConfig {
  /// Maximum clique size considered during clique detection.
  int max_clique_size = 24;
  /// Degree ratio below which two ASes count as "comparable" (peers).
  double peer_degree_ratio = 2.0;
  /// Vote dominance required to settle a c2p direction.
  double vote_dominance = 1.5;
};

/// Infers relationships from one snapshot's paths. When `clique_out` is
/// non-null the detected Tier-1 clique is reported (diagnostics/tests).
InferredTopology infer_snapshot(const PathSet& paths,
                                const InferenceConfig& config = {},
                                std::set<Asn>* clique_out = nullptr);

/// Aggregates per-epoch inferences per §3.3 (weighted, recency-biased
/// majority over the union of links). `epochs` must be ascending and
/// parallel to `snapshots`.
InferredTopology aggregate_snapshots(
    const std::vector<InferredTopology>& snapshots);

}  // namespace irp
