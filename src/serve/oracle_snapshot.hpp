// RouteOracle snapshot: a completed study frozen into one binary image.
//
// Everything the query layer needs to answer routing-decision questions
// offline — the §3.3-aggregated relationships, sibling clusters, the
// Giotsas-style complex-relationships dataset, per-prefix BGP observations
// (§4.3), the interned AS-path table, and the per-(AS, prefix) selected and
// alternate routes of the measurement-epoch engine — is flattened into plain
// arrays. Loading is O(bytes): no convergence, no inference, no traceroutes;
// a loaded snapshot answers every query class identically to the live study
// it was taken from (test_oracle_snapshot proves this).
//
// Wire format (little-endian):
//   magic u32 | version u32 | payload_size u64 | fnv1a64(payload) u64 | payload
// The loader rejects wrong magic/version, truncated images (size mismatch)
// and corrupted payloads (checksum mismatch) with CheckError — never UB.
// Inside the payload every count is bounds-checked against the remaining
// bytes before any allocation, the path table re-validates its tree
// invariants on rebuild (PathTable::from_flat), and fields the writer never
// produces (flag bytes other than 0/1, prefixes with host bits) are
// rejected rather than normalized.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "geo/world.hpp"
#include "net/ipv4.hpp"
#include "topo/types.hpp"

namespace irp {

struct PassiveDataset;

/// "IRPO" in little-endian byte order.
inline constexpr std::uint32_t kOracleSnapshotMagic = 0x4F505249u;
inline constexpr std::uint32_t kOracleSnapshotVersion = 1;

/// The frozen study image. Plain data; build with snapshot_study(), persist
/// with save()/load() or to_bytes()/from_bytes().
struct OracleSnapshot {
  /// One aggregated relationship label; a < b (InferredRel orientation).
  struct RelationshipEntry {
    Asn a = 0;
    Asn b = 0;
    std::uint8_t rel = 0;  ///< InferredRel under the hood.
  };

  /// One city-scoped complex-relationship record (HybridEntry image).
  struct HybridRecord {
    Asn a = 0;
    Asn b = 0;
    CityId city = 0;
    std::uint8_t rel = 0;  ///< Relationship of b from a.
  };

  /// (origin, neighbor) pairs seen announcing one prefix, ascending.
  struct ObservationBlock {
    Ipv4Prefix prefix;
    std::vector<std::pair<Asn, Asn>> pairs;
  };

  /// A non-selected Adj-RIB-In route of one AS for one prefix.
  struct AlternateRoute {
    PathId path = kEmptyPathId;  ///< Into `paths`.
    Asn from_asn = 0;
  };

  /// Selected route + alternates of one AS for one prefix.
  struct RouteEntry {
    Asn asn = 0;
    PathId selected = kEmptyPathId;  ///< Into `paths`; excludes `asn` itself.
    Asn next_hop = 0;                ///< 0 when self-originated.
    bool self_originated = false;
    std::vector<AlternateRoute> alternates;  ///< Adjacency-list order.
  };

  /// All per-AS routes toward one announced prefix; entries ascending by ASN
  /// (binary-searchable), ASes without a route omitted.
  struct PrefixRoutes {
    Ipv4Prefix prefix;
    Asn origin = 0;
    std::vector<RouteEntry> entries;
  };

  std::uint32_t num_ases = 0;  ///< Dense ASN bound (ASNs are 1..num_ases).
  std::vector<RelationshipEntry> relationships;
  std::vector<std::vector<Asn>> sibling_groups;
  std::vector<HybridRecord> hybrid_entries;
  std::vector<std::pair<Asn, Asn>> partial_transit;
  std::vector<ObservationBlock> observations;
  PathTable paths;
  std::vector<PrefixRoutes> routes;

  /// Total route entries across all prefixes (reporting).
  std::size_t num_route_entries() const;

  /// Serializes the full image (header + checksummed payload). The bytes are
  /// deterministic: two snapshots of the same study are identical.
  std::string to_bytes() const;

  /// Parses an image; throws CheckError on wrong magic/version, truncation,
  /// checksum mismatch, structurally malformed payloads, or non-canonical
  /// fields (a flag byte other than 0/1, a prefix with host bits set), so
  /// any image that loads re-encodes to the same bytes.
  static OracleSnapshot from_bytes(std::string_view bytes);

  void save(const std::string& path) const;
  static OracleSnapshot load(const std::string& path);
};

/// Freezes a completed passive study (aggregated inference products plus the
/// live measurement-epoch engine) into a snapshot. Requires ds.engine.
/// Routes are read through BgpEngine::visit_routes and their PathIds
/// imported into `paths` (PathTable::import, one memo), so no AS path is
/// materialized; the bytes equal those of interning every path by value.
OracleSnapshot snapshot_study(const PassiveDataset& ds);

}  // namespace irp
