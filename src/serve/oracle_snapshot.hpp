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
// invariants and pool order while it is interned (PathTable::intern_flat),
// and fields the writer never produces (flag bytes other than 0/1, prefixes
// with host bits, a relationship pair with a >= b, a prefix with two route
// blocks) are rejected rather than normalized, as is a num_ases above
// kOracleSnapshotMaxAses.
//
// One decoder serves both loads: from_bytes_into() interns the path table
// into a table that may already hold other images' paths (StudyCatalog's
// shared arena), remapping route ids as it parses them, and from_bytes() is
// that decoder run into a fresh table the snapshot then owns.
#pragma once

#include <cstdint>
#include <span>
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
/// The largest num_ases the loader accepts. A study's index allocates
/// per-AS state, so a corrupted count must fail as a bad image rather than
/// become a multi-gigabyte allocation; generated Internets stay far below
/// it (under 10^6 ASes even at the CLI's largest --scale).
inline constexpr std::uint32_t kOracleSnapshotMaxAses = 1u << 24;

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

  /// Selected route of one AS for one prefix; its alternates are the
  /// [alternates_begin, alternates_begin + num_alternates) slice of the
  /// prefix's flat `alternates` array (PrefixRoutes::alternates_of).
  struct RouteEntry {
    Asn asn = 0;
    PathId selected = kEmptyPathId;  ///< Into `paths`; excludes `asn` itself.
    Asn next_hop = 0;                ///< 0 when self-originated.
    std::uint32_t alternates_begin = 0;
    std::uint32_t num_alternates = 0;
    bool self_originated = false;
  };
  static_assert(sizeof(RouteEntry) <= 24,
                "a study image holds one RouteEntry per routed (AS, prefix)");

  /// All per-AS routes toward one announced prefix; entries ascending by ASN
  /// (binary-searchable), ASes without a route omitted.
  struct PrefixRoutes {
    Ipv4Prefix prefix;
    Asn origin = 0;
    std::vector<RouteEntry> entries;
    /// Every entry's alternates, in entry order and, within an entry, in
    /// adjacency-list order.
    std::vector<AlternateRoute> alternates;

    /// The entry of `asn`, or nullptr when it has no route.
    const RouteEntry* find(Asn asn) const;

    /// The alternates of one of this block's entries.
    std::span<const AlternateRoute> alternates_of(const RouteEntry& e) const {
      return {alternates.data() + e.alternates_begin, e.num_alternates};
    }

    /// Appends `entry`, whose ASN must exceed every ASN so far, with its
    /// alternates; sets the entry's slice fields.
    void add(RouteEntry entry, std::span<const AlternateRoute> alts);
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
  /// fields (see the file comment), so any image that loads re-encodes to
  /// the same bytes and builds an OracleIndex.
  static OracleSnapshot from_bytes(std::string_view bytes);

  /// What from_bytes_into() reports about the image besides its contents.
  struct ImageInfo {
    std::uint64_t hash = 0;     ///< fnv1a64 of the whole image.
    std::size_t num_paths = 0;  ///< Nodes in the image's path table.
  };

  /// The decoder itself: from_bytes() with the path table interned into
  /// `paths` (PathTable::intern_flat) instead of the snapshot's own. Route
  /// and alternate ids are remapped as they are parsed, so they index
  /// `paths`, and the result's own `paths` stays empty. from_bytes() is
  /// this call into a fresh table, so both fail with the same messages.
  /// The whole-image hash comes from the same walk as the payload
  /// checksum. On CheckError `paths` may keep the image's nodes (a
  /// route-section error comes after them); a caller that must stay
  /// unchanged restores a PathTable::mark().
  static OracleSnapshot from_bytes_into(std::string_view bytes,
                                        PathTable& paths, ImageInfo& info);

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
