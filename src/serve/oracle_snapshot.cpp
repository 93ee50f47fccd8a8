#include "serve/oracle_snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_set>

#include "core/passive_study.hpp"
#include "serve/byte_io.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace irp {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic + version + size + checksum.
constexpr std::size_t kChecksumOffset = 16;  // After magic, version, size.
constexpr std::string_view kContext = "oracle snapshot";

/// Writes the payload (everything after the header) to `w`: a ByteWriter,
/// or a ByteCounter for the sizing pass.
template <typename Out>
void encode_payload(const OracleSnapshot& snap, Out& w) {
  w.u32(snap.num_ases);

  w.u32(static_cast<std::uint32_t>(snap.relationships.size()));
  for (const auto& r : snap.relationships) {
    w.u32(r.a);
    w.u32(r.b);
    w.u8(r.rel);
  }

  w.u32(static_cast<std::uint32_t>(snap.sibling_groups.size()));
  for (const auto& group : snap.sibling_groups) w.asns(group);

  w.u32(static_cast<std::uint32_t>(snap.hybrid_entries.size()));
  for (const auto& h : snap.hybrid_entries) {
    w.u32(h.a);
    w.u32(h.b);
    w.u32(h.city);
    w.u8(h.rel);
  }
  w.u32(static_cast<std::uint32_t>(snap.partial_transit.size()));
  for (const auto& [provider, customer] : snap.partial_transit) {
    w.u32(provider);
    w.u32(customer);
  }

  w.u32(static_cast<std::uint32_t>(snap.observations.size()));
  for (const auto& block : snap.observations) {
    w.prefix(block.prefix);
    w.u32(static_cast<std::uint32_t>(block.pairs.size()));
    for (const auto& [origin, neighbor] : block.pairs) {
      w.u32(origin);
      w.u32(neighbor);
    }
  }

  w.u32(static_cast<std::uint32_t>(snap.paths.num_paths()));
  for (PathId id = 0; id < snap.paths.num_paths(); ++id) {
    const PathTable::FlatNode n = snap.paths.flat_node(id);
    w.u32(n.head);
    w.u32(n.tail);
    w.u32(n.num_hops);
    w.u32(n.poison);
  }
  w.u32(static_cast<std::uint32_t>(snap.paths.num_poison_sets()));
  for (std::size_t i = 0; i < snap.paths.num_poison_sets(); ++i)
    w.asns(snap.paths.poison_set_at(i));

  w.u32(static_cast<std::uint32_t>(snap.routes.size()));
  for (const auto& pr : snap.routes) {
    w.prefix(pr.prefix);
    w.u32(pr.origin);
    w.u32(static_cast<std::uint32_t>(pr.entries.size()));
    for (const auto& e : pr.entries) {
      w.u32(e.asn);
      w.u32(e.selected);
      w.u32(e.next_hop);
      w.u8(e.self_originated ? 1 : 0);
      w.u32(e.num_alternates);
      for (const auto& alt : pr.alternates_of(e)) {
        w.u32(alt.path);
        w.u32(alt.from_asn);
      }
    }
  }
}

/// ByteReader::prefix() without its silent masking: a prefix with host bits
/// set would load as its masked form and re-encode to different bytes.
Ipv4Prefix read_canonical_prefix(ByteReader& r) {
  const std::uint32_t network = r.u32();
  const int length = r.u8();
  IRP_CHECK(length <= 32, "oracle snapshot: prefix length out of range");
  const Ipv4Prefix prefix{Ipv4Addr{network}, length};
  IRP_CHECK(prefix.network().value() == network,
            "oracle snapshot: prefix has host bits set");
  return prefix;
}

}  // namespace

const OracleSnapshot::RouteEntry* OracleSnapshot::PrefixRoutes::find(
    Asn asn) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), asn,
      [](const RouteEntry& e, Asn a) { return e.asn < a; });
  return it == entries.end() || it->asn != asn ? nullptr : &*it;
}

void OracleSnapshot::PrefixRoutes::add(RouteEntry entry,
                                       std::span<const AlternateRoute> alts) {
  IRP_CHECK(entries.empty() || entries.back().asn < entry.asn,
            "oracle snapshot: route entries not ascending by ASN");
  entry.alternates_begin = static_cast<std::uint32_t>(alternates.size());
  entry.num_alternates = static_cast<std::uint32_t>(alts.size());
  alternates.insert(alternates.end(), alts.begin(), alts.end());
  entries.push_back(entry);
}

std::size_t OracleSnapshot::num_route_entries() const {
  std::size_t n = 0;
  for (const PrefixRoutes& pr : routes) n += pr.entries.size();
  return n;
}

std::string OracleSnapshot::to_bytes() const {
  ByteCounter counter;
  encode_payload(*this, counter);
  const std::size_t payload_size = counter.size();

  ByteWriter w;
  w.reserve(kHeaderBytes + payload_size);
  w.u32(kOracleSnapshotMagic);
  w.u32(kOracleSnapshotVersion);
  w.u64(payload_size);
  w.u64(0);  // Checksum, patched in place once the payload is written.
  encode_payload(*this, w);
  std::string image = w.take();
  IRP_CHECK(image.size() == kHeaderBytes + payload_size,
            "oracle snapshot: payload size differs from its sizing pass");
  const std::uint64_t checksum =
      fnv1a64(std::string_view(image).substr(kHeaderBytes));
  std::memcpy(image.data() + kChecksumOffset, &checksum, sizeof checksum);
  return image;
}

OracleSnapshot OracleSnapshot::from_bytes(std::string_view bytes) {
  PathTable paths;
  ImageInfo info;
  OracleSnapshot snap = from_bytes_into(bytes, paths, info);
  snap.paths = std::move(paths);
  return snap;
}

OracleSnapshot OracleSnapshot::from_bytes_into(std::string_view bytes,
                                               PathTable& paths,
                                               ImageInfo& info) {
  IRP_CHECK(bytes.size() >= kHeaderBytes,
            "oracle snapshot: image smaller than header");
  ByteReader header{bytes.substr(0, kHeaderBytes), std::string(kContext)};
  IRP_CHECK(header.u32() == kOracleSnapshotMagic,
            "oracle snapshot: bad magic (not an oracle snapshot)");
  const std::uint32_t version = header.u32();
  IRP_CHECK(version == kOracleSnapshotVersion,
            "oracle snapshot: unsupported version " + std::to_string(version));
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  IRP_CHECK(payload_size == bytes.size() - kHeaderBytes,
            "oracle snapshot: truncated image (payload size mismatch)");
  // One walk yields the payload checksum and the whole image's hash.
  const Fnv1a64Pair hashes = fnv1a64_pair(bytes, kHeaderBytes);
  IRP_CHECK(hashes.suffix == checksum,
            "oracle snapshot: checksum mismatch (corrupted image)");
  info.hash = hashes.whole;

  ByteReader r{bytes.substr(kHeaderBytes), std::string(kContext)};
  OracleSnapshot snap;
  snap.num_ases = r.u32();
  IRP_CHECK(snap.num_ases <= kOracleSnapshotMaxAses,
            "oracle snapshot: num_ases exceeds the loader limit");

  const std::uint32_t num_rel = r.count(9);
  snap.relationships.reserve(num_rel);
  for (std::uint32_t i = 0; i < num_rel; ++i) {
    RelationshipEntry e;
    e.a = r.u32();
    e.b = r.u32();
    e.rel = r.u8();
    IRP_CHECK(e.rel <= 2, "oracle snapshot: invalid relationship label");
    IRP_CHECK(e.a < e.b, "oracle snapshot: relationship pair is not a < b");
    snap.relationships.push_back(e);
  }

  const std::uint32_t num_groups = r.count(4);
  snap.sibling_groups.reserve(num_groups);
  for (std::uint32_t i = 0; i < num_groups; ++i)
    snap.sibling_groups.push_back(r.asns());

  const std::uint32_t num_hybrid = r.count(13);
  snap.hybrid_entries.reserve(num_hybrid);
  for (std::uint32_t i = 0; i < num_hybrid; ++i) {
    HybridRecord h;
    h.a = r.u32();
    h.b = r.u32();
    h.city = r.u32();
    h.rel = r.u8();
    IRP_CHECK(h.rel <= 3, "oracle snapshot: invalid hybrid relationship");
    snap.hybrid_entries.push_back(h);
  }
  const std::uint32_t num_partial = r.count(8);
  snap.partial_transit.reserve(num_partial);
  for (std::uint32_t i = 0; i < num_partial; ++i) {
    const Asn provider = r.u32();
    const Asn customer = r.u32();
    snap.partial_transit.emplace_back(provider, customer);
  }

  const std::uint32_t num_obs = r.count(9);
  snap.observations.reserve(num_obs);
  for (std::uint32_t i = 0; i < num_obs; ++i) {
    ObservationBlock block;
    block.prefix = read_canonical_prefix(r);
    const std::uint32_t num_pairs = r.count(8);
    block.pairs.reserve(num_pairs);
    for (std::uint32_t p = 0; p < num_pairs; ++p) {
      const Asn origin = r.u32();
      const Asn neighbor = r.u32();
      block.pairs.emplace_back(origin, neighbor);
    }
    snap.observations.push_back(std::move(block));
  }

  // The path section goes straight into `paths`; route ids below are
  // remapped through `remap` as they are read.
  const std::uint32_t num_nodes = r.count(16);
  std::vector<PathTable::FlatNode> nodes(num_nodes);
  for (PathTable::FlatNode& n : nodes) {
    n.head = r.u32();
    n.tail = r.u32();
    n.num_hops = r.u32();
    n.poison = r.u32();
  }
  const std::uint32_t num_poison = r.count(4);
  std::vector<std::vector<Asn>> poison_pool;
  poison_pool.reserve(num_poison);
  for (std::uint32_t i = 0; i < num_poison; ++i)
    poison_pool.push_back(r.asns());
  const std::vector<PathId> remap = paths.intern_flat(nodes, poison_pool);
  info.num_paths = num_nodes;

  const std::uint32_t num_prefixes = r.count(13);
  snap.routes.reserve(num_prefixes);
  std::unordered_set<Ipv4Prefix, Ipv4PrefixHash> seen_prefixes;
  seen_prefixes.reserve(num_prefixes);
  std::vector<AlternateRoute> alts;  // One entry's, reused.
  for (std::uint32_t i = 0; i < num_prefixes; ++i) {
    PrefixRoutes pr;
    pr.prefix = read_canonical_prefix(r);
    IRP_CHECK(seen_prefixes.insert(pr.prefix).second,
              "oracle snapshot: duplicate prefix route blocks");
    pr.origin = r.u32();
    const std::uint32_t num_entries = r.count(17);
    pr.entries.reserve(num_entries);
    for (std::uint32_t e = 0; e < num_entries; ++e) {
      RouteEntry entry;
      entry.asn = r.u32();
      const PathId selected = r.u32();
      IRP_CHECK(selected < remap.size(),
                "oracle snapshot: route references a missing path");
      entry.selected = remap[selected];
      entry.next_hop = r.u32();
      const std::uint8_t self_originated = r.u8();
      IRP_CHECK(self_originated <= 1,
                "oracle snapshot: self_originated flag is not 0 or 1");
      entry.self_originated = self_originated == 1;
      const std::uint32_t num_alt = r.count(8);
      alts.clear();
      for (std::uint32_t a = 0; a < num_alt; ++a) {
        AlternateRoute alt;
        const PathId path = r.u32();
        IRP_CHECK(path < remap.size(),
                  "oracle snapshot: alternate references a missing path");
        alt.path = remap[path];
        alt.from_asn = r.u32();
        alts.push_back(alt);
      }
      pr.add(entry, alts);
    }
    snap.routes.push_back(std::move(pr));
  }
  IRP_CHECK(r.remaining() == 0, "oracle snapshot: trailing bytes in payload");
  return snap;
}

void OracleSnapshot::save(const std::string& path) const {
  write_file(path, to_bytes());
}

OracleSnapshot OracleSnapshot::load(const std::string& path) {
  return from_bytes(read_file(path));
}

OracleSnapshot snapshot_study(const PassiveDataset& ds) {
  IRP_CHECK(ds.engine != nullptr,
            "snapshot_study requires the live measurement engine");
  const BgpEngine& engine = *ds.engine;
  const std::size_t num_ases = engine.topology().num_ases();

  OracleSnapshot snap;
  snap.num_ases = static_cast<std::uint32_t>(num_ases);

  // Aggregated relationships: links() iterates the ordered pair map, so the
  // dump is already deterministic and ascending.
  snap.relationships.reserve(ds.inferred.links().size());
  for (const auto& [pair, rel] : ds.inferred.links())
    snap.relationships.push_back(OracleSnapshot::RelationshipEntry{
        pair.first, pair.second, static_cast<std::uint8_t>(rel)});

  snap.sibling_groups = ds.siblings.groups();

  snap.hybrid_entries.reserve(ds.hybrid.entries().size());
  for (const HybridEntry& h : ds.hybrid.entries())
    snap.hybrid_entries.push_back(OracleSnapshot::HybridRecord{
        h.a, h.b, h.city, static_cast<std::uint8_t>(h.rel_of_b_from_a)});
  snap.partial_transit = ds.hybrid.partial_transit();

  for (const auto& [prefix, pairs] : ds.observations.export_sorted())
    snap.observations.push_back(OracleSnapshot::ObservationBlock{prefix, pairs});

  // Per-(AS, prefix) selected/alternate routes of the measurement engine,
  // imported id by id into the snapshot's own path table. One memo over the
  // engine's ids means each engine path node is walked once, and import()
  // creates nodes in the order interning the materialized paths would, so
  // the table (and the image) only holds paths some route uses.
  const PathTable& engine_paths = engine.paths();
  std::vector<PathId> memo;
  const std::vector<Ipv4Prefix> prefixes = engine.prefixes();
  snap.routes.reserve(prefixes.size());
  std::vector<OracleSnapshot::AlternateRoute> alts;  // One entry's, reused.
  for (const Ipv4Prefix& prefix : prefixes) {
    OracleSnapshot::PrefixRoutes pr;
    pr.prefix = prefix;
    // Count first (visit_routes is a pure read), so both arrays are
    // allocated once at their exact size: every RIB route but the selected
    // one is an alternate.
    std::size_t num_entries = 0, num_alternates = 0;
    engine.visit_routes(prefix, [&](Asn, const BgpEngine::Selected& sel,
                                    std::span<const BgpEngine::RibRoute> rib) {
      ++num_entries;
      num_alternates += static_cast<std::size_t>(
          std::count_if(rib.begin(), rib.end(), [&](const auto& route) {
            return route.via_link != sel.via_link;
          }));
    });
    pr.entries.reserve(num_entries);
    pr.alternates.reserve(num_alternates);
    engine.visit_routes(prefix, [&](Asn asn, const BgpEngine::Selected& sel,
                                    std::span<const BgpEngine::RibRoute> rib) {
      OracleSnapshot::RouteEntry entry;
      entry.asn = asn;
      entry.selected = snap.paths.import(engine_paths, sel.path_id, memo);
      entry.next_hop = sel.next_hop;
      entry.self_originated = sel.self_originated;
      if (sel.self_originated) pr.origin = asn;
      alts.clear();
      for (const BgpEngine::RibRoute& route : rib) {
        if (route.via_link == sel.via_link) continue;  // The selected route.
        alts.push_back(OracleSnapshot::AlternateRoute{
            snap.paths.import(engine_paths, route.path, memo),
            route.from_asn});
      }
      pr.add(entry, alts);
    });
    snap.routes.push_back(std::move(pr));
  }
  return snap;
}

}  // namespace irp
