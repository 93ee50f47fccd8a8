// Seeded mutation test of the oracle image loaders.
//
// A small, complete image is mutated a fixed number of times from a fixed
// seed: bit flips, truncation, inflated element counts, and node or route
// records spliced over one another. Most mutants get a fresh checksum so
// they reach the structural checks instead of stopping at the checksum.
// Every mutant goes through both loaders — OracleSnapshot::from_bytes and
// StudyCatalog::add_study_bytes into a catalog already holding a study —
// and the two must agree: either both reject it with the same CheckError
// message, and the catalog is left exactly as it was, or both accept it,
// and it re-encodes to itself byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "serve/byte_io.hpp"
#include "serve/oracle_snapshot.hpp"
#include "serve/study_catalog.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace irp {
namespace {

constexpr std::uint64_t kSeed = 20261019;
constexpr int kMutants = 400;
constexpr std::size_t kHeaderBytes = 24;

/// Every section populated: plain paths with a shared suffix, poisoned
/// roots carrying `poison` (so two images that differ in it share their
/// plain paths in an arena), alternates, and a self-originated entry per
/// prefix.
OracleSnapshot tiny_snapshot(Asn poison) {
  OracleSnapshot s;
  s.num_ases = 12;
  s.relationships = {{1, 2, 0}, {1, 3, 1}, {2, 4, 2}, {3, 4, 0}};
  s.sibling_groups = {{5, 6}};
  s.hybrid_entries = {{1, 2, 3, 1}};
  s.partial_transit = {{2, 4}};
  const Ipv4Prefix p1{Ipv4Addr{0x0A010000u}, 16};
  const Ipv4Prefix p2{Ipv4Addr{0x0B000000u}, 8};
  s.observations = {{p1, {{4, 2}, {4, 3}}}, {p2, {{1, 3}}}};

  PathTable& t = s.paths;
  const PathId via2 = t.intern(AsPath{{2, 4}, {}});
  const PathId via3 = t.intern(AsPath{{3, 4}, {}});
  const PathId direct = t.intern(AsPath{{4}, {}});
  const PathId origin1 = t.intern(AsPath{{}, {poison}});
  const PathId one = t.intern(AsPath{{1}, {poison}});
  const PathId three_one = t.intern(AsPath{{3, 1}, {poison}});
  const PathId two_one = t.intern(AsPath{{2, 1}, {poison, 10}});

  const auto entry = [](Asn asn, PathId selected, Asn next_hop,
                         bool self_originated) {
    OracleSnapshot::RouteEntry e;
    e.asn = asn;
    e.selected = selected;
    e.next_hop = next_hop;
    e.self_originated = self_originated;
    return e;
  };
  using Alt = OracleSnapshot::AlternateRoute;
  OracleSnapshot::PrefixRoutes r1{p1, 4, {}, {}};
  r1.add(entry(1, via2, 2, false), std::vector<Alt>{{via3, 3}});
  r1.add(entry(2, direct, 4, false), {});
  r1.add(entry(3, direct, 4, false), std::vector<Alt>{{via2, 2}});
  r1.add(entry(4, kEmptyPathId, 0, true), {});
  OracleSnapshot::PrefixRoutes r2{p2, 1, {}, {}};
  r2.add(entry(1, origin1, 0, true), {});
  r2.add(entry(3, one, 1, false), std::vector<Alt>{{two_one, 2}});
  r2.add(entry(4, three_one, 3, false), {});
  s.routes = {r1, r2};
  return s;
}

std::uint32_t u32_at(const std::string& image, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, image.data() + at, sizeof v);
  return v;
}

void put_u32(std::string& image, std::size_t at, std::uint32_t v) {
  std::memcpy(image.data() + at, &v, sizeof v);
}

/// Where the mutations aim, found by walking the documented image layout.
struct Layout {
  std::vector<std::size_t> counts;   ///< Every u32 element count.
  std::vector<std::size_t> nodes;    ///< Each 16-byte path node record.
  std::vector<std::size_t> entries;  ///< Each route entry's 13-byte head.
};

Layout layout_of(const std::string& image) {
  Layout l;
  std::size_t at = kHeaderBytes + 4;  // num_ases.
  const auto count = [&] {
    l.counts.push_back(at);
    at += 4;
    return u32_at(image, at - 4);
  };
  at += 9 * std::size_t{count()};  // Relationships.
  for (std::uint32_t n = count(), i = 0; i < n; ++i)
    at += 4 * std::size_t{count()};  // Sibling groups.
  at += 13 * std::size_t{count()};  // Hybrid records.
  at += 8 * std::size_t{count()};   // Partial transit.
  for (std::uint32_t n = count(), i = 0; i < n; ++i) {
    at += 5;  // Observation prefix.
    at += 8 * std::size_t{count()};
  }
  for (std::uint32_t n = count(), i = 0; i < n; ++i) {
    l.nodes.push_back(at);
    at += 16;
  }
  for (std::uint32_t n = count(), i = 0; i < n; ++i)
    at += 4 * std::size_t{count()};  // Poison pool.
  for (std::uint32_t n = count(), i = 0; i < n; ++i) {
    at += 9;  // Prefix and origin.
    for (std::uint32_t e = count(), j = 0; j < e; ++j) {
      l.entries.push_back(at);
      at += 13;
      at += 8 * std::size_t{count()};  // Alternates.
    }
  }
  EXPECT_EQ(at, image.size()) << "layout walk disagrees with the image";
  return l;
}

std::string mutate(const std::string& image, const Layout& l, Rng& rng) {
  std::string x = image;
  switch (rng.index(5)) {
    case 0:  // One to three bit flips anywhere, header included.
      for (std::size_t k = 0, n = 1 + rng.index(3); k < n; ++k)
        x[rng.index(x.size())] ^= static_cast<char>(1u << rng.index(8));
      break;
    case 1:  // Truncation, with the header's payload size kept consistent.
      x.resize(rng.index(x.size()));
      if (x.size() >= kHeaderBytes) {
        const std::uint64_t payload = x.size() - kHeaderBytes;
        std::memcpy(x.data() + 8, &payload, sizeof payload);
      }
      break;
    case 2: {  // An element count pushed up a little or to the limit.
      const std::size_t at = l.counts[rng.index(l.counts.size())];
      put_u32(x, at,
              rng.chance(0.5)
                  ? u32_at(x, at) + 1 + std::uint32_t(rng.index(3))
                  : 0xFFFFFFFFu - std::uint32_t(rng.index(16)));
      break;
    }
    case 3: {  // One path node record copied over another.
      const std::size_t from = l.nodes[rng.index(l.nodes.size())];
      const std::size_t to = l.nodes[rng.index(l.nodes.size())];
      std::memmove(x.data() + to, image.data() + from, 16);
      break;
    }
    default: {  // One route entry's head (asn, path, next hop, flag) copied.
      const std::size_t from = l.entries[rng.index(l.entries.size())];
      const std::size_t to = l.entries[rng.index(l.entries.size())];
      std::memmove(x.data() + to, image.data() + from, 13);
      break;
    }
  }
  if (x.size() >= kHeaderBytes && rng.chance(0.85)) {
    const std::uint64_t checksum =
        fnv1a64(std::string_view(x).substr(kHeaderBytes));
    std::memcpy(x.data() + 16, &checksum, sizeof checksum);
  }
  return x;
}

/// The CheckError message of `fn()`, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// The arena's nodes and pool, for before/after comparison.
std::vector<std::tuple<Asn, PathId, std::uint32_t, std::uint32_t>> dump(
    const PathTable& t) {
  std::vector<std::tuple<Asn, PathId, std::uint32_t, std::uint32_t>> out;
  for (PathId id = 0; id < t.num_paths(); ++id) {
    const PathTable::FlatNode n = t.flat_node(id);
    out.emplace_back(n.head, n.tail, n.num_hops, n.poison);
  }
  for (std::size_t i = 0; i < t.num_poison_sets(); ++i)
    for (const Asn asn : t.poison_set_at(i)) out.emplace_back(asn, 0, 0, i);
  return out;
}

TEST(LoaderMutation, BothLoadersAgreeOnEveryMutant) {
  const std::string resident = tiny_snapshot(9).to_bytes();
  const std::string probe = tiny_snapshot(8).to_bytes();
  const Layout layout = layout_of(probe);
  ASSERT_EQ(OracleSnapshot::from_bytes(probe).to_bytes(), probe);

  // The catalog every rejected mutant must leave behind, and the one a
  // good probe then builds.
  StudyCatalog only_resident;
  only_resident.add_study_bytes("resident", resident);
  const auto resident_arena = dump(only_resident.paths());
  StudyCatalog with_probe;
  with_probe.add_study_bytes("resident", resident);
  with_probe.add_study_bytes("probe", probe);
  // The probe shares its plain paths with the resident and brings new
  // poisoned ones, so a rejected probe has something to roll back.
  ASSERT_GT(with_probe.arena_stats().sharing(), 0.0);
  ASSERT_GT(with_probe.paths().num_paths(), only_resident.paths().num_paths());

  Rng rng{kSeed};
  int loaded = 0;
  std::map<std::string, int> rejections;
  for (int i = 0; i < kMutants; ++i) {
    const std::string x = mutate(probe, layout, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));

    std::string reencoded;
    const std::string standalone = error_of(
        [&] { reencoded = OracleSnapshot::from_bytes(x).to_bytes(); });
    StudyCatalog catalog;
    catalog.add_study_bytes("resident", resident);
    std::string id;
    const std::string in_catalog =
        error_of([&] { id = catalog.add_study_bytes("probe", x).id; });
    ASSERT_EQ(standalone, in_catalog);

    if (standalone.empty()) {
      ++loaded;
      ASSERT_TRUE(reencoded == x) << "a loaded mutant re-encodes differently";
      ASSERT_EQ(catalog.size(), 2u);
      ASSERT_EQ(id, catalog.find("probe")->id);
      continue;
    }
    ++rejections[standalone.substr(standalone.find(" — ") + 5)];
    ASSERT_EQ(catalog.size(), 1u);
    ASSERT_EQ(catalog.find("probe"), nullptr);
    ASSERT_TRUE(dump(catalog.paths()) == resident_arena)
        << "rejected mutant changed the arena: " << standalone;
    // The good probe then loads exactly as into a catalog that never saw
    // the mutant.
    catalog.add_study_bytes("probe", probe);
    ASSERT_TRUE(dump(catalog.paths()) == dump(with_probe.paths()));
    ASSERT_EQ(catalog.find("probe")->id, with_probe.find("probe")->id);
  }

  // The mutants reach deep: most are rejected, by many different checks,
  // and some (a flip in an ASN, say) are valid images that load.
  int rejected = 0;
  std::string seen;
  for (const auto& [message, n] : rejections) {
    rejected += n;
    seen += "\n  " + std::to_string(n) + "  " + message;
  }
  EXPECT_EQ(loaded + rejected, kMutants);
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GE(rejections.size(), 12u) << "messages seen:" << seen;
}

}  // namespace
}  // namespace irp
