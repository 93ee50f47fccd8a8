// Oracle snapshot tests: freeze a real passive study, prove the binary
// image round-trips byte-exactly, answers identically to a live-study
// oracle across the full scenario ladder, matches the image of the older
// path-materializing builder byte for byte, and rejects corrupted,
// truncated, or non-canonical images with a typed error instead of
// undefined behavior.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "core/classify.hpp"
#include "serve/byte_io.hpp"
#include "serve/oracle_service.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

struct StudyFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  OracleSnapshot snapshot;
  std::string bytes;
};

const StudyFixture& study() {
  static const StudyFixture fx = [] {
    StudyFixture f;
    f.net = generate_internet(test::small_generator_config());
    f.passive = run_passive_study(*f.net, test::small_passive_config());
    f.snapshot = snapshot_study(f.passive);
    f.bytes = f.snapshot.to_bytes();
    return f;
  }();
  return fx;
}

TEST(OracleSnapshot, CapturesTheStudy) {
  const StudyFixture& f = study();
  EXPECT_EQ(f.snapshot.num_ases, f.net->topology.num_ases());
  EXPECT_EQ(f.snapshot.relationships.size(), f.passive.inferred.num_links());
  EXPECT_GT(f.snapshot.routes.size(), 0u);
  EXPECT_GT(f.snapshot.num_route_entries(), 0u);
  EXPECT_GT(f.snapshot.paths.num_paths(), 1u);
}

TEST(OracleSnapshot, BinaryRoundTripIsByteExact) {
  const StudyFixture& f = study();
  const OracleSnapshot loaded = OracleSnapshot::from_bytes(f.bytes);
  // Re-serializing the loaded snapshot must reproduce the image bit for
  // bit — this covers every field of every section at once.
  EXPECT_EQ(loaded.to_bytes(), f.bytes);
}

TEST(OracleSnapshot, FileRoundTrip) {
  const StudyFixture& f = study();
  const std::string path =
      (std::filesystem::temp_directory_path() / "irp_oracle_snapshot.bin")
          .string();
  f.snapshot.save(path);
  const OracleSnapshot loaded = OracleSnapshot::load(path);
  EXPECT_EQ(loaded.to_bytes(), f.bytes);
  std::filesystem::remove(path);
}

TEST(OracleSnapshot, ClassifiesIdenticallyToLiveStudy) {
  const StudyFixture& f = study();
  StudyCatalog catalog;
  catalog.add_study("study", OracleSnapshot::from_bytes(f.bytes));
  OracleService service(&catalog, OracleService::Config{0, 1});

  const PassiveDataset& ds = f.passive;
  const DecisionClassifier live(&ds.inferred, f.net->topology.num_ases(),
                                &ds.hybrid, &ds.siblings, &ds.observations);
  std::size_t checked = 0;
  for (const NamedScenario& scenario : figure1_scenarios()) {
    for (const RouteDecision& d : ds.decisions) {
      const DecisionCategory expected = live.classify(d, scenario.options);
      ClassifyRequest req;
      req.decision = d;
      req.scenario = scenario.options;
      const OracleResponse resp = service.answer(OracleRequest{req}, "");
      ASSERT_EQ(std::get<ClassifyResponse>(resp).category, expected)
          << scenario.name << " decision " << checked;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // The second pass through identical keys must have produced cache hits
  // without changing a single answer (asserted above).
  EXPECT_GT(catalog.default_study()->index->cache_stats().hits, 0u);
}

TEST(OracleSnapshot, RoutesMatchTheLiveEngine) {
  const StudyFixture& f = study();
  const OracleSnapshot loaded = OracleSnapshot::from_bytes(f.bytes);
  const OracleIndex index(&loaded, loaded.paths);
  const BgpEngine& engine = *f.passive.engine;

  std::size_t route_entries = 0;
  for (const Ipv4Prefix& prefix : engine.prefixes()) {
    for (Asn asn = 1; asn <= static_cast<Asn>(f.net->topology.num_ases());
         ++asn) {
      const BgpEngine::Selected* live = engine.best(asn, prefix);
      const OracleSnapshot::PrefixRoutes* block = index.prefix_routes(prefix);
      const OracleSnapshot::RouteEntry* frozen =
          block == nullptr ? nullptr : block->find(asn);
      ASSERT_EQ(live != nullptr, frozen != nullptr)
          << "AS " << asn << " " << prefix.to_string();
      if (live == nullptr) continue;
      ++route_entries;
      EXPECT_EQ(index.paths().materialize(frozen->selected),
                engine.paths().materialize(live->path_id));
      EXPECT_EQ(frozen->next_hop, live->next_hop);
      EXPECT_EQ(frozen->self_originated, live->self_originated);
      // Alternates: everything in the RIB except the selected route, with
      // paths preserved value-exactly through the re-interned table.
      const std::vector<Route> rib = engine.routes_at(asn, prefix);
      std::size_t expected_alternates = 0;
      for (const Route& route : rib)
        if (route.via_link != live->via_link) ++expected_alternates;
      const auto alternates = block->alternates_of(*frozen);
      ASSERT_EQ(alternates.size(), expected_alternates);
      std::size_t alt = 0;
      for (const Route& route : rib) {
        if (route.via_link == live->via_link) continue;
        EXPECT_EQ(index.paths().materialize(alternates[alt].path), route.path);
        EXPECT_EQ(alternates[alt].from_asn, route.from_asn);
        ++alt;
      }
    }
  }
  EXPECT_EQ(route_entries, loaded.num_route_entries());
}

/// Reference builder for the route sections: copies every selected and
/// alternate path out of the engine as a value and interns it back into a
/// fresh table. snapshot_study must produce the same bytes without
/// materializing; the non-route sections are taken from it as they are.
OracleSnapshot materializing_snapshot(const PassiveDataset& ds) {
  OracleSnapshot snap = snapshot_study(ds);
  snap.paths = PathTable{};
  snap.routes.clear();
  const BgpEngine& engine = *ds.engine;
  for (const Ipv4Prefix& prefix : engine.prefixes()) {
    OracleSnapshot::PrefixRoutes pr;
    pr.prefix = prefix;
    for (Asn asn = 1; asn <= static_cast<Asn>(snap.num_ases); ++asn) {
      const BgpEngine::Selected* sel = engine.best(asn, prefix);
      if (sel == nullptr) continue;
      OracleSnapshot::RouteEntry entry;
      entry.asn = asn;
      entry.selected =
          snap.paths.intern(engine.paths().materialize(sel->path_id));
      entry.next_hop = sel->next_hop;
      entry.self_originated = sel->self_originated;
      if (sel->self_originated) pr.origin = asn;
      std::vector<OracleSnapshot::AlternateRoute> alternates;
      for (const Route& route : engine.routes_at(asn, prefix)) {
        if (route.via_link == sel->via_link) continue;
        alternates.push_back(OracleSnapshot::AlternateRoute{
            snap.paths.intern(route.path), route.from_asn});
      }
      pr.add(entry, alternates);
    }
    snap.routes.push_back(std::move(pr));
  }
  return snap;
}

TEST(OracleSnapshot, ImageMatchesTheMaterializingBuilder) {
  const StudyFixture& f = study();
  const std::string reference = materializing_snapshot(f.passive).to_bytes();
  ASSERT_EQ(reference.size(), f.bytes.size());
  EXPECT_TRUE(reference == f.bytes) << "snapshot image bytes changed";
}

// -- Canonical loading: an image that loads must re-encode to itself, so
// the loader rejects field values to_bytes() can never write.

/// A hand-built snapshot whose prefixes and route flag are easy to locate.
OracleSnapshot tiny_snapshot() {
  OracleSnapshot snap;
  snap.num_ases = 100;
  snap.observations.push_back(OracleSnapshot::ObservationBlock{
      Ipv4Prefix{Ipv4Addr{0x0A141E00u}, 24}, {{77, 78}}});
  OracleSnapshot::PrefixRoutes pr;
  pr.prefix = Ipv4Prefix{Ipv4Addr{0x0B000000u}, 8};
  pr.origin = 77;
  OracleSnapshot::RouteEntry entry;
  entry.asn = 77;
  entry.self_originated = true;
  pr.add(entry, {});
  snap.routes.push_back(pr);
  return snap;
}

std::string tiny_image() { return tiny_snapshot().to_bytes(); }

std::string le32(std::uint32_t v) {
  std::string out(4, '\0');
  std::memcpy(out.data(), &v, 4);
  return out;
}

/// Offset of the one occurrence of `pattern` in `image`.
std::size_t locate(const std::string& image, const std::string& pattern) {
  const std::size_t at = image.find(pattern);
  if (at == std::string::npos) {
    ADD_FAILURE() << "pattern not in image";
    return 0;
  }
  EXPECT_EQ(image.find(pattern, at + 1), std::string::npos);
  return at;
}

/// Recomputes the header checksum after a payload edit, so the field check
/// (not the checksum) has to catch the mutation.
std::string resealed(std::string image) {
  const std::uint64_t checksum = fnv1a64(std::string_view(image).substr(24));
  std::memcpy(image.data() + 16, &checksum, sizeof checksum);
  return image;
}

void expect_rejected(const std::string& image, const std::string& what) {
  try {
    (void)OracleSnapshot::from_bytes(image);
    FAIL() << "expected CheckError mentioning '" << what << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(OracleSnapshot, TinyImageRoundTrips) {
  const std::string image = tiny_image();
  EXPECT_EQ(resealed(image), image);
  EXPECT_EQ(OracleSnapshot::from_bytes(image).to_bytes(), image);
}

TEST(OracleSnapshot, RejectsNonBooleanSelfOriginatedFlag) {
  const std::string image = tiny_image();
  // asn 77 | selected 0 | next_hop 0 | self_originated 1
  const std::size_t flag =
      locate(image, le32(77) + le32(0) + le32(0) + '\x01') + 12;
  for (const char bad : {'\x02', '\xFF'}) {
    std::string mutated = image;
    mutated[flag] = bad;
    expect_rejected(resealed(mutated), "self_originated");
  }
  std::string cleared = image;
  cleared[flag] = '\0';
  EXPECT_EQ(OracleSnapshot::from_bytes(resealed(cleared)).to_bytes(),
            resealed(cleared));
}

TEST(OracleSnapshot, RejectsPrefixesWithHostBitsSet) {
  const std::string image = tiny_image();
  // 10.20.30.0/24 in the observation section; 11.0.0.0/8 in the routes.
  for (const std::string& prefix :
       {le32(0x0A141E00u) + '\x18', le32(0x0B000000u) + '\x08'}) {
    std::string mutated = image;
    mutated[locate(image, prefix)] = '\x01';  // Lowest network byte.
    expect_rejected(resealed(mutated), "host bits");
  }
}

TEST(OracleSnapshot, RejectsImagesNoIndexCouldServe) {
  // The writer orients every relationship a < b and writes one route block
  // per prefix; the index cannot be built over anything else, so the loader
  // turns it away first, with the same error for every caller.
  for (const auto& [a, b] : {std::pair<Asn, Asn>{5, 5}, {6, 5}}) {
    OracleSnapshot snap = tiny_snapshot();
    snap.relationships.push_back(OracleSnapshot::RelationshipEntry{a, b, 0});
    expect_rejected(snap.to_bytes(), "relationship pair is not a < b");
  }
  OracleSnapshot twice = tiny_snapshot();
  twice.routes.push_back(twice.routes.front());
  expect_rejected(twice.to_bytes(), "duplicate prefix route blocks");

  // A num_ases past the limit would size per-AS arrays from a corrupted
  // field; the limit itself still loads.
  OracleSnapshot huge = tiny_snapshot();
  huge.num_ases = kOracleSnapshotMaxAses + 1;
  expect_rejected(huge.to_bytes(), "num_ases exceeds the loader limit");
  huge.num_ases = kOracleSnapshotMaxAses;
  EXPECT_EQ(OracleSnapshot::from_bytes(huge.to_bytes()).num_ases,
            kOracleSnapshotMaxAses);
}

TEST(OracleSnapshot, RejectsBadMagic) {
  std::string bytes = study().bytes;
  bytes[0] ^= 0x5A;
  try {
    (void)OracleSnapshot::from_bytes(bytes);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(OracleSnapshot, RejectsUnsupportedVersion) {
  std::string bytes = study().bytes;
  bytes[4] = 0x7F;  // Version field, little-endian low byte.
  try {
    (void)OracleSnapshot::from_bytes(bytes);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(OracleSnapshot, RejectsTruncatedImages) {
  const std::string& bytes = study().bytes;
  // Shorter than the header.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes.substr(0, 10)),
               CheckError);
  // Header intact, payload cut off.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes.substr(0, 64)),
               CheckError);
  EXPECT_THROW(
      (void)OracleSnapshot::from_bytes(bytes.substr(0, bytes.size() - 1)),
      CheckError);
  // Trailing garbage (size mismatch) is also rejected.
  EXPECT_THROW((void)OracleSnapshot::from_bytes(bytes + "x"), CheckError);
}

TEST(OracleSnapshot, RejectsCorruptedPayloadViaChecksum) {
  for (const std::size_t victim :
       {std::size_t{24}, study().bytes.size() / 2, study().bytes.size() - 2}) {
    std::string bytes = study().bytes;
    bytes[victim] ^= 0x01;
    try {
      (void)OracleSnapshot::from_bytes(bytes);
      FAIL() << "expected CheckError for flip at " << victim;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(OracleSnapshot, LoadOfMissingFileFails) {
  EXPECT_THROW((void)OracleSnapshot::load("/nonexistent/irp-oracle.bin"),
               CheckError);
}

}  // namespace
}  // namespace irp
