// StudyCatalog tests: N snapshots behind one endpoint must be
// indistinguishable from N one-study catalogs.
//
// The headline guarantee is byte identity for N=3: every query answered by
// the three-study service — locally and over the wire with the version-2
// study flag — renders to exactly the text a service over a one-study
// catalog of the same study produces. On top of that:
// pre-multi-study (version 1) clients keep working against the default
// study; unknown study ids reject with the typed error at every layer
// (answer/submit/wire); the shared classify-cache budget is enforced and
// rebalances toward hot studies; the shared path arena deduplicates
// identical studies; and the whole stack is exercised under concurrent
// multi-study load (the TSan target for this subsystem). ClassifyCache
// with a quota of N holds exactly the N most recently used keys, so a study
// never holds more entries than its quota.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "oracle_fixture.hpp"
#include "serve/byte_io.hpp"
#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "util/file.hpp"

namespace irp {
namespace {

constexpr std::uint64_t kSeeds[3] = {42, 43, 44};
constexpr const char* kNames[3] = {"epoch-a", "epoch-b", "epoch-c"};

using test::OracleFixture;

// Cap each stream so the three-fixture tests stay fast; coverage across
// query types is preserved by the stream's interleaving.
constexpr std::size_t kMaxQueries = 400;

/// Three studies from three seeds, built once per binary.
const std::array<OracleFixture, 3>& fixtures() {
  static const std::array<OracleFixture, 3> fx = {
      test::make_oracle_fixture(kSeeds[0], kMaxQueries),
      test::make_oracle_fixture(kSeeds[1], kMaxQueries),
      test::make_oracle_fixture(kSeeds[2], kMaxQueries)};
  return fx;
}

/// Fresh catalog over the three fixtures, loaded through add_study (which
/// encodes each snapshot and loads the image bytes).
std::unique_ptr<StudyCatalog> make_catalog(StudyCatalogConfig config = {}) {
  auto catalog = std::make_unique<StudyCatalog>(config);
  for (int s = 0; s < 3; ++s)
    catalog->add_study(kNames[s], snapshot_study(fixtures()[s].passive));
  return catalog;
}

// -- Raw-socket helpers for the version-1 compatibility test.

using test::connect_loopback;
using test::send_bytes;

std::optional<WireFrame> read_one_frame(int fd, int timeout_ms = 5000) {
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (auto frame = try_decode_frame(buffer)) return frame;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::nullopt;
    buffer.append(buf, static_cast<std::size_t>(n));
  }
}

// -- Catalog structure and lookup.

/// The id a study loaded from `image` under `name` must carry:
/// "<name>@<16 hex digits of fnv1a64 over the image bytes>".
std::string expected_id(const std::string& name, const std::string& image) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a64(image)));
  return name + "@" + hex;
}

TEST(StudyCatalog, IdentityAndLookup) {
  auto catalog = make_catalog();
  ASSERT_EQ(catalog->size(), 3u);

  for (int s = 0; s < 3; ++s) {
    const StudyCatalog::Study* study = catalog->find(kNames[s]);
    ASSERT_NE(study, nullptr);
    EXPECT_EQ(study->name, kNames[s]);
    EXPECT_EQ(study->ordinal, static_cast<std::uint32_t>(s));
    // add_study(snapshot) names the study after its image bytes.
    const std::string image = snapshot_study(fixtures()[s].passive).to_bytes();
    EXPECT_EQ(study->id, expected_id(kNames[s], image));
    EXPECT_EQ(study->image_bytes, image.size());
    // The full id resolves to the same study.
    EXPECT_EQ(catalog->find(study->id), study);
  }
  // "" is the default (first-loaded) study.
  EXPECT_EQ(catalog->find(""), catalog->default_study());
  EXPECT_EQ(catalog->default_study()->name, kNames[0]);
  EXPECT_EQ(catalog->find("no-such-study"), nullptr);
  // A stale full id (right name, wrong checksum) does not resolve.
  EXPECT_EQ(catalog->find(std::string(kNames[0]) + "@0000000000000000"),
            nullptr);
}

TEST(StudyCatalog, EveryLoadNamesTheStudyAfterItsImageBytes) {
  const OracleSnapshot snapshot = snapshot_study(fixtures()[1].passive);
  const std::string image = snapshot.to_bytes();
  const std::string want = expected_id("epoch-b", image);
  const std::string path =
      (std::filesystem::temp_directory_path() / "irp_catalog_id.bin")
          .string();
  write_file(path, image);

  StudyCatalog by_snapshot;
  StudyCatalog by_bytes;
  StudyCatalog by_file;
  for (const StudyCatalog::Study* study :
       {&by_snapshot.add_study("epoch-b", snapshot),
        &by_bytes.add_study_bytes("epoch-b", image),
        &by_file.add_study_file("epoch-b", path)}) {
    EXPECT_EQ(study->id, want);
    EXPECT_EQ(study->image_bytes, image.size());
    EXPECT_EQ(study->own_paths, snapshot.paths.num_paths());
    // The study's ids index the arena; it keeps no table of its own.
    EXPECT_EQ(study->snapshot.paths.num_paths(), 1u);
  }
  std::filesystem::remove(path);
}

TEST(StudyCatalog, RejectsBadAndDuplicateNames) {
  StudyCatalog catalog;
  catalog.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  EXPECT_THROW(
      catalog.add_study("epoch-a", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_THROW(catalog.add_study("", snapshot_study(fixtures()[1].passive)),
               CheckError);
  EXPECT_THROW(
      catalog.add_study("a=b", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_THROW(
      catalog.add_study("a@b", snapshot_study(fixtures()[1].passive)),
      CheckError);
  EXPECT_EQ(catalog.size(), 1u);
}

// -- Byte identity: the catalog answers exactly like N one-study catalogs.

TEST(StudyCatalog, ThreeStudyServiceMatchesSingleStudyServicesLocally) {
  auto catalog = make_catalog();
  OracleService multi(catalog.get(), OracleService::Config{0, 4096});

  for (int s = 0; s < 3; ++s) {
    const OracleFixture& f = fixtures()[s];
    OracleService single(f.catalog.get(), OracleService::Config{0, 1});
    for (const OracleRequest& request : f.queries)
      EXPECT_EQ(to_text(multi.answer(request, kNames[s])),
                to_text(single.answer(request, "")))
          << "study " << kNames[s];
  }

  // Per-study accounting: the queued path (answer() is a synchronous
  // bypass and deliberately does not count as "served") routes each
  // submission to the right study slot.
  std::vector<std::future<OracleResponse>> responses;
  std::array<std::size_t, 3> submitted{};
  for (int s = 0; s < 3; ++s) {
    const OracleFixture& f = fixtures()[s];
    for (std::size_t i = 0; i < f.queries.size(); i += 10) {
      OracleService::Submitted sub = multi.submit(f.queries[i], kNames[s]);
      ASSERT_TRUE(sub.accepted);
      responses.push_back(std::move(sub.response));
      ++submitted[s];
    }
  }
  const std::size_t total = submitted[0] + submitted[1] + submitted[2];
  EXPECT_EQ(multi.drain(), total);
  for (auto& response : responses) (void)response.get();

  const OracleStatsView stats = multi.stats();
  EXPECT_EQ(stats.served, total);
  ASSERT_EQ(stats.per_study.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(stats.per_study[s].name, kNames[s]);
    EXPECT_EQ(stats.per_study[s].requests.served, submitted[s]);
  }
}

TEST(StudyCatalog, ThreeStudyServerMatchesSingleStudyServersOverWire) {
  auto catalog = make_catalog();
  OracleService multi_service(catalog.get(), OracleService::Config{2, 1024});
  OracleServer multi_server(&multi_service);
  multi_server.start();

  for (int s = 0; s < 3; ++s) {
    const OracleFixture& f = fixtures()[s];
    // The one-study ground truth, served by its own process-local stack.
    OracleService single(f.catalog.get(), OracleService::Config{2, 1024});
    OracleServer single_server(&single);
    single_server.start();

    OracleClient::Config to_multi;
    to_multi.port = multi_server.port();
    to_multi.study = kNames[s];  // Version-2 frames with the study flag.
    OracleClient multi_client(to_multi);

    OracleClient::Config to_single;
    to_single.port = single_server.port();
    OracleClient single_client(to_single);

    for (const OracleRequest& request : f.queries)
      EXPECT_EQ(to_text(multi_client.call(request)),
                to_text(single_client.call(request)))
          << "study " << kNames[s];

    single_server.shutdown();
    single.shutdown();
  }

  EXPECT_EQ(multi_server.stats().requests_unknown_study, 0u);
  multi_server.shutdown();
  multi_service.shutdown();
}

TEST(StudyCatalog, Version1ClientGetsTheDefaultStudy) {
  auto catalog = make_catalog();
  OracleService service(catalog.get(), OracleService::Config{2, 1024});
  OracleServer server(&service);
  server.start();

  // encode_request without a study emits exactly the version-1 bytes
  // (pinned by test_wire's golden test), so this raw socket IS a pre-bump
  // client. It must be answered from the default study.
  const OracleFixture& def = fixtures()[0];
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < def.queries.size(); i += 17) {
    send_bytes(fd, encode_request(id, def.queries[i]));
    const auto frame = read_one_frame(fd);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->request_id, id);
    const auto reply = decode_reply(*frame);
    ASSERT_TRUE(std::holds_alternative<OracleResponse>(reply));
    EXPECT_EQ(to_text(std::get<OracleResponse>(reply)),
              to_text(service.answer(def.queries[i], "")));
    ++id;
  }
  ::close(fd);

  server.shutdown();
  service.shutdown();
}

// -- Unknown studies reject with the typed error at every layer.

TEST(StudyCatalog, UnknownStudyRejectsAtEveryLayer) {
  auto catalog = make_catalog();
  OracleService service(catalog.get(), OracleService::Config{1, 64});
  const OracleRequest request{RelationshipLookupRequest{1, 2}};

  // answer(): the typed exception carries the offending id.
  try {
    (void)service.answer(request, "nope");
    FAIL() << "answer against an unknown study succeeded";
  } catch (const UnknownStudyError& e) {
    EXPECT_EQ(e.study(), "nope");
  }

  // submit(): a typed rejection, not an overload.
  OracleService::Submitted sub = service.submit(request, "nope");
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.reject, OracleService::Reject::kUnknownStudy);
  EXPECT_EQ(service.stats().unknown_study, 2u);

  // Known studies are untouched by the failures above.
  EXPECT_TRUE(service.submit(request, kNames[1]).accepted);

  // Wire: the client surfaces kUnknownStudy without retrying.
  OracleServer server(&service);
  server.start();
  OracleClient::Config cc;
  cc.port = server.port();
  cc.study = "nope";
  OracleClient client(cc);
  try {
    (void)client.call(request);
    FAIL() << "call against an unknown study succeeded";
  } catch (const OracleServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kUnknownStudy);
  }
  EXPECT_EQ(server.stats().requests_unknown_study, 1u);

  server.shutdown();
  service.shutdown();
}

// -- Shared classify-cache budget.

TEST(StudyCatalog, CacheBudgetIsSharedAndEnforced) {
  StudyCatalogConfig config;
  config.total_cache_capacity = 240;
  auto catalog = make_catalog(config);

  // On load every study gets an even split of the budget.
  StudyCatalog::CacheBudgetView budget = catalog->cache_budget();
  EXPECT_EQ(catalog->total_cache_capacity(), 240u);
  ASSERT_EQ(budget.per_study.size(), 3u);
  std::size_t total_quota = 0;
  for (const auto& per : budget.per_study) {
    EXPECT_EQ(per.stats.capacity, 80u);
    total_quota += per.stats.capacity;
  }
  EXPECT_LE(total_quota, config.total_cache_capacity);

  // Make epoch-a hot: run its classify stream twice so it accrues hits,
  // while the others stay cold.
  OracleService service(catalog.get(), OracleService::Config{0, 1});
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : fixtures()[0].queries)
      if (std::holds_alternative<ClassifyRequest>(request))
        (void)service.answer(request, kNames[0]);

  // Enforcement: no study's cache exceeds its quota even though the hot
  // stream has far more distinct keys than the quota.
  budget = catalog->cache_budget();
  for (const auto& per : budget.per_study)
    EXPECT_LE(per.stats.entries, per.stats.capacity) << per.name;
  EXPECT_GT(budget.per_study[0].stats.hits, 0u);

  // Rebalancing moves budget toward the hot study, keeps every study at or
  // above the floor, and never exceeds the total.
  catalog->rebalance_cache();
  budget = catalog->cache_budget();
  total_quota = 0;
  for (const auto& per : budget.per_study) {
    EXPECT_GE(per.stats.capacity, StudyCatalog::kMinStudyCacheQuota)
        << per.name;
    total_quota += per.stats.capacity;
  }
  EXPECT_LE(total_quota, config.total_cache_capacity);
  EXPECT_GT(budget.per_study[0].stats.capacity,
            budget.per_study[1].stats.capacity);
  EXPECT_GT(budget.per_study[0].stats.capacity,
            budget.per_study[2].stats.capacity);
}

TEST(StudyCatalog, SmallBudgetHoldsEveryStudyToItsQuota) {
  // Two studies on a 10-entry budget get quotas of 5; neither may hold more
  // than its 5 entries however many keys it sees.
  StudyCatalogConfig config;
  config.total_cache_capacity = 10;
  StudyCatalog catalog(config);
  catalog.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  catalog.add_study("epoch-b", snapshot_study(fixtures()[1].passive));
  OracleService service(&catalog, OracleService::Config{0, 1});
  for (int s = 0; s < 2; ++s)
    for (const OracleRequest& request : fixtures()[s].queries)
      (void)service.answer(request, kNames[s]);

  std::size_t entries = 0;
  for (const auto& per : catalog.cache_budget().per_study) {
    EXPECT_EQ(per.stats.capacity, 5u) << per.name;
    EXPECT_LE(per.stats.entries, per.stats.capacity) << per.name;
    entries += per.stats.entries;
  }
  EXPECT_LE(entries, config.total_cache_capacity);
}

ClassifyKey numbered_key(std::uint32_t i) {
  ClassifyKey key;
  key.decider = i + 1;
  key.next_hop = 2 * i + 7;
  key.dest = 3 * i + 11;
  return key;
}

TEST(ClassifyCache, HoldsItsCapacityAndEvictsTheLeastRecentlyUsed) {
  // A study's cache starts at capacity 0 and the catalog then sets its
  // quota; a quota of N must hold the N most recently used keys exactly.
  for (const std::size_t capacity : {1, 4, 5, 7, 8, 9, 64, 2730}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const auto n = static_cast<std::uint32_t>(capacity);
    ClassifyCache cache;
    cache.set_capacity(capacity);

    // N distinct keys all stay cached.
    for (std::uint32_t i = 0; i < n; ++i)
      cache.put(numbered_key(i), DecisionCategory::kBestShort);
    std::size_t hits = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      hits += cache.get(numbered_key(i)).has_value();
    EXPECT_EQ(hits, capacity);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch key 0 again, so with N > 1 key 1 is the least recently used;
    // one more put evicts exactly that key.
    ASSERT_TRUE(cache.get(numbered_key(0)).has_value());
    const std::uint32_t lru = n > 1 ? 1 : 0;
    cache.put(numbered_key(n), DecisionCategory::kBestLong);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.get(numbered_key(lru)).has_value());
    for (std::uint32_t i = 0; i <= n; ++i)
      if (i != lru)
        EXPECT_TRUE(cache.get(numbered_key(i)).has_value()) << "key " << i;

    // Far more keys than the capacity: it stays full, never over.
    const std::size_t keys = std::max<std::size_t>(10 * capacity, 1000);
    for (std::size_t i = 0; i < keys; ++i)
      cache.put(numbered_key(static_cast<std::uint32_t>(i)),
                DecisionCategory::kBestShort);
    ClassifyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.capacity, capacity);
    EXPECT_EQ(stats.entries, capacity);

    cache.set_capacity(capacity / 2);
    stats = cache.stats();
    EXPECT_EQ(stats.capacity, capacity / 2);
    EXPECT_EQ(stats.entries, capacity / 2);
  }
}

// -- Shared path arena.

TEST(StudyCatalog, ArenaDeduplicatesIdenticalStudies) {
  // Two studies frozen from the same passive dataset: every path suffix of
  // the second already lives in the arena, so sharing is ~100%.
  StudyCatalog catalog;
  catalog.add_study("epoch-a", snapshot_study(fixtures()[0].passive));
  catalog.add_study("epoch-a2", snapshot_study(fixtures()[0].passive));

  const StudyCatalog::ArenaStats arena = catalog.arena_stats();
  EXPECT_EQ(arena.sum_study_paths, 2 * catalog.studies()[0]->own_paths);
  EXPECT_EQ(arena.arena_paths, catalog.studies()[0]->own_paths);
  EXPECT_NEAR(arena.sharing(), 0.5, 1e-9);

  // Identical content, distinct names: both studies answer identically.
  OracleService service(&catalog, OracleService::Config{0, 1});
  const OracleFixture& f = fixtures()[0];
  for (std::size_t i = 0; i < f.queries.size(); i += 13)
    EXPECT_EQ(to_text(service.answer(f.queries[i], "epoch-a")),
              to_text(service.answer(f.queries[i], "epoch-a2")));

  // Distinct studies still share suffixes, just fewer of them.
  auto three = make_catalog();
  const StudyCatalog::ArenaStats mixed = three->arena_stats();
  EXPECT_LT(mixed.arena_paths, mixed.sum_study_paths);
  EXPECT_GT(mixed.sharing(), 0.0);
}

// -- Rejected images.

/// Offset of path node `k` in `snap`'s image: the header, num_ases, the
/// sections before the path table, the node count, then 16 bytes a node.
std::size_t node_offset(const OracleSnapshot& snap, std::size_t k) {
  std::size_t at = 24 + 4;
  at += 4 + 9 * snap.relationships.size();
  at += 4;
  for (const auto& group : snap.sibling_groups) at += 4 + 4 * group.size();
  at += 4 + 13 * snap.hybrid_entries.size();
  at += 4 + 8 * snap.partial_transit.size();
  at += 4;
  for (const auto& block : snap.observations) at += 9 + 8 * block.pairs.size();
  return at + 4 + 16 * k;
}

std::string resealed(std::string image) {
  const std::uint64_t checksum = fnv1a64(std::string_view(image).substr(24));
  std::memcpy(image.data() + 16, &checksum, sizeof checksum);
  return image;
}

/// Same studies, same arena node for node, same answers.
void expect_same_catalog(const StudyCatalog& got, const StudyCatalog& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.studies()[i]->id, want.studies()[i]->id);
    EXPECT_EQ(got.studies()[i]->own_paths, want.studies()[i]->own_paths);
  }
  ASSERT_EQ(got.paths().num_paths(), want.paths().num_paths());
  for (PathId id = 0; id < want.paths().num_paths(); ++id) {
    const PathTable::FlatNode a = got.paths().flat_node(id);
    const PathTable::FlatNode b = want.paths().flat_node(id);
    ASSERT_EQ(std::tie(a.head, a.tail, a.num_hops, a.poison),
              std::tie(b.head, b.tail, b.num_hops, b.poison))
        << "arena node " << id;
  }
  EXPECT_EQ(got.paths().num_poison_sets(), want.paths().num_poison_sets());
  OracleService got_service(&got, OracleService::Config{0, 1});
  OracleService want_service(&want, OracleService::Config{0, 1});
  for (int s = 0; s < 2; ++s)
    for (const OracleRequest& request : fixtures()[s].queries)
      EXPECT_EQ(to_text(got_service.answer(request, kNames[s])),
                to_text(want_service.answer(request, kNames[s])));
}

TEST(StudyCatalog, ARejectedImageLeavesTheCatalogUnchanged) {
  // Both mutations of B fail late, after the loader has interned most (path
  // section) or all (route section) of B's paths into the shared arena.
  const std::string image_a =
      snapshot_study(fixtures()[0].passive).to_bytes();
  const OracleSnapshot b = snapshot_study(fixtures()[1].passive);
  const std::string image_b = b.to_bytes();
  StudyCatalog direct;
  direct.add_study_bytes(kNames[0], image_a);
  direct.add_study_bytes(kNames[1], image_b);

  std::vector<std::pair<std::string, std::string>> rejected;
  {
    // Path section: the last node record becomes a copy of the one before.
    const std::size_t n = b.paths.num_paths();
    const std::size_t last = node_offset(b, n - 1);
    const PathTable::FlatNode expect = b.paths.flat_node(PathId(n - 1));
    ASSERT_EQ(std::memcmp(image_b.data() + last, &expect, 16), 0);
    std::string mutated = image_b;
    std::memcpy(mutated.data() + last, image_b.data() + last - 16, 16);
    rejected.emplace_back(resealed(mutated), "flat path table has duplicate");
  }
  {
    // Route section: the last entry points past the path table.
    OracleSnapshot mutated = b;
    mutated.routes.back().entries.back().selected =
        PathId(b.paths.num_paths());
    rejected.emplace_back(mutated.to_bytes(), "references a missing path");
  }

  for (const auto& [image, what] : rejected) {
    StudyCatalog catalog;
    catalog.add_study_bytes(kNames[0], image_a);
    const std::size_t arena_after_a = catalog.paths().num_paths();
    try {
      catalog.add_study_bytes(kNames[1], image);
      ADD_FAILURE() << "expected CheckError mentioning '" << what << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(catalog.size(), 1u);
    EXPECT_EQ(catalog.paths().num_paths(), arena_after_a);
    EXPECT_EQ(catalog.find(kNames[1]), nullptr);
    // The good B then loads as if the bad one had never been offered.
    catalog.add_study_bytes(kNames[1], image_b);
    expect_same_catalog(catalog, direct);
  }
}

// -- Concurrency: the TSan target for the multi-study stack. Four clients
// hammer different studies through one server while the cache budget is
// rebalanced live.

TEST(StudyCatalog, ConcurrentMultiStudyLoadStaysByteIdentical) {
  auto catalog = make_catalog();
  OracleService::Config sc;
  sc.worker_threads = 4;
  sc.queue_capacity = 1024;
  sc.cache_rebalance_every = 64;  // Exercise live rebalancing under load.
  OracleService service(catalog.get(), sc);
  OracleServer server(&service);
  server.start();
  const std::uint16_t port = server.port();

  // Ground truth first, so worker threads only compare strings.
  std::array<std::vector<std::string>, 3> expected;
  for (int s = 0; s < 3; ++s)
    for (const OracleRequest& request : fixtures()[s].queries)
      expected[s].push_back(to_text(service.answer(request, kNames[s])));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      // Each client walks all three studies, offset by its own stride.
      OracleClient::Config cc;
      cc.port = port;
      for (int s = 0; s < 3; ++s) {
        cc.study = kNames[s];
        OracleClient client(cc);
        const auto& queries = fixtures()[s].queries;
        for (std::size_t i = t; i < queries.size(); i += kClients)
          if (to_text(client.call(queries[i])) != expected[s][i])
            ++mismatches[t];
      }
    });
  }
  // A fifth thread rebalances and snapshots stats concurrently.
  std::atomic<bool> done{false};
  std::thread rebalancer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      catalog->rebalance_cache();
      (void)service.stats();
      (void)catalog->cache_budget();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  rebalancer.join();

  for (int t = 0; t < kClients; ++t)
    EXPECT_EQ(mismatches[t], 0) << "client " << t;
  EXPECT_EQ(server.stats().requests_unknown_study, 0u);

  server.shutdown();
  service.shutdown();
}

}  // namespace
}  // namespace irp
