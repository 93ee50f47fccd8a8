// OracleService determinism and backpressure tests.
//
// Determinism: the same query stream must render byte-identically whether it
// is served by the deterministic manual-drain mode (worker_threads == 0) or
// by 2 or 4 concurrent workers — responses are pure functions of the index,
// so interleaving and cache state must never leak into an answer. Run under
// IRP_SANITIZE=thread this doubles as the data-race check for the whole
// serve layer.
//
// Backpressure: a full queue rejects immediately (exact counts in the
// deterministic mode), and every accepted request is answered — including
// the burst case with live workers and during shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "oracle_fixture.hpp"

namespace irp {
namespace {

using test::OracleFixture;

const OracleFixture& fixture() { return test::oracle_fixture(); }

/// Serves the whole stream on `workers` threads and renders every response
/// (in submission order) into one string.
std::string run_stream(int workers) {
  const OracleFixture& f = fixture();
  OracleService::Config config;
  config.worker_threads = workers;
  config.queue_capacity = f.queries.size() + 1;
  OracleService service(f.catalog.get(), config);

  std::vector<OracleService::Submitted> submitted;
  submitted.reserve(f.queries.size());
  for (const OracleRequest& request : f.queries)
    submitted.push_back(service.submit(request, ""));
  if (workers == 0) service.drain();

  std::string rendered;
  for (OracleService::Submitted& s : submitted) {
    EXPECT_TRUE(s.accepted);
    rendered += to_text(s.response.get());
    rendered += '\n';
  }

  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, f.queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  return rendered;
}

TEST(OracleDeterminism, ConcurrentAnswersAreByteIdenticalToSerial) {
  ASSERT_GT(fixture().queries.size(), 100u);
  const std::string serial = run_stream(0);
  EXPECT_EQ(run_stream(2), serial);
  EXPECT_EQ(run_stream(4), serial);
  // And a repeat with warm caches must not change a byte either.
  EXPECT_EQ(run_stream(2), serial);
}

TEST(OracleDeterminism, AnswerBypassMatchesWorkerPath) {
  const OracleFixture& f = fixture();
  OracleService::Config config;
  config.worker_threads = 1;
  config.queue_capacity = f.queries.size();
  OracleService service(f.catalog.get(), config);
  for (std::size_t i = 0; i < 50 && i < f.queries.size(); ++i) {
    OracleService::Submitted s = service.submit(f.queries[i], "");
    ASSERT_TRUE(s.accepted);
    EXPECT_EQ(to_text(s.response.get()),
              to_text(service.answer(f.queries[i], "")));
  }
}

TEST(OracleBackpressure, DeterministicModeRejectsExactOverflow) {
  const OracleFixture& f = fixture();
  constexpr std::size_t kCapacity = 8;
  constexpr std::size_t kSubmitted = 13;
  OracleService::Config config;
  config.worker_threads = 0;  // Nothing drains until we say so.
  config.queue_capacity = kCapacity;
  OracleService service(f.catalog.get(), config);

  std::vector<OracleService::Submitted> submitted;
  for (std::size_t i = 0; i < kSubmitted; ++i)
    submitted.push_back(service.submit(f.queries[i % f.queries.size()], ""));

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    if (submitted[i].accepted) ++accepted;
    // Admission is strictly FIFO: the first kCapacity are in, the rest out.
    EXPECT_EQ(submitted[i].accepted, i < kCapacity) << "submission " << i;
  }
  EXPECT_EQ(accepted, kCapacity);

  OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.rejected, kSubmitted - kCapacity);
  EXPECT_EQ(stats.served, 0u);  // Nothing ran yet.
  EXPECT_EQ(stats.peak_queue_depth, kCapacity);

  // Draining serves exactly the accepted requests, in order.
  EXPECT_EQ(service.drain(), kCapacity);
  for (auto& s : submitted)
    if (s.accepted) EXPECT_TRUE(s.response.valid());
  stats = service.stats();
  EXPECT_EQ(stats.served, kCapacity);

  // Capacity freed: submission works again.
  EXPECT_TRUE(service.submit(f.queries[0], "").accepted);
}

TEST(OracleBackpressure, BurstAgainstWorkersShedsButNeverStalls) {
  const OracleFixture& f = fixture();
  OracleService::Config config;
  config.worker_threads = 2;
  config.queue_capacity = 16;
  OracleService service(f.catalog.get(), config);

  std::vector<std::future<OracleResponse>> accepted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    OracleService::Submitted s =
        service.submit(f.queries[i % f.queries.size()], "");
    if (s.accepted)
      accepted.push_back(std::move(s.response));
    else
      ++rejected;
  }
  // Every accepted request completes; none is dropped or stuck.
  for (auto& future : accepted) (void)future.get();

  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, accepted.size());
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_LE(stats.peak_queue_depth, config.queue_capacity);
}

TEST(OracleBackpressure, ShutdownServesAcceptedWorkThenRejects) {
  const OracleFixture& f = fixture();
  OracleService::Config config;
  config.worker_threads = 2;
  config.queue_capacity = 64;
  auto service = std::make_unique<OracleService>(f.catalog.get(), config);

  std::vector<std::future<OracleResponse>> accepted;
  for (std::size_t i = 0; i < 64; ++i) {
    OracleService::Submitted s =
        service->submit(f.queries[i % f.queries.size()], "");
    if (s.accepted) accepted.push_back(std::move(s.response));
  }
  service->shutdown();
  // Accepted-implies-answered holds across shutdown.
  for (auto& future : accepted) (void)future.get();
  // After shutdown, everything is shed.
  EXPECT_FALSE(service->submit(f.queries[0], "").accepted);
  service.reset();  // Destructor after explicit shutdown is a no-op.
}

TEST(OracleStats, HistogramAndCountersTrackServing) {
  const OracleFixture& f = fixture();
  OracleService service(f.catalog.get(), OracleService::Config{0, 4096});
  constexpr std::size_t kN = 200;
  std::vector<OracleService::Submitted> submitted;
  for (std::size_t i = 0; i < kN; ++i)
    submitted.push_back(service.submit(f.queries[i % f.queries.size()], ""));
  service.drain();

  const OracleStatsView stats = service.stats();
  EXPECT_EQ(stats.served, kN);
  std::uint64_t per_type_sum = 0;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    per_type_sum += stats.per_type[t].served;
    if (stats.per_type[t].served > 0) {
      EXPECT_GT(stats.per_type[t].p50_us, 0.0);
      EXPECT_GE(stats.per_type[t].p99_us, stats.per_type[t].p50_us);
    }
  }
  EXPECT_EQ(per_type_sum, kN);
  // The classify cache saw traffic and reports coherent counters; they are
  // read from the catalog, not copied into the service's view.
  const auto budget = f.catalog->cache_budget();
  ASSERT_EQ(budget.per_study.size(), 1u);
  const ClassifyCache::Stats& cache = budget.per_study[0].stats;
  EXPECT_GT(cache.hits + cache.misses, 0u);
  EXPECT_LE(cache.entries, cache.capacity);
}

TEST(OracleStats, ServiceLatencyExcludesQueueWait) {
  // The service times pure evaluation (docs/OPERATIONS.md §5): a request
  // that waits in the queue must not carry the wait into its quantiles.
  const OracleFixture& f = fixture();
  OracleService service(f.catalog.get(), OracleService::Config{0, 16});
  constexpr auto kWait = std::chrono::milliseconds(50);
  OracleService::Submitted s =
      service.submit(RelationshipLookupRequest{1, 2}, "");
  ASSERT_TRUE(s.accepted);
  std::this_thread::sleep_for(kWait);
  ASSERT_EQ(service.drain(), 1u);
  (void)s.response.get();
  const RequestStats rel = service.stats().per_type[static_cast<int>(
      QueryType::kRelationshipLookup)];
  EXPECT_EQ(rel.served, 1u);
  const double wait_us =
      std::chrono::duration<double, std::micro>(kWait).count();
  EXPECT_LT(rel.p50_us, wait_us);
}

TEST(OracleStats, HistogramQuantileUsesNearestRank) {
  // Three samples in three buckets whose largest values are 1.023 us
  // ([992, 1023] ns), 5.119 us ([4864, 5119] ns) and 102.399 us
  // ([98304, 102399] ns).
  LatencyHistogram h;
  for (std::uint64_t nanos : {1000u, 5000u, 100000u}) h.record(nanos);
  EXPECT_DOUBLE_EQ(h.quantile_us(0.99), 102.399);  // ceil(2.97) = 3rd.
  EXPECT_DOUBLE_EQ(h.quantile_us(0.5), 5.119);     // ceil(1.5) = 2nd.
  EXPECT_DOUBLE_EQ(h.quantile_us(0.0), 1.023);

  // An integral q * n stays exact: 0.07 * 100 is 7.000000000000001 in
  // doubles, and p7 of 7 low and 93 high samples is the 7th, a low one.
  LatencyHistogram h100;
  for (int i = 0; i < 100; ++i) h100.record(i < 7 ? 1000 : 100000);
  EXPECT_DOUBLE_EQ(h100.quantile_us(0.07), 1.023);
  EXPECT_DOUBLE_EQ(h100.quantile_us(0.08), 102.399);
}

TEST(OracleStats, HistogramTellsOnePointOneMsFromTwoMs) {
  // Both latencies share one power of two, [2^20, 2^21) ns; the log-linear
  // buckets still read them apart, each at most 6.25% above its true value.
  const double true_us[2] = {1100, 2000};
  double p50_us[2];
  for (int i = 0; i < 2; ++i) {
    LatencyHistogram h;
    for (int n = 0; n < 10; ++n) h.record(std::uint64_t(true_us[i] * 1000));
    p50_us[i] = h.quantile_us(0.5);
    EXPECT_GE(p50_us[i], true_us[i]);
    EXPECT_LE(p50_us[i], true_us[i] * 1.0625);
  }
  EXPECT_LT(p50_us[0], p50_us[1]);

  // Every sample reads back at or above itself, by at most 6.25%, and
  // exactly below 32 ns.
  for (std::uint64_t nanos = 0; nanos < (std::uint64_t{1} << 40);
       nanos = nanos * 5 / 4 + 1) {
    LatencyHistogram one;
    one.record(nanos);
    const double read_ns = one.quantile_us(0.5) * 1000.0;
    EXPECT_GE(read_ns, double(nanos) * (1 - 1e-12)) << nanos;
    EXPECT_LE(read_ns, double(nanos) * 1.0625 + 1e-9) << nanos;
    if (nanos < 32) EXPECT_DOUBLE_EQ(read_ns, double(nanos)) << nanos;
  }
}

}  // namespace
}  // namespace irp
