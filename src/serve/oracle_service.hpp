// RouteOracle service front: typed queries, a bounded worker pool, and
// admission control.
//
// Four query classes cover what the paper answers one offline pass at a
// time: ClassifyDecision (the §4 GR-validity ladder), AlternateRoutes (the
// §3.2/§4.4 per-AS route diversity), PspVisibility (the §4.3 criteria
// inputs) and RelationshipLookup (inference/sibling output). submit() runs
// admission control against a bounded MPMC queue: when the queue is full the
// request is rejected immediately with accepted == false — the service
// prefers shedding load over unbounded growth or stalls. Accepted requests
// are always answered, including during shutdown (workers drain the queue
// before exiting).
//
// Every accepted request ends in exactly one call of its Completion, on the
// thread that served it, with the response or the exception evaluation
// threw. That is the one delivery path: the future-returning submit()
// overloads are thin adapters that complete a promise, and the wire server
// passes a completion that encodes the reply and wakes its poll thread, so
// no caller ever has to poll for results.
//
// Two execution modes:
//   * worker_threads >= 1 — background workers pop the queue and run the
//     completions; clients pipeline as deep as the queue allows.
//   * worker_threads == 0 — deterministic single-thread mode: nothing runs
//     until the owner calls drain(), which serves queued requests in FIFO
//     order on the calling thread. test_oracle_determinism proves the two
//     modes produce byte-identical answers for the same query stream.
//
// The service always serves a StudyCatalog: a request names a study ("" is
// the default, first-loaded one), resolved at submit time; one study is a
// catalog of one. Every answer is a pure function of the study's (immutable)
// index, so responses are deterministic regardless of worker count,
// interleaving, or cache state; timing-dependent values live only in
// OracleStatsView, and cache counters in StudyCatalog::cache_budget().
//
// Remote access: serve/oracle_server.hpp exposes this service over TCP via
// the OracleWire protocol (serve/wire.hpp, spec in docs/PROTOCOL.md) with
// the same admission-control semantics — a shed request becomes an explicit
// overload error frame, and remote answers are byte-identical to local ones.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/oracle_index.hpp"
#include "serve/study_catalog.hpp"

namespace irp {

// -- Requests.

/// "Is this routing decision GR-valid under this scenario?" (§4.1-§4.3).
struct ClassifyRequest {
  RouteDecision decision;
  ScenarioOptions scenario;
};

/// "Which routes does AS `asn` hold toward `prefix`?" (§3.2/§4.4).
struct AlternateRoutesRequest {
  Asn asn = 0;
  Ipv4Prefix prefix;
};

/// "Was `origin` seen announcing `prefix` to `neighbor`?" (§4.3).
struct PspVisibilityRequest {
  Asn origin = 0;
  Asn neighbor = 0;
  Ipv4Prefix prefix;
};

/// "What does the aggregated inference say about this AS pair?"
struct RelationshipLookupRequest {
  Asn a = 0;
  Asn b = 0;
};

using OracleRequest = std::variant<ClassifyRequest, AlternateRoutesRequest,
                                   PspVisibilityRequest,
                                   RelationshipLookupRequest>;

// -- Responses (same alternative order as the requests).

struct ClassifyResponse {
  DecisionCategory category = DecisionCategory::kBestShort;
  bool best = false;
  bool is_short = false;
};

struct AlternateRoutesResponse {
  struct Alternate {
    AsPath path;
    Asn from_asn = 0;
  };
  bool has_route = false;
  bool self_originated = false;
  Asn next_hop = 0;
  AsPath selected;
  std::vector<Alternate> alternates;
};

struct PspVisibilityResponse {
  bool announced = false;      ///< origin -> neighbor seen for the prefix.
  bool announced_any = false;  ///< origin -> neighbor seen for any prefix.
  std::vector<Asn> neighbors;  ///< All neighbors seen for (origin, prefix).
};

struct RelationshipLookupResponse {
  bool has_link = false;
  std::optional<Relationship> rel;  ///< Of b from a's perspective.
  bool same_sibling_group = false;
};

using OracleResponse = std::variant<ClassifyResponse, AlternateRoutesResponse,
                                    PspVisibilityResponse,
                                    RelationshipLookupResponse>;

/// Query classes, aligned with the variant alternative indexes.
enum class QueryType : std::uint8_t {
  kClassify = 0,
  kAlternateRoutes = 1,
  kPspVisibility = 2,
  kRelationshipLookup = 3,
};
inline constexpr int kNumQueryTypes = 4;

QueryType query_type(const OracleRequest& request);
std::string_view query_type_name(QueryType type);

/// Deterministic one-line rendering of a response (CLI output; also the
/// byte-comparison form of the determinism tests).
std::string to_text(const OracleResponse& response);

/// Lock-free log-linear latency histogram (nanosecond input): each power of
/// two is split into 16 equal buckets, so a bucket's upper bound is at most
/// 6.25% above any sample in it (values below 32 ns are exact).
class LatencyHistogram {
 public:
  void record(std::uint64_t nanos);
  std::uint64_t count() const;
  /// Approximate quantile in microseconds: the upper bound (largest value)
  /// of the bucket holding the nearest-rank sample, the ceil(q * n)-th
  /// smallest; 0 when empty. Never below that sample, and monotone in it.
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 4;  ///< 2^4 = 16 buckets per power of two.
  /// Exact buckets for [0, 32), then 16 per power of two up to 2^48 ns
  /// (~3 days); larger samples count in the last bucket.
  static constexpr int kBuckets = (48 - kSubBits + 1) << kSubBits;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// What one owner counted for a stream of requests: how many it served,
/// how many admission control shed, and latency quantiles (microseconds)
/// over the served ones. Each owner times its own span: OracleService from
/// dequeue to evaluated (pure evaluation, no queue wait); OracleServer from
/// frame decode to reply queued (admission, queue wait, evaluation, encode
/// and the completion wakeup: what a remote caller sees).
struct RequestStats {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// The always-on counters behind one RequestStats; safe to bump from any
/// thread.
struct RequestCounters {
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> rejected{0};
  LatencyHistogram latency;

  /// Counts one served request that took `nanos`.
  void record_served(std::uint64_t nanos) {
    latency.record(nanos);
    served.fetch_add(1, std::memory_order_relaxed);
  }
  RequestStats read() const;
};

/// Copyable stats snapshot; see OracleService::stats(). The classify-cache
/// counters are catalog state: StudyCatalog::cache_budget().
struct OracleStatsView {
  struct PerStudy {
    std::string name;
    RequestStats requests;
  };
  std::array<RequestStats, kNumQueryTypes> per_type{};
  /// One entry per hosted study, in load order; [0] is the default study.
  std::vector<PerStudy> per_study;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  /// Submissions naming a study the service does not host.
  std::uint64_t unknown_study = 0;
  std::size_t peak_queue_depth = 0;
};

/// Concurrent query server over a StudyCatalog (one shared admission queue
/// and worker pool for every study; requests carry an optional study id
/// routed at submit time).
class OracleService {
 public:
  struct Config {
    /// Background workers; 0 selects the deterministic manual-drain mode.
    int worker_threads = 1;
    /// Admission-control bound: submit() rejects once this many requests
    /// are queued (in-flight requests do not count).
    std::size_t queue_capacity = 1024;
    /// Every this-many served requests the shared classify-cache budget is
    /// rebalanced by per-study hit rates (StudyCatalog::rebalance_cache).
    /// 0 disables periodic rebalancing.
    std::uint64_t cache_rebalance_every = 0;
  };

  /// Serves every study in `catalog` (which must be fully loaded and must
  /// outlive the service); "" routes to the catalog's default study.
  OracleService(const StudyCatalog* catalog, Config config);
  ~OracleService();

  OracleService(const OracleService&) = delete;
  OracleService& operator=(const OracleService&) = delete;

  /// Why a submission was not accepted.
  enum class Reject : std::uint8_t {
    kNone = 0,       ///< Accepted.
    kOverloaded,     ///< Queue full or shutting down; retryable.
    kUnknownStudy,   ///< Study id matches nothing hosted; not retryable.
  };

  /// What a served request produced: its response, or the exception its
  /// evaluation threw.
  using Outcome = std::variant<OracleResponse, std::exception_ptr>;

  /// Runs exactly once per accepted request, on the thread that served it
  /// (a worker, or the caller of drain()/shutdown()). It must not throw, and
  /// must not reference anything that may be destroyed before the request
  /// is served — capture shared ownership instead.
  using Completion = std::function<void(Outcome)>;

  /// Enqueues a query against study `study` ("" = default); never blocks.
  /// Returns Reject::kNone when accepted — `done` then runs exactly once —
  /// and otherwise the reason it was shed, in which case `done` never runs.
  /// An id the service does not host rejects with Reject::kUnknownStudy.
  Reject submit(OracleRequest request, std::string_view study,
                Completion done);

  /// Admission result of the future-returning adapters: `accepted == false`
  /// means the request was shed (`reject` says why); the future is only
  /// valid when accepted.
  struct Submitted {
    bool accepted = false;
    std::future<OracleResponse> response;
    Reject reject = Reject::kNone;
  };

  /// Future-returning form of the completion submit() above.
  Submitted submit(OracleRequest request, std::string_view study);

  /// Evaluates a query against study `study` ("" = default) synchronously on
  /// the calling thread (bypasses the queue; same deterministic answer the
  /// workers would produce). Throws UnknownStudyError for ids the service
  /// does not host.
  OracleResponse answer(const OracleRequest& request,
                        std::string_view study) const;

  /// Serves up to `max_requests` queued requests on the calling thread, in
  /// FIFO order; returns how many were served. The deterministic mode's
  /// engine (with workers running it is a no-op most of the time, since
  /// workers drain the queue first).
  std::size_t drain(
      std::size_t max_requests = std::numeric_limits<std::size_t>::max());

  /// Stops accepting new work, serves everything already accepted, joins
  /// the workers. Idempotent; the destructor calls it.
  void shutdown();

  OracleStatsView stats() const;
  int worker_threads() const { return config_.worker_threads; }

 private:
  struct Pending {
    OracleRequest request;
    /// Resolved at submit time, so workers never re-run study lookup.
    const OracleIndex* index = nullptr;
    std::uint32_t study_ordinal = 0;
    Completion done;
  };

  /// Resolves a study id to its index; nullptr = unknown. `ordinal` gets
  /// the per-study counter slot on success.
  const OracleIndex* resolve(std::string_view study,
                             std::uint32_t* ordinal) const;
  void serve_one(Pending& pending);
  void worker_main();

  const StudyCatalog* catalog_;
  Config config_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::size_t peak_queue_depth_ = 0;
  std::vector<std::thread> workers_;

  std::array<RequestCounters, kNumQueryTypes> counters_;
  /// One slot per study; heap-allocated because the atomics are not
  /// movable.
  std::vector<std::unique_ptr<RequestCounters>> study_counters_;
  mutable std::atomic<std::uint64_t> unknown_study_{0};
  std::atomic<std::uint64_t> served_total_{0};
};

}  // namespace irp
