#include "serve/oracle_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace irp {

QueryType query_type(const OracleRequest& request) {
  return static_cast<QueryType>(request.index());
}

std::string_view query_type_name(QueryType type) {
  switch (type) {
    case QueryType::kClassify: return "classify";
    case QueryType::kAlternateRoutes: return "alternate_routes";
    case QueryType::kPspVisibility: return "psp_visibility";
    case QueryType::kRelationshipLookup: return "relationship";
  }
  IRP_UNREACHABLE("bad query type");
}

namespace {

struct TextRenderer {
  std::ostringstream out;

  void operator()(const ClassifyResponse& r) {
    out << "classify category=" << decision_category_name(r.category)
        << " best=" << (r.best ? 1 : 0) << " short=" << (r.is_short ? 1 : 0);
  }
  void operator()(const AlternateRoutesResponse& r) {
    if (!r.has_route) {
      out << "alternate_routes no-route";
      return;
    }
    out << "alternate_routes selected=[" << r.selected.to_string() << "]"
        << " next_hop=" << r.next_hop
        << " self=" << (r.self_originated ? 1 : 0) << " alternates="
        << r.alternates.size();
    for (const auto& alt : r.alternates)
      out << " {from=" << alt.from_asn << " path=[" << alt.path.to_string()
          << "]}";
  }
  void operator()(const PspVisibilityResponse& r) {
    out << "psp announced=" << (r.announced ? 1 : 0)
        << " announced_any=" << (r.announced_any ? 1 : 0) << " neighbors=[";
    for (std::size_t i = 0; i < r.neighbors.size(); ++i) {
      if (i > 0) out << ' ';
      out << r.neighbors[i];
    }
    out << "]";
  }
  void operator()(const RelationshipLookupResponse& r) {
    out << "relationship has_link=" << (r.has_link ? 1 : 0) << " rel="
        << (r.rel ? relationship_name(*r.rel) : std::string_view{"none"})
        << " siblings=" << (r.same_sibling_group ? 1 : 0);
  }
};

struct Evaluator {
  const OracleIndex* index;

  OracleResponse operator()(const ClassifyRequest& req) const {
    ClassifyResponse resp;
    resp.category = index->classify(req.decision, req.scenario);
    resp.best = resp.category == DecisionCategory::kBestShort ||
                resp.category == DecisionCategory::kBestLong;
    resp.is_short = resp.category == DecisionCategory::kBestShort ||
                    resp.category == DecisionCategory::kNonBestShort;
    return resp;
  }

  OracleResponse operator()(const AlternateRoutesRequest& req) const {
    AlternateRoutesResponse resp;
    const OracleSnapshot::PrefixRoutes* pr = index->prefix_routes(req.prefix);
    const OracleSnapshot::RouteEntry* entry =
        pr == nullptr ? nullptr : pr->find(req.asn);
    if (entry == nullptr) return resp;
    resp.has_route = true;
    resp.self_originated = entry->self_originated;
    resp.next_hop = entry->next_hop;
    resp.selected = index->paths().materialize(entry->selected);
    resp.alternates.reserve(entry->num_alternates);
    for (const OracleSnapshot::AlternateRoute& alt : pr->alternates_of(*entry)) {
      AlternateRoutesResponse::Alternate out;
      out.path = index->paths().materialize(alt.path);
      out.from_asn = alt.from_asn;
      resp.alternates.push_back(std::move(out));
    }
    return resp;
  }

  OracleResponse operator()(const PspVisibilityRequest& req) const {
    PspVisibilityResponse resp;
    const BgpObservations& obs = index->observations();
    resp.announced = obs.announced(req.origin, req.neighbor, req.prefix);
    resp.announced_any = obs.announced_any(req.origin, req.neighbor);
    const auto neighbors = obs.neighbors_for(req.origin, req.prefix);
    resp.neighbors.assign(neighbors.begin(), neighbors.end());
    return resp;
  }

  OracleResponse operator()(const RelationshipLookupRequest& req) const {
    RelationshipLookupResponse resp;
    resp.has_link = index->topology().has_link(req.a, req.b);
    resp.rel = index->topology().relationship(req.a, req.b);
    resp.same_sibling_group = index->siblings().same_group(req.a, req.b);
    return resp;
  }
};

}  // namespace

std::string to_text(const OracleResponse& response) {
  TextRenderer renderer;
  std::visit(renderer, response);
  return renderer.out.str();
}

void LatencyHistogram::record(std::uint64_t nanos) {
  // Below 2^(kSubBits + 1) every value has its own bucket. A larger value
  // with top bit e lands in one of 2^kSubBits equal slices of
  // [2^e, 2^(e+1)), the one its next kSubBits bits name: with
  // shift = e - kSubBits, index shift * 2^kSubBits + (nanos >> shift).
  const int shift = std::max(0, static_cast<int>(std::bit_width(nanos)) - 1 -
                                    kSubBits);
  const std::uint64_t bucket =
      (std::uint64_t(shift) << kSubBits) + (nanos >> shift);
  buckets_[std::min<std::uint64_t>(bucket, kBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::quantile_us(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  // Nearest rank, ceil(q * n). A product within rounding of an integer
  // counts as that integer: 0.07 * 100 must select the 7th sample, not the
  // 8th.
  const double rank = q * double(total);
  const double nearest = std::round(rank);
  const double exact =
      std::abs(rank - nearest) <= 1e-9 * nearest ? nearest : std::ceil(rank);
  const std::uint64_t target =
      std::clamp<std::uint64_t>(static_cast<std::uint64_t>(exact), 1, total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      // The largest value bucket i holds: inverts record()'s index.
      const int shift = std::max(0, (i >> kSubBits) - 1);
      const std::uint64_t mantissa =
          std::uint64_t(i) - (std::uint64_t(shift) << kSubBits);
      return double(((mantissa + 1) << shift) - 1) / 1000.0;
    }
  }
  return 0;
}

RequestStats RequestCounters::read() const {
  RequestStats s;
  s.served = served.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.p50_us = latency.quantile_us(0.50);
  s.p99_us = latency.quantile_us(0.99);
  return s;
}

OracleService::OracleService(const StudyCatalog* catalog, Config config)
    : catalog_(catalog), config_(config) {
  IRP_CHECK(catalog_ != nullptr, "oracle service requires a catalog");
  IRP_CHECK(catalog_->size() > 0, "oracle service catalog holds no studies");
  IRP_CHECK(config_.worker_threads >= 0, "worker_threads must be >= 0");
  IRP_CHECK(config_.queue_capacity > 0, "queue_capacity must be positive");
  for (std::size_t i = 0; i < catalog_->size(); ++i)
    study_counters_.push_back(std::make_unique<RequestCounters>());
  workers_.reserve(static_cast<std::size_t>(config_.worker_threads));
  for (int i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

OracleService::~OracleService() { shutdown(); }

const OracleIndex* OracleService::resolve(std::string_view study,
                                          std::uint32_t* ordinal) const {
  const StudyCatalog::Study* found = catalog_->find(study);
  if (found == nullptr) return nullptr;
  *ordinal = found->ordinal;
  return found->index.get();
}

OracleResponse OracleService::answer(const OracleRequest& request,
                                     std::string_view study) const {
  std::uint32_t ordinal = 0;
  const OracleIndex* index = resolve(study, &ordinal);
  if (index == nullptr) {
    unknown_study_.fetch_add(1, std::memory_order_relaxed);
    throw UnknownStudyError(study);
  }
  return std::visit(Evaluator{index}, request);
}

void OracleService::serve_one(Pending& pending) {
  // Pure evaluation latency: the clock starts at dequeue, so queue wait
  // shows only on the wire server's span.
  const auto start = std::chrono::steady_clock::now();
  Outcome outcome;
  try {
    outcome = std::visit(Evaluator{pending.index}, pending.request);
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    counters_[static_cast<int>(query_type(pending.request))].record_served(
        nanos);
    study_counters_[pending.study_ordinal]->record_served(nanos);
  } catch (...) {
    outcome = std::current_exception();
  }
  pending.done(std::move(outcome));
  if (config_.cache_rebalance_every > 0) {
    const std::uint64_t served =
        served_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (served % config_.cache_rebalance_every == 0)
      catalog_->rebalance_cache();
  }
}

void OracleService::worker_main() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained.
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    serve_one(pending);
  }
}

OracleService::Submitted OracleService::submit(OracleRequest request,
                                               std::string_view study) {
  // std::function needs a copyable callable, hence the shared promise.
  auto promise = std::make_shared<std::promise<OracleResponse>>();
  Submitted submitted;
  submitted.reject =
      submit(std::move(request), study, [promise](Outcome outcome) {
        if (auto* error = std::get_if<std::exception_ptr>(&outcome))
          promise->set_exception(*error);
        else
          promise->set_value(std::move(std::get<OracleResponse>(outcome)));
      });
  submitted.accepted = submitted.reject == Reject::kNone;
  if (submitted.accepted) submitted.response = promise->get_future();
  return submitted;
}

OracleService::Reject OracleService::submit(OracleRequest request,
                                            std::string_view study,
                                            Completion done) {
  IRP_CHECK(static_cast<bool>(done), "submit() requires a completion");
  Pending pending;
  pending.request = std::move(request);
  pending.index = resolve(study, &pending.study_ordinal);
  if (pending.index == nullptr) {
    unknown_study_.fetch_add(1, std::memory_order_relaxed);
    return Reject::kUnknownStudy;
  }
  pending.done = std::move(done);
  const QueryType type = query_type(pending.request);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= config_.queue_capacity) {
      // Overload: shed rather than grow or stall.
      counters_[static_cast<int>(type)].rejected.fetch_add(
          1, std::memory_order_relaxed);
      study_counters_[pending.study_ordinal]->rejected.fetch_add(
          1, std::memory_order_relaxed);
      return Reject::kOverloaded;
    }
    queue_.push_back(std::move(pending));
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  }
  cv_.notify_one();
  return Reject::kNone;
}

std::size_t OracleService::drain(std::size_t max_requests) {
  std::size_t served = 0;
  while (served < max_requests) {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    serve_one(pending);
    ++served;
  }
  return served;
}

void OracleService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Deterministic mode (no workers): serve what was accepted before the
  // stop, honoring the accepted-implies-answered contract.
  drain();
}

OracleStatsView OracleService::stats() const {
  OracleStatsView view;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    view.per_type[t] = counters_[t].read();
    view.served += view.per_type[t].served;
    view.rejected += view.per_type[t].rejected;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.peak_queue_depth = peak_queue_depth_;
  }
  view.unknown_study = unknown_study_.load(std::memory_order_relaxed);

  view.per_study.reserve(study_counters_.size());
  for (std::size_t i = 0; i < study_counters_.size(); ++i)
    view.per_study.push_back(OracleStatsView::PerStudy{
        catalog_->studies()[i]->name, study_counters_[i]->read()});
  return view;
}

}  // namespace irp
