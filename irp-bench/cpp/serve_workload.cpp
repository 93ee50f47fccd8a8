// The serving workloads. The server under test is the unmodified
// `run_study_cli serve --listen 0 --workers 2` process; this file is its
// load generator (at most 4 connections, at most 4 threads), its answer
// checker, and the traced run that peels the serving layers one at a time.
//
//   serve_closed  one study; one connection, one request outstanding.
//   serve_open    two studies behind one endpoint; Poisson arrivals at a
//                 fixed ladder of rates from one generator thread over 4
//                 pipelined connections, each request timed from when it
//                 was due, then a saturated phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "serve/byte_io.hpp"
#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/wire.hpp"
#include "server_process.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "workloads.hpp"

namespace irpbench {

using namespace irp;

namespace {

/// Connection cap of the load generator (open loop: all pipelined).
constexpr int kConnections = 4;
/// serve_closed uses one: with several connections, other clients' frames
/// wake the server's poll loop early, so how often a request waits out the
/// loop's 1 ms poll sleep (and with it the throughput, 13k-50k/s) changed
/// from run to run. One connection meets that sleep on every request.
constexpr int kClosedConnections = 1;
constexpr std::size_t kHotSet = 1024;
constexpr std::size_t kClosedStream = 16384;
constexpr std::size_t kOpenStream = 65536;
/// serve_open's ladder (requests/s), each rung checked against the p99
/// limit. The first rung is the reference rate whose latency is reported:
/// at 500/s a request mostly meets an idle server, whereas at 2,000/s the
/// p50 swung 0.52-0.94 ms with the machine's other load. The last rung's
/// sustained rate is the gated throughput; saturation is only reported,
/// since it moved 73k-319k/s from run to run.
constexpr double kOpenRates[] = {500, 4000, 32000};
constexpr double kReferenceRate = kOpenRates[0];
constexpr double kLatencyLimitUs = 10000;
/// Per-connection in-flight cap of the open-loop generator: 4 x 64 stays
/// far below the server's admission queue, so overload shows as latency,
/// never as shed requests. The saturated phase keeps kSaturationWindow
/// requests in flight per connection.
constexpr std::size_t kWindow = 64;
constexpr std::size_t kSaturationWindow = 16;
/// A generator that ran later than this at p99 (in any rung, as the median
/// of 10 time windows' p99s, so one stall of the shared machine does not
/// count) cannot judge the latency limit; the run is flagged as invalid.
constexpr double kLagLimitUs = kLatencyLimitUs;
/// Every this-many requests one is traced with per-request spans.
constexpr std::uint64_t kSampleEvery = 64;

std::uint64_t answer_hash(const OracleResponse& response) {
  return fnv1a64(to_text(response));
}

/// A precomputed request stream with the expected answer of each request.
struct Stream {
  std::vector<OracleRequest> requests;
  std::vector<std::uint8_t> study;  ///< Index into `study_ids`.
  std::vector<std::uint64_t> expected;
  /// fnv1a64 of the expected reply's frame payload: the open-loop generator
  /// checks answers byte for byte without decoding them.
  std::vector<std::uint64_t> expected_payload;
  /// Wire study id per study ("" = the server's default study).
  std::vector<std::string> study_ids;

  std::size_t size() const { return requests.size(); }
  const std::string& study_of(std::size_t i) const {
    return study_ids[study[i % size()]];
  }
};

/// Loads every study into a fresh catalog with the server's default budget.
std::unique_ptr<StudyCatalog> load_catalog(
    const std::vector<ServedStudy>& studies) {
  auto catalog = std::make_unique<StudyCatalog>();
  for (const ServedStudy& s : studies)
    catalog->add_study(s.name, OracleSnapshot::from_bytes(s.image));
  return catalog;
}

OracleService::Config service_config(std::size_t studies, int workers) {
  OracleService::Config config;
  config.worker_threads = workers;
  // The server's multi-study setting (run_study_cli serve).
  if (studies > 1) config.cache_rebalance_every = 4096;
  return config;
}

ScenarioOptions scenario(std::size_t k) {
  ScenarioOptions s;
  if (k == 1) s.use_hybrid = true;
  if (k == 2) s.use_siblings = true;
  if (k == 3) s.psp = PspMode::kCriteria1;
  if (k == 4) s.psp = PspMode::kCriteria2;
  return s;
}
constexpr std::size_t kScenarios = 5;

/// Draws the workload's request mix from the studies' own keys and
/// computes every expected answer on `catalog` (before any timing).
Stream make_stream(Mix mix, const std::vector<ServedStudy>& studies,
                   const StudyCatalog& catalog, std::uint64_t seed,
                   std::size_t n, bool inject_bad_answer) {
  Rng rng{seed * 0x9e3779b97f4a7c15ULL + (mix == Mix::kOpen ? 2 : 1)};
  Stream s;
  if (mix == Mix::kClosed)
    s.study_ids = {""};
  else
    for (const ServedStudy& st : studies) s.study_ids.push_back(st.name);

  struct Keys {
    std::vector<std::pair<Asn, Ipv4Prefix>> routes;
    std::vector<PspVisibilityRequest> psp;
    std::vector<std::pair<std::size_t, std::size_t>> hot;  // decision, scen.
  };
  std::vector<Keys> keys(s.study_ids.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const OracleSnapshot& snap = catalog.find(studies[i].name)->snapshot;
    for (const auto& block : snap.routes)
      for (const auto& entry : block.entries)
        keys[i].routes.emplace_back(entry.asn, block.prefix);
    for (const auto& block : snap.observations)
      for (const auto& [origin, neighbor] : block.pairs)
        keys[i].psp.push_back({origin, neighbor, block.prefix});
    IRP_CHECK(!keys[i].routes.empty() && !keys[i].psp.empty() &&
                  !snap.relationships.empty() && !studies[i].decisions.empty(),
              "study has nothing to query");
    if (mix == Mix::kClosed)
      for (std::size_t h = 0; h < kHotSet; ++h)
        keys[i].hot.emplace_back(rng.index(studies[i].decisions.size()),
                                 rng.index(kScenarios));
  }

  OracleService local(&catalog, service_config(studies.size(), 0));
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t st = mix == Mix::kOpen && rng.chance(0.2) ? 1 : 0;
    const OracleSnapshot& snap = catalog.find(studies[st].name)->snapshot;
    const double u = rng.uniform();
    OracleRequest request;
    const bool classify = mix == Mix::kClosed ? u < 0.70 : u < 0.60;
    const bool routes = mix == Mix::kClosed ? u < 0.80 : u < 0.85;
    const bool psp = mix == Mix::kClosed ? u < 0.90 : u < 0.925;
    if (classify) {
      std::size_t d = 0, k = 0;
      if (mix == Mix::kClosed) {
        std::tie(d, k) = rng.pick(keys[st].hot);
      } else {
        d = rng.index(studies[st].decisions.size());
        k = rng.index(kScenarios);
      }
      request = ClassifyRequest{studies[st].decisions[d], scenario(k)};
    } else if (routes) {
      const auto& [asn, prefix] = rng.pick(keys[st].routes);
      request = AlternateRoutesRequest{asn, prefix};
    } else if (psp) {
      request = rng.pick(keys[st].psp);
    } else {
      const auto& rel = rng.pick(snap.relationships);
      request = rng.chance(0.5) ? RelationshipLookupRequest{rel.a, rel.b}
                                : RelationshipLookupRequest{rel.b, rel.a};
    }
    const OracleResponse answer = local.answer(request, studies[st].name);
    s.expected.push_back(answer_hash(answer));
    std::string reply = encode_response(0, answer);
    s.expected_payload.push_back(fnv1a64(try_decode_frame(reply)->payload));
    s.requests.push_back(std::move(request));
    s.study.push_back(std::uint8_t(st));
  }
  // Index 1 is never the set-up probe (index 0) but is always sent early.
  if (inject_bad_answer) {
    s.expected[1] ^= 1;
    s.expected_payload[1] ^= 1;
  }
  return s;
}

// -- Closed loop: blocking OracleClients, one request outstanding each.

struct Phase {
  std::vector<double> latency_us;
  std::vector<double> done_s;  ///< Completion time since the phase began.
  ServeCounts counts;
  double elapsed_s = 0;
  int peak_threads = 0;
};

/// Drives `connections` OracleClients (connections - 1 threads plus the
/// calling thread) for `seconds`, starting at stream position `offset`.
/// A non-null tracer gets one span per sampled request.
Phase run_closed(std::uint16_t port, const Stream& s, int connections,
                 std::size_t offset, double seconds, Tracer* tracer) {
  struct PerConn {
    std::vector<double> latency_us;
    std::vector<double> done_s;
    ServeCounts counts;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    std::vector<std::uint64_t> span_ids;
  };
  std::vector<PerConn> per(static_cast<std::size_t>(connections));
  int peak_threads = 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto drive = [&](int c) {
    OracleClient::Config config;
    config.port = port;
    config.max_retries = 0;  // A retry would hide a failure.
    config.study = s.study_of(0);
    OracleClient client(config);
    PerConn& me = per[std::size_t(c)];
    for (std::size_t k = 0;; ++k) {
      const auto t0 = Clock::now();
      if (t0 >= deadline) break;
      const std::size_t i =
          offset + std::size_t(c) + k * std::size_t(connections);
      ++me.counts.attempted;
      try {
        const OracleResponse response = client.call(s.requests[i % s.size()]);
        const auto t1 = Clock::now();
        me.latency_us.push_back(micros_between(t0, t1));
        me.done_s.push_back(seconds_between(start, t1));
        if (answer_hash(response) != s.expected[i % s.size()]) {
          ++me.counts.mismatched;
          ++me.counts.failed;
        }
        if (tracer != nullptr && i % kSampleEvery == 0) {
          me.spans.emplace_back(t0, t1);
          me.span_ids.push_back(i + 1);
        }
      } catch (const CheckError&) {
        ++me.counts.failed;
      }
      if (c == 0 && k % 256 == 0)
        peak_threads = std::max(peak_threads, thread_count());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < connections; ++c) threads.emplace_back(drive, c);
  drive(0);
  for (std::thread& t : threads) t.join();

  Phase phase;
  phase.elapsed_s = seconds_between(start, Clock::now());
  phase.peak_threads = peak_threads;
  for (PerConn& me : per) {
    phase.latency_us.insert(phase.latency_us.end(), me.latency_us.begin(),
                            me.latency_us.end());
    phase.done_s.insert(phase.done_s.end(), me.done_s.begin(), me.done_s.end());
    phase.counts.attempted += me.counts.attempted;
    phase.counts.failed += me.counts.failed;
    phase.counts.mismatched += me.counts.mismatched;
    if (tracer != nullptr)
      for (std::size_t j = 0; j < me.spans.size(); ++j)
        tracer->add("serve.remote.roundtrip", me.spans[j].first,
                    me.spans[j].second, -1, me.span_ids[j]);
  }
  return phase;
}

// -- Open loop: one generator thread, pipelined raw sockets.

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  IRP_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  IRP_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
                0,
            "connect to the server failed");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Rung {
  double rate = 0;  ///< 0 = saturation: send whenever the window allows.
  double elapsed_s = 0;
  std::vector<double> latency_us;  ///< From due time to reply.
  std::vector<double> done_s;      ///< Reply time since the rung began.
  std::vector<double> lag_us;      ///< How late the generator sent.
  std::vector<double> lag_at_s;    ///< Send time since the rung began.
  ServeCounts counts;
  std::size_t unsent = 0;  ///< Arrivals still queued when the rung ended.
  bool pass = false;
  double p99_us() const { return windowed_p99(latency_us, done_s); }
  double lag_p99_us() const { return windowed_p99(lag_us, lag_at_s); }
};

class OpenLoop {
 public:
  OpenLoop(std::uint16_t port, const Stream& stream, std::uint64_t seed)
      : stream_(stream), rng_(seed ^ 0x6f70656eULL) {
    conns_.resize(kConnections);
    for (Conn& c : conns_) c.fd = connect_loopback(port);
  }
  ~OpenLoop() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Poisson arrivals at `rate` (or, at rate 0, a request whenever the
  /// window has room) for `seconds`, then waits (bounded) for the replies
  /// still in flight.
  Rung run(double rate, double seconds, Tracer* tracer,
           std::size_t window = kWindow);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
    std::size_t inflight = 0;
    Clock::time_point window_open{};
  };
  struct Pending {
    Clock::time_point due;
    Clock::time_point sent;
    std::size_t index = 0;
  };

  void flush(Conn& c);
  void receive(Conn& c, Rung& rung, Clock::time_point start, Tracer* tracer);

  const Stream& stream_;
  Rng rng_;
  std::vector<Conn> conns_;
  std::size_t window_ = kWindow;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::uint64_t first_id_ = 1;  ///< First request id of the current rung.
  std::size_t next_index_ = 0;
  int rr_ = 0;
};

void OpenLoop::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += std::size_t(n);
      continue;
    }
    IRP_CHECK(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR),
              "send to the server failed");
    if (errno != EINTR) break;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

void OpenLoop::receive(Conn& c, Rung& rung, Clock::time_point start,
                       Tracer* tracer) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, std::size_t(n));
      continue;
    }
    IRP_CHECK(n != 0, "server closed a connection");
    if (errno == EINTR) continue;
    IRP_CHECK(errno == EAGAIN || errno == EWOULDBLOCK,
              "recv from the server failed");
    break;
  }
  const auto now = Clock::now();
  // Hand try_decode_frame one complete frame at a time, cut at its header's
  // payload size, so a burst of replies costs linear time here.
  while (c.in.size() - c.in_off >= kWireHeaderBytes) {
    std::uint32_t payload = 0;
    std::memcpy(&payload, c.in.data() + c.in_off + 16, sizeof payload);
    const std::size_t frame_len = kWireHeaderBytes + payload;
    if (c.in.size() - c.in_off < frame_len) break;
    std::string one = c.in.substr(c.in_off, frame_len);
    c.in_off += frame_len;
    const std::optional<WireFrame> frame = try_decode_frame(one);
    IRP_CHECK(frame.has_value(), "incomplete reply frame");
    const auto it = pending_.find(frame->request_id);
    // A late reply to a request an earlier rung gave up on (and counted as
    // failed) is dropped.
    if (it == pending_.end() && frame->request_id < first_id_) continue;
    IRP_CHECK(it != pending_.end(), "reply to an unknown request id");
    const Pending p = it->second;
    pending_.erase(it);
    if (c.inflight-- == window_) c.window_open = now;
    rung.latency_us.push_back(micros_between(p.due, now));
    rung.done_s.push_back(seconds_between(start, now));
    if (fnv1a64(frame->payload) !=
        stream_.expected_payload[p.index % stream_.size()]) {
      ++rung.counts.failed;
      // A typed answer that differs is wrong; an error frame was shed,
      // refused or errored.
      if (std::holds_alternative<OracleResponse>(decode_reply(*frame)))
        ++rung.counts.mismatched;
    }
    if (tracer != nullptr && p.index % kSampleEvery == 0)
      tracer->add("serve.remote.roundtrip", p.sent, now, -1, frame->request_id);
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  }
}

Rung OpenLoop::run(double rate, double seconds, Tracer* tracer,
                   std::size_t window) {
  window_ = window;
  first_id_ = next_id_;
  Rung rung;
  rung.rate = rate;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto drain_deadline = end + std::chrono::seconds(2);
  const auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rng_.exponential(1.0 / rate)));
  };
  Clock::time_point next_due = rate > 0 ? start + gap() : start;
  std::vector<pollfd> fds(conns_.size());
  for (;;) {
    auto now = Clock::now();
    // Send everything due, as long as some connection has window left.
    if (rate == 0) next_due = now;
    while (next_due <= now && next_due < end) {
      int chosen = -1;
      for (int k = 0; k < kConnections && chosen < 0; ++k) {
        const int c = (rr_ + k) % kConnections;
        if (conns_[std::size_t(c)].inflight < window_) chosen = c;
      }
      if (chosen < 0) break;  // Backpressure: the arrival waits, late.
      rr_ = (chosen + 1) % kConnections;
      Conn& conn = conns_[std::size_t(chosen)];
      const std::size_t index = next_index_++;
      const std::uint64_t id = next_id_++;
      conn.out += encode_request(id, stream_.requests[index % stream_.size()],
                                 stream_.study_of(index));
      ++conn.inflight;
      pending_[id] = Pending{next_due, now, index};
      if (rate > 0) {
        rung.lag_us.push_back(
            micros_between(std::max(next_due, conn.window_open), now));
        rung.lag_at_s.push_back(seconds_between(start, now));
      }
      ++rung.counts.attempted;
      next_due += rate > 0 ? gap() : Clock::duration(0);
    }
    for (Conn& c : conns_)
      if (c.out_off < c.out.size()) flush(c);
    if (now >= end && pending_.empty()) break;
    if (now >= drain_deadline) break;

    // Sleep until the next arrival, or until a reply frees the window.
    const bool window_free =
        std::any_of(conns_.begin(), conns_.end(),
                    [&](const Conn& c) { return c.inflight < window_; });
    auto wait = std::chrono::nanoseconds(1'000'000);
    if (next_due < end && window_free)
      wait = std::clamp<std::chrono::nanoseconds>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(next_due - now),
          std::chrono::nanoseconds(0), wait);
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = short(
          POLLIN | (conns_[c].out_off < conns_[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec ts{0, long(wait.count())};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    IRP_CHECK(ready >= 0 || errno == EINTR, "ppoll failed");
    for (std::size_t c = 0; c < conns_.size(); ++c)
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP))
        receive(conns_[c], rung, start, tracer);
  }
  rung.elapsed_s = seconds_between(start, Clock::now());
  // Arrivals that never got a window before the rung ended.
  if (rate > 0)
    for (; next_due < end; next_due += gap()) ++rung.unsent;
  // Replies that never came within the drain bound count as failed.
  rung.counts.failed += pending_.size();
  for (Conn& c : conns_) c.inflight = 0;
  pending_.clear();
  rung.pass = rung.counts.failed == 0 && rung.unsent == 0 &&
              rung.p99_us() <= kLatencyLimitUs;
  return rung;
}

std::string write_images(const RunOptions& options,
                         const std::vector<ServedStudy>& studies,
                         std::vector<std::string>* args) {
  // One set of files per workload, overwritten by the next run.
  const std::string stem = options.work_dir + "/" + options.workload;
  for (const ServedStudy& s : studies) {
    const std::string path = stem + "-" + s.name + ".snap";
    write_file(path, s.image);
    args->push_back("--snapshot");
    args->push_back(s.name + "=" + path);
  }
  args->insert(args->end(), {"--workers", "2", "--listen", "0"});
  return stem + "-server.log";
}

/// The studies a serving workload hosts: the seed's study (traced when
/// `tracer` is given), plus a second Internet for the two-study catalog.
std::vector<ServedStudy> build_studies(const RunOptions& options, Mix mix,
                                       Tracer* tracer, Result* layers) {
  std::vector<ServedStudy> studies;
  const auto add = [&](const char* name, std::uint64_t campaign,
                       std::uint64_t topology, bool traced) {
    ServedStudy s;
    s.name = name;
    const StudyConfig config =
        study_config(campaign, topology, 4, options.tiny, traced);
    StudyResults r = traced ? traced_study(config, *tracer, *layers)
                            : run_full_study(config);
    if (traced) {
      ScopedSpan span(*tracer, "serve.snapshot.build");
      s.image = study_image(r);
      layers->add("serve.snapshot.build_s", span.stop(), "s");
      layers->add("serve.snapshot.bytes", double(s.image.size()), "B");
    } else {
      s.image = study_image(r);
    }
    s.decisions = std::move(r.passive.decisions);
    studies.push_back(std::move(s));
  };
  add("main", options.seed, kMainTopologySeed, tracer != nullptr);
  if (mix == Mix::kOpen) add("alt", options.seed + 1, kAltTopologySeed, false);
  return studies;
}

double p50_of(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Throughput a phase sustained: completions per second in each of 20
/// equal spans of it, upper quartile. A co-tenant stealing CPU only ever
/// lowers a span, and one burst of replies after a stall lifts only one.
double sustained_rate(const std::vector<double>& done_s, double elapsed_s) {
  constexpr int kWindows = 20;
  const double span = elapsed_s / kWindows;
  std::vector<double> rates(kWindows, 0.0);
  for (double t : done_s)
    rates[std::min<std::size_t>(kWindows - 1, std::size_t(t / span))] += 1;
  for (double& r : rates) r /= span;
  return quantile(rates, 0.75);
}

void add_counts(ServeCounts& into, const ServeCounts& c) {
  into.attempted += c.attempted;
  into.failed += c.failed;
  into.mismatched += c.mismatched;
}

/// Spawns the server and times spawn -> first correct answer.
std::unique_ptr<ServerProcess> spawn_server(
    const RunOptions& options, const std::vector<std::string>& args,
    const std::string& log, const Stream& stream, double* setup_s,
    std::uint16_t* port_out) {
  const auto t0 = Clock::now();
  auto server = std::make_unique<ServerProcess>(options.run_study_cli, args,
                                                log);
  const std::uint16_t port = server->wait_port(60);
  *port_out = port;
  OracleClient::Config config;
  config.port = port;
  config.study = stream.study_of(0);
  OracleClient client(config);
  const bool ok = answer_hash(client.call(stream.requests[0])) ==
                  stream.expected[0];
  *setup_s = seconds_between(t0, Clock::now());
  IRP_CHECK(ok, "the server's first answer is wrong");
  return server;
}

}  // namespace

void trace_serve_layers(const RunOptions& options,
                        const std::vector<ServedStudy>& studies, Mix mix,
                        bool overhead, Tracer& tracer, Result& layers,
                        ServeCounts& counts) {
  // Snapshot load and catalog build (index build included), timed fresh.
  std::vector<double> load_s, catalog_s;
  std::unique_ptr<StudyCatalog> catalog;
  for (int rep = 0; rep < 3; ++rep) {
    {
      ScopedSpan span(tracer, "serve.snapshot.load");
      for (const ServedStudy& s : studies)
        (void)OracleSnapshot::from_bytes(s.image);
      load_s.push_back(span.stop());
    }
    ScopedSpan span(tracer, "serve.catalog.load");
    catalog = load_catalog(studies);
    catalog_s.push_back(span.stop());
  }
  layers.add("serve.snapshot.load_s", median(load_s), "s");
  layers.add("serve.catalog.load_s", median(catalog_s), "s");
  layers.add("serve.catalog.arena_sharing", catalog->arena_stats().sharing(),
             "ratio");

  const auto expect_catalog = load_catalog(studies);
  const std::size_t per_layer = options.tiny ? 400 : 4000;
  // The open mix's index step runs long enough to fill the classify-cache
  // budget, so that evictions show.
  const std::size_t index_n = mix == Mix::kOpen ? 4 * per_layer : per_layer;
  const std::size_t service_at = index_n, codec_at = index_n + per_layer,
                    server_at = index_n + 2 * per_layer;
  const Stream stream = make_stream(mix, studies, *expect_catalog,
                                    options.seed, index_n + 3 * per_layer,
                                    options.inject_bad_answer);
  const auto check = [&](std::size_t i, const OracleResponse& response) {
    ++counts.attempted;
    if (answer_hash(response) != stream.expected[i]) {
      ++counts.mismatched;
      ++counts.failed;
    }
  };
  const auto cache_totals = [&] {
    ClassifyCache::Stats sum;
    for (const auto& per : catalog->cache_budget().per_study) {
      sum.hits += per.stats.hits;
      sum.misses += per.stats.misses;
      sum.evictions += per.stats.evictions;
    }
    return sum;
  };

  // 1. Index: synchronous OracleService::answer.
  std::vector<double> eval_us;
  {
    OracleService local(catalog.get(), service_config(studies.size(), 0));
    const ClassifyCache::Stats before = cache_totals();
    ScopedSpan layer(tracer, "serve.index");
    for (std::size_t i = 0; i < index_n; ++i) {
      const auto t0 = Clock::now();
      const OracleResponse response =
          local.answer(stream.requests[i], stream.study_of(i));
      const auto t1 = Clock::now();
      eval_us.push_back(micros_between(t0, t1));
      check(i, response);
      if (i % kSampleEvery == 0)
        tracer.add("serve.index.evaluate", t0, t1, layer.index(), i + 1);
    }
    layer.stop();
    const ClassifyCache::Stats after = cache_totals();
    const double hits = double(after.hits - before.hits);
    const double misses = double(after.misses - before.misses);
    layers.add("serve.index.evaluate_p50_us", p50_of(eval_us), "us");
    layers.add("serve.index.evaluate_p99_us", quantile(eval_us, 0.99), "us");
    layers.add("serve.index.cache_hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    layers.add("serve.index.cache_evictions",
               double(after.evictions - before.evictions), "count");
  }

  // 2. Service: submit + future, one outstanding, two workers.
  std::vector<double> service_us;
  {
    OracleService service(catalog.get(), service_config(studies.size(), 2));
    ScopedSpan layer(tracer, "serve.service");
    for (std::size_t i = service_at; i < service_at + per_layer; ++i) {
      const auto t0 = Clock::now();
      OracleService::Submitted sub =
          service.submit(stream.requests[i], stream.study_of(i));
      if (!sub.accepted) {
        ++counts.attempted;
        ++counts.failed;
        continue;
      }
      const OracleResponse response = sub.response.get();
      const auto t1 = Clock::now();
      check(i, response);
      service_us.push_back(micros_between(t0, t1));
      if (i % kSampleEvery == 0)
        tracer.add("serve.service.roundtrip", t0, t1, layer.index(), i + 1);
    }
  }
  const double handoff_us = p50_of(service_us) - p50_of(eval_us);
  layers.add("serve.service.handoff_p50_us", handoff_us, "us");

  // 3. Wire codec: every encode/decode a request and its reply go through.
  std::vector<double> codec_us;
  {
    OracleService local(catalog.get(), service_config(studies.size(), 0));
    ScopedSpan layer(tracer, "serve.wire");
    for (std::size_t i = codec_at; i < codec_at + per_layer; ++i) {
      const OracleResponse answer =
          local.answer(stream.requests[i], stream.study_of(i));
      const auto t0 = Clock::now();
      std::string bytes = encode_request(i + 1, stream.requests[i],
                                         stream.study_of(i));
      const std::optional<WireFrame> frame = try_decode_frame(bytes);
      IRP_CHECK(frame.has_value(), "request frame did not decode");
      (void)decode_request(*frame);
      std::string reply_bytes = encode_response(i + 1, answer);
      const std::optional<WireFrame> reply_frame =
          try_decode_frame(reply_bytes);
      IRP_CHECK(reply_frame.has_value(), "reply frame did not decode");
      const auto reply = decode_reply(*reply_frame);
      const auto t1 = Clock::now();
      codec_us.push_back(micros_between(t0, t1));
      const auto* response = std::get_if<OracleResponse>(&reply);
      IRP_CHECK(response != nullptr, "reply decoded as an error");
      check(i, *response);
      if (i % kSampleEvery == 0)
        tracer.add("serve.wire.codec", t0, t1, layer.index(), i + 1);
    }
  }
  layers.add("serve.wire.codec_us", p50_of(codec_us), "us");

  // 4. Server: loopback round trips against an in-process OracleServer.
  std::vector<double> rtt_us;
  {
    OracleService service(catalog.get(), service_config(studies.size(), 2));
    OracleServer server(&service, OracleServer::Config{});
    server.start();
    std::vector<std::unique_ptr<OracleClient>> clients;
    for (const std::string& id : stream.study_ids) {
      OracleClient::Config config;
      config.port = server.port();
      config.study = id;
      config.max_retries = 0;
      clients.push_back(std::make_unique<OracleClient>(config));
    }
    ScopedSpan layer(tracer, "serve.server");
    for (std::size_t i = server_at; i < server_at + per_layer; ++i) {
      const auto t0 = Clock::now();
      try {
        const OracleResponse response =
            clients[stream.study[i]]->call(stream.requests[i]);
        const auto t1 = Clock::now();
        check(i, response);
        rtt_us.push_back(micros_between(t0, t1));
        if (i % kSampleEvery == 0)
          tracer.add("serve.server.roundtrip", t0, t1, layer.index(), i + 1);
      } catch (const CheckError&) {
        ++counts.attempted;
        ++counts.failed;
      }
    }
    layer.stop();
    clients.clear();
    server.shutdown();
  }
  layers.add("serve.server.loop_p50_us",
             p50_of(rtt_us) - handoff_us - p50_of(eval_us) - p50_of(codec_us),
             "us");

  // 5. The run_study_cli server under this workload's traffic, for its
  // drain counters (and, when asked, the tracing overhead).
  std::vector<std::string> args{"serve"};
  const std::string log = write_images(options, studies, &args);
  double setup_s = 0;
  std::uint16_t port = 0;
  auto server = spawn_server(options, args, log, stream, &setup_s, &port);
  double untraced_p50 = 0, traced_p50 = 0;
  const double phase_s = options.tiny ? 0.3 : 1.0;
  // A warm-up phase, then the same phase untraced and traced.
  if (mix == Mix::kClosed) {
    add_counts(counts, run_closed(port, stream, kClosedConnections, 0,
                                  phase_s, nullptr)
                           .counts);
    const Phase a =
        run_closed(port, stream, kClosedConnections, 0, phase_s, nullptr);
    const Phase b =
        run_closed(port, stream, kClosedConnections, 0, phase_s, &tracer);
    add_counts(counts, a.counts);
    add_counts(counts, b.counts);
    untraced_p50 = p50_of(a.latency_us);
    traced_p50 = p50_of(b.latency_us);
  } else {
    OpenLoop gen(port, stream, options.seed);
    add_counts(counts, gen.run(kReferenceRate, phase_s, nullptr).counts);
    const Rung a = gen.run(kReferenceRate, phase_s, nullptr);
    const Rung b = gen.run(kReferenceRate, phase_s, &tracer);
    add_counts(counts, a.counts);
    add_counts(counts, b.counts);
    untraced_p50 = p50_of(a.latency_us);
    traced_p50 = p50_of(b.latency_us);
  }
  std::printf("# remote phase p50: untraced %.1fus, traced %.1fus\n",
              untraced_p50, traced_p50);
  if (overhead)
    layers.add("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
  const auto drained = parse_drain_counters(server->stop(30));
  const auto counter = [&](const char* key) {
    const auto it = drained.find(key);
    IRP_CHECK(it != drained.end(),
              std::string("server drain line lacks ") + key);
    return it->second;
  };
  const double frames_in = counter("frames_in");
  layers.add("serve.service.peak_queue_depth", counter("peak_queue"),
             "count");
  layers.add("serve.service.shed", counter("shed"), "count");
  layers.add("serve.server.frames_in", frames_in, "count");
  layers.add("serve.server.bytes_per_request",
             (counter("bytes_in") + counter("bytes_out")) /
                 std::max(1.0, frames_in),
             "B");
  layers.add("serve.server.decode_errors", counter("decode_errors"), "count");
}

int emit_traced(const RunOptions& options, const Tracer& tracer,
                const Result& layers) {
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  tracer.write_json(path);
  std::printf("# spans: %zu written to %s; self time by span name:\n",
              tracer.spans().size(), path.c_str());
  for (const Tracer::SelfTime& row : tracer.self_times())
    std::printf("#   %-32s n=%-6zu total=%10.6f s self=%10.6f s\n",
                row.name.c_str(), row.count, row.total_s, row.self_s);
  std::printf("%s", layers.text().c_str());
  std::printf("%s\n", layers.json().c_str());
  return layers.correct ? 0 : 1;
}

int run_serve_workload(const RunOptions& options) {
  const Mix mix = options.workload == "serve_open" ? Mix::kOpen : Mix::kClosed;

  if (options.trace) {
    Tracer tracer;
    Result layers;
    const std::vector<ServedStudy> studies =
        build_studies(options, mix, &tracer, &layers);
    ServeCounts counts;
    trace_serve_layers(options, studies, mix, true, tracer, layers, counts);
    layers.correct = counts.mismatched == 0;
    layers.attempted = counts.attempted;
    layers.failed = counts.failed;
    return emit_traced(options, tracer, layers);
  }

  const std::vector<ServedStudy> studies =
      build_studies(options, mix, nullptr, nullptr);
  const auto catalog = load_catalog(studies);
  const Stream stream =
      make_stream(mix, studies, *catalog, options.seed,
                  mix == Mix::kOpen ? kOpenStream : kClosedStream,
                  options.inject_bad_answer);
  std::vector<std::string> args{"serve"};
  const std::string log = write_images(options, studies, &args);

  // Set-up: spawn -> first correct answer, five times; the last server
  // stays up for the measurement.
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  std::uint16_t port = 0;
  for (int i = 0; i < 5; ++i) {
    if (server) server->stop(30);
    double s = 0;
    server = spawn_server(options, args, log, stream, &s, &port);
    setup.push_back(s);
  }

  Result result;
  ServeCounts counts;
  std::vector<double> latency_us, done_s;
  double ops_per_s = 0, lag_p99_us = 0;
  int peak_threads = thread_count();
  double cpu_s = 0;  // Server CPU over `cpu_ops` measured requests.
  std::uint64_t cpu_ops = 0;
  const double warm_s = options.tiny ? 0.2 : 1.0;
  if (mix == Mix::kClosed) {
    add_counts(counts,
               run_closed(port, stream, kClosedConnections, 0, warm_s, nullptr)
                   .counts);
    const double c0 = pid_cpu_seconds(server->pid());
    const Phase phase = run_closed(port, stream, kClosedConnections, kHotSet,
                                   options.seconds, nullptr);
    cpu_s = pid_cpu_seconds(server->pid()) - c0;
    cpu_ops = phase.latency_us.size();
    add_counts(counts, phase.counts);
    latency_us = phase.latency_us;
    done_s = phase.done_s;
    ops_per_s = sustained_rate(phase.done_s, phase.elapsed_s);
    peak_threads = std::max(peak_threads, phase.peak_threads);
    std::printf(
        "# load: closed loop, %d connection(s) x 1 outstanding, loopback "
        "TCP to run_study_cli serve (pid %d); %.2f s; samples=%llu\n",
        kClosedConnections, int(server->pid()), phase.elapsed_s,
        static_cast<unsigned long long>(cpu_ops));
  } else {
    OpenLoop gen(port, stream, options.seed);
    add_counts(counts, gen.run(kReferenceRate, warm_s, nullptr).counts);
    // 40% of the time at the reference rate, 15% on each higher rung, 30%
    // saturated. Server CPU per request is taken at the reference rate,
    // where the offered load is fixed.
    std::vector<Rung> rungs;
    for (double rate : kOpenRates) {
      const double c0 = pid_cpu_seconds(server->pid());
      rungs.push_back(gen.run(
          rate, options.seconds * (rate == kReferenceRate ? 0.40 : 0.15),
          nullptr));
      if (rate == kReferenceRate) {
        cpu_s = pid_cpu_seconds(server->pid()) - c0;
        cpu_ops = rungs.back().latency_us.size();
      }
    }
    const Rung saturated =
        gen.run(0, options.seconds * 0.30, nullptr, kSaturationWindow);
    double max_within_limit = 0;
    bool all_pass = true;
    for (const Rung& r : rungs) {
      add_counts(counts, r.counts);
      lag_p99_us = std::max(lag_p99_us, r.lag_p99_us());
      all_pass = all_pass && r.pass;
      if (all_pass) max_within_limit = r.rate;
      std::printf(
          "# rung %6.0f/s: sent=%llu p50=%.1fus p99=%.1fus failed=%llu "
          "unsent=%zu lag_p99=%.1fus %s\n",
          r.rate, static_cast<unsigned long long>(r.counts.attempted),
          p50_of(r.latency_us), r.p99_us(),
          static_cast<unsigned long long>(r.counts.failed), r.unsent,
          r.lag_p99_us(), r.pass ? "within limit" : "OVER LIMIT");
    }
    add_counts(counts, saturated.counts);
    latency_us = rungs.front().latency_us;
    done_s = rungs.front().done_s;
    ops_per_s = sustained_rate(rungs.back().done_s, rungs.back().elapsed_s);
    const double saturated_rate =
        sustained_rate(saturated.done_s, saturated.elapsed_s);
    peak_threads = std::max(peak_threads, thread_count());
    std::printf(
        "# saturated: %d connections x window %zu kept full for %.2f s: "
        "%.0f replies/s, p50=%.1fus p99=%.1fus\n",
        kConnections, kSaturationWindow, saturated.elapsed_s, saturated_rate,
        p50_of(saturated.latency_us), saturated.p99_us());
    std::printf(
        "# load: open loop, Poisson arrivals at %.0f/s (reference; %zu "
        "samples), 4000/s and 32000/s, then saturated; p99 limit %.0fus; "
        "highest ladder rate within it: %.0f/s; %d pipelined connections "
        "from 1 thread, loopback TCP to run_study_cli serve (pid %d); "
        "generator lag p99=%.1fus (bound %.0fus)\n",
        kReferenceRate, latency_us.size(), kLatencyLimitUs, max_within_limit,
        kConnections, int(server->pid()), lag_p99_us, kLagLimitUs);
  }
  const double rss = peak_rss_mb(server->pid());
  const std::string drained = server->stop(30);
  const std::size_t wire = drained.find("# wire:");
  std::printf("# server drain: %s",
              wire == std::string::npos ? "(no counters)\n"
                                        : drained.c_str() + wire);

  std::printf("# answers: %llu attempted, %llu failed (%llu wrong); "
              "failed_frac=%.6f; threads peak=%d\n",
              static_cast<unsigned long long>(counts.attempted),
              static_cast<unsigned long long>(counts.failed),
              static_cast<unsigned long long>(counts.mismatched),
              double(counts.failed) / double(std::max<std::uint64_t>(
                                          1, counts.attempted)),
              peak_threads);
  if (peak_threads > kConnections) {
    std::fprintf(stderr,
                 "INVALID run: load generator used %d threads (max %d)\n",
                 peak_threads, kConnections);
    return 3;
  }
  // A late generator is the machine's doing, not the program's: the run is
  // flagged, and still reported, since its gated figures (the p50 from due
  // time and the sustained rate) show the stall as a worse value.
  if (lag_p99_us > kLagLimitUs) {
    std::printf("# INVALID load: generator ran %.1fus late at p99 "
                "(bound %.0fus)\n",
                lag_p99_us, kLagLimitUs);
    std::fprintf(stderr, "irp_bench: generator lag p99 %.1fus over %.0fus\n",
                 lag_p99_us, kLagLimitUs);
  }
  result.correct = counts.mismatched == 0;
  result.attempted = counts.attempted;
  result.failed = counts.failed;
  result.add("setup_s", median(setup), "s");
  std::printf("# latency (%s): samples=%zu p50=%.1fus p90=%.1fus "
              "p99=%.1fus (median of 10 time windows)\n",
              mix == Mix::kClosed ? "closed loop" : "reference rate",
              latency_us.size(), p50_of(latency_us),
              quantile(latency_us, 0.90), windowed_p99(latency_us, done_s));
  // Not gated: how many 1 ms poll sleeps a request meets, and so the
  // server's CPU per request, moves with the machine's other load.
  std::printf("# server cpu: %.6f ms per request over %llu requests\n",
              cpu_s * 1000.0 / double(std::max<std::uint64_t>(1, cpu_ops)),
              static_cast<unsigned long long>(cpu_ops));
  result.add("p50_ms", p50_of(latency_us) / 1000.0, "ms");
  result.add("ops_per_s", ops_per_s, "1/s");
  result.add("peak_rss_mb", rss, "MB");
  std::printf("%s", result.text().c_str());
  std::printf("%s\n", result.json().c_str());
  return result.correct ? 0 : 1;
}

}  // namespace irpbench
