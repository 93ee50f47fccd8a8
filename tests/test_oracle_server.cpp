// OracleWire end-to-end tests: a real OracleServer on a loopback TCP port.
//
// The headline guarantee is byte identity: a query answered over the wire
// renders to exactly the same text as the same query answered by the local
// OracleService — serially and from four concurrent clients (run under
// IRP_SANITIZE=thread this is the data-race check for the transport).
//
// The rest is fault injection with raw sockets, below the OracleClient so
// the server's behavior is observed directly: overload shedding produces
// explicit kOverloaded error frames while admitted work still completes;
// garbage bytes poison exactly one connection; a malformed payload inside a
// well-framed request keeps the connection alive; client timeouts, refused
// connects, connection caps, and graceful shutdown all surface as their
// documented error kinds. A client that floods without reading is throttled
// while others are still served, and completions that run after their
// server is gone stay safe.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/oracle_service.hpp"
#include "test_support.hpp"

namespace irp {
namespace {

struct ServerFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  OracleSnapshot snapshot;
  std::unique_ptr<OracleIndex> index;
  std::vector<OracleRequest> queries;
};

const ServerFixture& fixture() {
  static const ServerFixture fx = [] {
    ServerFixture f;
    f.net = generate_internet(test::small_generator_config());
    f.passive = run_passive_study(*f.net, test::small_passive_config());
    f.snapshot = snapshot_study(f.passive);
    f.index = std::make_unique<OracleIndex>(&f.snapshot);

    const auto& decisions = f.passive.decisions;
    const auto scenarios = figure1_scenarios();
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      const RouteDecision& d = decisions[i];
      ClassifyRequest classify;
      classify.decision = d;
      classify.scenario = scenarios[i % scenarios.size()].options;
      f.queries.emplace_back(classify);
      if (i % 3 == 0)
        f.queries.emplace_back(AlternateRoutesRequest{d.decider, d.dst_prefix});
      if (i % 5 == 0)
        f.queries.emplace_back(
            PspVisibilityRequest{d.dest_asn, d.next_hop, d.dst_prefix});
      if (i % 7 == 0)
        f.queries.emplace_back(RelationshipLookupRequest{d.decider, d.next_hop});
    }
    return f;
  }();
  return fx;
}

// -- Raw-socket helpers for the fault-injection tests.

/// Blocking loopback connect; returns the fd (or -1, failing the test).
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ADD_FAILURE() << "connect failed: " << std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_bytes(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads until `count` frames decode (or the deadline/EOF fails the test).
std::vector<WireFrame> read_frames(int fd, std::size_t count,
                                   int timeout_ms = 5000) {
  std::vector<WireFrame> frames;
  std::string buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (frames.size() < count) {
    while (auto frame = try_decode_frame(buffer)) {
      frames.push_back(std::move(*frame));
      if (frames.size() == count) return frames;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      ADD_FAILURE() << "timed out with " << frames.size() << "/" << count
                    << " frames";
      return frames;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed with " << frames.size() << "/"
                    << count << " frames";
      return frames;
    }
    buffer.append(buf, static_cast<std::size_t>(n));
  }
  return frames;
}

/// True when the peer closes the connection within the timeout.
bool reaches_eof(int fd, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0) return true;  // Reset counts as closed too.
  }
}

WireError expect_error_frame(const WireFrame& frame) {
  EXPECT_EQ(frame.type, FrameType::kError);
  const auto reply = decode_reply(frame);
  return std::get<WireError>(reply);
}

// -- Byte identity against the local service.

TEST(OracleServerE2E, RemoteAnswersAreByteIdenticalToLocalSerial) {
  const ServerFixture& f = fixture();
  ASSERT_GT(f.queries.size(), 100u);
  OracleService service(f.index.get(), OracleService::Config{2, 1024});
  OracleServer server(&service);
  server.start();

  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  for (const OracleRequest& request : f.queries)
    EXPECT_EQ(to_text(client.call(request)), to_text(service.answer(request)));

  // The wire counters describe exactly this workload. to_text() above ran
  // each query a second time locally, so compare against the server's view.
  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_refused, 0u);
  EXPECT_EQ(stats.frames_in, f.queries.size());
  EXPECT_EQ(stats.frames_out, f.queries.size());
  EXPECT_EQ(stats.requests_admitted, f.queries.size());
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  std::uint64_t answered = 0;
  for (int t = 0; t < kNumQueryTypes; ++t) {
    answered += stats.per_type[t].answered;
    if (stats.per_type[t].answered > 0) {
      EXPECT_GT(stats.per_type[t].p50_us, 0.0);
      EXPECT_GE(stats.per_type[t].p99_us, stats.per_type[t].p50_us);
    }
  }
  EXPECT_EQ(answered, f.queries.size());

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, WireLatencyQuantilesBoundServiceQuantiles) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{2, 1024});
  OracleServer server(&service);
  server.start();
  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  for (const OracleRequest& request : f.queries) (void)client.call(request);

  // Each request's wire interval (frame decode -> reply queued) contains
  // its service interval (enqueue -> evaluated), and the histogram buckets
  // are monotone, so every wire quantile bounds the service one exactly.
  const WireServerStats wire = server.stats();
  const OracleStatsView local = service.stats();
  for (int t = 0; t < kNumQueryTypes; ++t) {
    EXPECT_EQ(wire.per_type[t].answered, local.per_type[t].served);
    EXPECT_GE(wire.per_type[t].p50_us, local.per_type[t].p50_us)
        << "type " << t;
    EXPECT_GE(wire.per_type[t].p99_us, local.per_type[t].p99_us)
        << "type " << t;
  }

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, ConcurrentClientsStayByteIdentical) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{4, 256});
  OracleServer server(&service);
  server.start();
  const std::uint16_t port = server.port();

  // Local ground truth first, so worker threads only compare strings.
  std::vector<std::string> expected;
  expected.reserve(f.queries.size());
  for (const OracleRequest& request : f.queries)
    expected.push_back(to_text(service.answer(request)));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      OracleClient::Config cc;
      cc.port = port;
      OracleClient client(cc);  // One client per thread; single in-flight.
      for (std::size_t i = t; i < f.queries.size(); i += kClients)
        if (to_text(client.call(f.queries[i])) != expected[i]) ++mismatches[t];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kClients; ++t) EXPECT_EQ(mismatches[t], 0) << "client " << t;

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.requests_admitted, f.queries.size());
  EXPECT_EQ(stats.decode_errors, 0u);

  server.shutdown();
  service.shutdown();
}

// -- Overload: shed requests get explicit error frames, admitted ones are
// still answered. workers == 0 keeps the queue full deterministically.

TEST(OracleServerE2E, OverloadShedsWithExplicitErrorFrames) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{0, 1});
  OracleServer server(&service);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // Pipeline three requests at once: capacity 1 with no workers admits
  // exactly the first and sheds the rest.
  std::string burst;
  for (std::uint64_t id = 1; id <= 3; ++id)
    burst += encode_request(id, f.queries[(id - 1) % f.queries.size()]);
  send_bytes(fd, burst);

  const auto errors = read_frames(fd, 2);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].request_id, 2u);
  EXPECT_EQ(errors[1].request_id, 3u);
  for (const WireFrame& frame : errors) {
    const WireError err = expect_error_frame(frame);
    EXPECT_EQ(err.code, WireErrorCode::kOverloaded);
    EXPECT_EQ(err.message, "service queue full");
  }

  // Draining the service resolves the admitted request; its response frame
  // arrives on the same still-healthy connection.
  EXPECT_EQ(service.drain(), 1u);
  const auto answers = read_frames(fd, 1);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].request_id, 1u);
  EXPECT_TRUE(is_response_frame(answers[0].type));

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.requests_shed, 2u);
  EXPECT_EQ(stats.frames_in, 3u);
  EXPECT_EQ(stats.frames_out, 3u);

  ::close(fd);
  server.shutdown();
  service.shutdown();
}

// -- Malformed input.

TEST(OracleServerE2E, GarbageBytesPoisonOnlyThatConnection) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer server(&service);
  server.start();

  const int bad = connect_loopback(server.port());
  ASSERT_GE(bad, 0);
  send_bytes(bad, std::string(64, 'x'));  // Not a frame by any reading.
  const auto frames = read_frames(bad, 1);
  ASSERT_EQ(frames.size(), 1u);
  const WireError err = expect_error_frame(frames[0]);
  EXPECT_EQ(err.code, WireErrorCode::kMalformedRequest);
  EXPECT_EQ(frames[0].request_id, 0u);  // No frame, so no id to echo.
  EXPECT_TRUE(reaches_eof(bad));        // Framing gone -> hard close.
  ::close(bad);

  // A well-behaved client on a fresh connection is unaffected.
  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  EXPECT_EQ(to_text(client.call(f.queries[0])),
            to_text(service.answer(f.queries[0])));
  EXPECT_GE(server.stats().decode_errors, 1u);

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, MalformedPayloadKeepsConnectionAlive) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer server(&service);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // Perfect framing, broken payload: relationship lookup needs 8 bytes.
  WireFrame bad;
  bad.type = FrameType::kRelationshipLookupRequest;
  bad.request_id = 5;
  bad.payload = std::string(4, '\0');
  send_bytes(fd, encode_frame(bad));

  auto frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(expect_error_frame(frames[0]).code,
            WireErrorCode::kMalformedRequest);
  EXPECT_EQ(frames[0].request_id, 5u);

  // The same connection still serves valid requests afterwards.
  send_bytes(fd, encode_request(6, OracleRequest{RelationshipLookupRequest{
                                      1, 2}}));
  frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 6u);
  EXPECT_EQ(frames[0].type, FrameType::kRelationshipLookupResponse);

  const WireServerStats stats = server.stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.requests_admitted, 1u);

  ::close(fd);
  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, OversizedClaimAgainstServerLimitClosesConnection) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer::Config sc;
  sc.max_frame_payload = 16;  // Tighter than the protocol-wide bound.
  OracleServer server(&service, sc);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // A relationship lookup (8-byte payload) fits under the 16-byte limit...
  send_bytes(fd, encode_request(1, OracleRequest{RelationshipLookupRequest{
                                      1, 2}}));
  auto frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kRelationshipLookupResponse);

  // ...but a classify request (59-byte payload) is oversized for this
  // server even though it is valid protocol; the claim is rejected from the
  // header alone and the connection poisoned.
  ClassifyRequest classify;
  for (const OracleRequest& q : f.queries)
    if (std::holds_alternative<ClassifyRequest>(q)) {
      classify = std::get<ClassifyRequest>(q);
      break;
    }
  send_bytes(fd, encode_request(2, OracleRequest{classify}));
  frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(expect_error_frame(frames[0]).code,
            WireErrorCode::kMalformedRequest);
  EXPECT_TRUE(reaches_eof(fd));
  ::close(fd);

  server.shutdown();
  service.shutdown();
}

// -- Connection management.

TEST(OracleServerE2E, ConnectionsOverCapAreRefused) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  OracleServer::Config sc;
  sc.max_connections = 1;
  OracleServer server(&service, sc);
  server.start();

  const int first = connect_loopback(server.port());
  ASSERT_GE(first, 0);
  // Prove the first connection is established server-side before the
  // second arrives, so the refusal is deterministic.
  send_bytes(first, encode_request(1, OracleRequest{RelationshipLookupRequest{
                                          1, 2}}));
  ASSERT_EQ(read_frames(first, 1).size(), 1u);

  const int second = connect_loopback(server.port());
  ASSERT_GE(second, 0);  // TCP accepts, then the server closes immediately.
  EXPECT_TRUE(reaches_eof(second));
  EXPECT_EQ(server.stats().connections_refused, 1u);
  ::close(second);
  ::close(first);

  server.shutdown();
  service.shutdown();
}

TEST(OracleServerE2E, ShutdownDrainsThenRefusesNewConnections) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{1, 64});
  auto server = std::make_unique<OracleServer>(&service);
  server->start();
  const std::uint16_t port = server->port();

  OracleClient::Config cc;
  cc.port = port;
  cc.max_retries = 0;
  {
    OracleClient client(cc);
    EXPECT_EQ(to_text(client.call(f.queries[0])),
              to_text(service.answer(f.queries[0])));
  }
  server->shutdown();
  EXPECT_EQ(server->stats().connections_closed,
            server->stats().connections_accepted);

  // The port no longer listens; a fresh client fails with kConnect.
  OracleClient late(cc);
  try {
    (void)late.call(f.queries[0]);
    FAIL() << "call succeeded against a shut-down server";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kConnect);
  }

  server.reset();  // Destructor after explicit shutdown is a no-op.
  service.shutdown();
}

// -- Per-connection bounds: a flooding client is throttled, not served at
// everyone else's expense.

ClassifyRequest first_classify(const ServerFixture& f) {
  for (const OracleRequest& q : f.queries)
    if (std::holds_alternative<ClassifyRequest>(q))
      return std::get<ClassifyRequest>(q);
  ADD_FAILURE() << "fixture holds no classify query";
  return {};
}

TEST(OracleServerE2E, FloodingClientIsThrottledWithoutStallingOthers) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{2, 1024});
  OracleServer::Config sc;
  sc.drain_timeout_ms = 300;
  OracleServer server(&service, sc);
  server.start();

  // Batches of 80k pipelined classify frames (~7.6 MB each), sent until
  // the server closes the connection, from a client that never reads. Its
  // replies fill the kernel's socket buffers, then back up in the server,
  // which must then stop reading this connection.
  constexpr int kFloodFrames = 80000;
  const std::string frame =
      encode_request(1, OracleRequest{first_classify(f)});
  std::string flood;
  flood.reserve(frame.size() * kFloodFrames);
  for (int i = 0; i < kFloodFrames; ++i) flood += frame;

  const int flooder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(flooder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(flooder, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  std::thread sender([&] {
    // Blocks once the server stops reading; ends when the server closes
    // the connection at shutdown.
    for (;;) {
      for (std::size_t sent = 0; sent < flood.size();) {
        const ssize_t n = ::send(flooder, flood.data() + sent,
                                 flood.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return;
        sent += static_cast<std::size_t>(n);
      }
    }
  });

  // Throttled: bytes_in settles while the flood is still being offered.
  std::uint64_t settled = 0;
  int stable_samples = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (stable_samples < 5 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now_in = server.stats().bytes_in;
    stable_samples = now_in > 0 && now_in == settled ? stable_samples + 1 : 0;
    settled = now_in;
  }
  ASSERT_EQ(stable_samples, 5) << "bytes_in never stopped growing";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server.stats().bytes_in, settled);

  // A second client is served promptly (13.1 s before reads were bounded).
  OracleClient::Config cc;
  cc.port = server.port();
  OracleClient client(cc);
  const auto asked = std::chrono::steady_clock::now();
  EXPECT_EQ(to_text(client.call(f.queries[0])),
            to_text(service.answer(f.queries[0])));
  EXPECT_LT(std::chrono::steady_clock::now() - asked,
            std::chrono::milliseconds(1000));

  // The flooder cannot hold shutdown past the drain deadline (plus slack
  // for scheduling on a loaded host).
  const auto stop = std::chrono::steady_clock::now();
  server.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - stop,
            std::chrono::milliseconds(sc.drain_timeout_ms + 500));
  sender.join();
  ::close(flooder);
  service.shutdown();
}

// -- Lifetime: completions may run after the server that issued them is
// gone (run under IRP_SANITIZE=address and =thread).

TEST(OracleServerE2E, CompletionsRunSafelyAfterServerIsDestroyed) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{0, 64});
  OracleServer::Config sc;
  sc.drain_timeout_ms = 20;
  auto server = std::make_unique<OracleServer>(&service, sc);
  server->start();

  const int fd = connect_loopback(server->port());
  ASSERT_GE(fd, 0);
  constexpr std::uint64_t kRequests = 8;
  std::string burst;
  for (std::uint64_t id = 1; id <= kRequests; ++id)
    burst += encode_request(id, f.queries[id % f.queries.size()]);
  send_bytes(fd, burst);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server->stats().requests_admitted < kRequests &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server->stats().requests_admitted, kRequests);

  // No worker serves them, so the drain deadline closes the connection
  // with every request still owed.
  server->shutdown();
  EXPECT_EQ(server->stats().frames_out, 0u);
  EXPECT_EQ(server->stats().connections_closed, 1u);
  EXPECT_TRUE(reaches_eof(fd));
  server.reset();

  // Serving them now runs each completion against the orphaned sink.
  EXPECT_EQ(service.drain(), kRequests);
  EXPECT_EQ(service.stats().served, kRequests);
  ::close(fd);
  service.shutdown();
}

// -- EINTR injection: client calls must survive interrupted syscalls.

std::atomic<int> g_sigusr1_count{0};
void count_sigusr1(int) { g_sigusr1_count.fetch_add(1); }

TEST(OracleClientRobustness, CallsSurviveInterruptedSyscalls) {
  const ServerFixture& f = fixture();
  OracleService service(f.index.get(), OracleService::Config{2, 256});
  OracleServer server(&service);
  server.start();

  OracleClient::Config cc;
  cc.port = server.port();
  cc.max_retries = 0;  // EINTR must be absorbed below the retry layer.
  OracleClient client(cc);
  // Establish the connection before the signal storm starts; the EINTR
  // contract under test is send_all/read_frame, not the connect handshake.
  ASSERT_EQ(to_text(client.call(f.queries[0])),
            to_text(service.answer(f.queries[0])));

  // A handler installed WITHOUT SA_RESTART makes every signal delivery fail
  // the interrupted syscall with EINTR instead of restarting it.
  struct sigaction sa {}, old {};
  sa.sa_handler = count_sigusr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  // Pepper only this thread — the one blocking in the client's
  // send/poll/recv — with signals for the duration of the query stream.
  std::atomic<bool> done{false};
  const pthread_t victim = pthread_self();
  std::thread pepper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  int mismatches = 0;
  for (int round = 0; round < 2; ++round)
    for (const OracleRequest& request : f.queries)
      if (to_text(client.call(request)) != to_text(service.answer(request)))
        ++mismatches;
  EXPECT_EQ(mismatches, 0);

  done.store(true);
  pepper.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
  // Prove the storm actually happened — otherwise the test proves nothing.
  EXPECT_GT(g_sigusr1_count.load(), 100);

  server.shutdown();
  service.shutdown();
}

// -- Client failure taxonomy, without any OracleServer at all.

TEST(OracleClientErrors, ReadTimeoutAgainstHangingServer) {
  // A listening socket that never accepts: the kernel completes the TCP
  // handshake from the backlog, then nothing ever answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len),
            0);

  OracleClient::Config cc;
  cc.port = ntohs(bound.sin_port);
  cc.read_timeout = std::chrono::milliseconds(100);
  cc.max_retries = 1;  // Prove the retry happens, then the error escapes.
  cc.retry_backoff = std::chrono::milliseconds(10);
  OracleClient client(cc);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)client.call(OracleRequest{RelationshipLookupRequest{1, 2}});
    FAIL() << "call against a hanging server succeeded";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kTimeout);
  }
  // Two attempts of ~100ms each plus one 10ms backoff must have elapsed.
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 200);
  ::close(listener);
}

TEST(OracleClientErrors, ConnectRefusedSurfacesAsConnectError) {
  // Grab an ephemeral port and release it; nothing listens there now.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  const std::uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  OracleClient::Config cc;
  cc.port = dead_port;
  cc.max_retries = 1;
  cc.retry_backoff = std::chrono::milliseconds(5);
  OracleClient client(cc);
  try {
    (void)client.call(OracleRequest{RelationshipLookupRequest{1, 2}});
    FAIL() << "call against a dead port succeeded";
  } catch (const WireTransportError& e) {
    EXPECT_EQ(e.kind(), WireTransportError::Kind::kConnect);
  }
  EXPECT_FALSE(client.connected());
}

}  // namespace
}  // namespace irp
