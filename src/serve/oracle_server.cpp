#include "serve/oracle_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "util/check.hpp"

namespace irp {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  IRP_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  IRP_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(F_SETFL, O_NONBLOCK) failed");
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Per-connection limits. Both sit far above a well-behaved pipelining
/// client (the irp-bench open loop keeps 64 requests, a few KB, in flight
/// per connection) and only ever bind on a flood.
/// Reading stops while this many reply bytes wait for a client that is not
/// reading, so backpressure reaches the client's TCP send window.
constexpr std::size_t kOutputHighWater = std::size_t{256} << 10;
/// Frames one connection may decode per loop turn; the rest waits for the
/// next turn, so one pipelined burst cannot starve other connections or
/// the stop check.
constexpr int kMaxFramesPerTurn = 1024;
/// Bytes read from one connection per loop turn.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

/// Where service workers hand finished requests to the poll thread. Shared
/// by the server and every completion it issued, so a completion that runs
/// after the server is gone (a worker-less service drained later) still
/// lands somewhere valid; the sink then only collects unread entries.
class CompletionSink {
 public:
  struct Done {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    QueryType type = QueryType::kClassify;
    std::chrono::steady_clock::time_point decoded;
    std::string frame;      ///< Encoded reply: a response or a kInternal error.
    bool answered = false;  ///< `frame` is a response, not an error.
  };

  CompletionSink() {
    int fds[2];
    IRP_CHECK(::pipe2(fds, O_NONBLOCK | O_CLOEXEC) == 0, "pipe2() failed");
    wake_read_ = fds[0];
    wake_write_ = fds[1];
  }
  ~CompletionSink() {
    ::close(wake_read_);
    ::close(wake_write_);
  }
  CompletionSink(const CompletionSink&) = delete;
  CompletionSink& operator=(const CompletionSink&) = delete;

  int wake_fd() const { return wake_read_; }

  /// Makes the poll thread's next (or current) poll() return.
  void wake() {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  }

  /// Worker side: encodes the reply (keeping codec work off the poll
  /// thread) and queues it. Only the push that finds no wake pending
  /// writes to the pipe, so a burst of completions costs one wake.
  void complete(Done done, OracleService::Outcome outcome) {
    try {
      if (auto* error = std::get_if<std::exception_ptr>(&outcome))
        std::rethrow_exception(*error);
      done.frame = encode_response(done.request_id,
                                   std::get<OracleResponse>(outcome));
      done.answered = true;
    } catch (const std::exception& e) {
      done.frame =
          encode_error(done.request_id, WireErrorCode::kInternal, e.what());
    } catch (...) {
      done.frame = encode_error(done.request_id, WireErrorCode::kInternal,
                                "unknown error");
    }
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back(std::move(done));
      first = !wake_pending_;
      wake_pending_ = true;
    }
    if (first) wake();
  }

  /// Poll-thread side, after the wake pipe reported readable: reads the
  /// wake bytes, then swaps every queued completion into `taken` (cleared
  /// first; the two vectors trade capacity). Clearing the flag together
  /// with the swap means a completion pushed after this call writes a
  /// fresh wake byte, so none is ever left unseen.
  void take(std::vector<Done>& taken) {
    // One read almost always empties the pipe; poll() reports any rest.
    char bytes[64];
    [[maybe_unused]] ssize_t n = ::read(wake_read_, bytes, sizeof bytes);
    taken.clear();
    std::lock_guard<std::mutex> lock(mu_);
    taken.swap(done_);
    wake_pending_ = false;
  }

 private:
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::mutex mu_;
  std::vector<Done> done_;     ///< Guarded by mu_.
  bool wake_pending_ = false;  ///< Guarded by mu_; a wake byte is unread.
};

}  // namespace

struct OracleServer::Impl {
  struct Connection {
    std::uint64_t id = 0;  ///< Never reused; completions route by it.
    int fd = -1;
    std::string in_buf;
    std::string out_buf;
    std::size_t inflight = 0;  ///< Admitted requests not yet routed back.
    bool more_input = false;   ///< in_buf may hold complete, unread frames.
    bool read_closed = false;  ///< Peer EOF, poisoned stream, or draining;
                               ///< the connection closes once fully flushed.
  };

  int listen_fd = -1;
  std::shared_ptr<CompletionSink> sink;
  std::uint16_t bound_port = 0;
  /// Keyed by Connection::id, so a completion for a connection that has
  /// since closed finds nothing and is dropped.
  std::map<std::uint64_t, Connection> connections;
  std::uint64_t next_conn_id = 0;
  std::mutex shutdown_mu;

  struct PerType {
    std::atomic<std::uint64_t> answered{0};
    LatencyHistogram latency;
  };
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_refused{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> requests_admitted{0};
  std::atomic<std::uint64_t> requests_shed{0};
  std::atomic<std::uint64_t> requests_unknown_study{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::array<PerType, kNumQueryTypes> per_type;

  void close_connection(std::map<std::uint64_t, Connection>::iterator it) {
    ::close(it->second.fd);
    connections.erase(it);
    connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void queue_frame(Connection& conn, std::string_view frame_bytes) {
    conn.out_buf += frame_bytes;
    frames_out.fetch_add(1, std::memory_order_relaxed);
  }
};

OracleServer::OracleServer(OracleService* service, Config config)
    : service_(service), config_(std::move(config)),
      impl_(std::make_unique<Impl>()) {
  IRP_CHECK(service_ != nullptr, "oracle server requires a service");
  IRP_CHECK(config_.max_connections >= 1, "max_connections must be >= 1");
}

OracleServer::OracleServer(OracleService* service)
    : OracleServer(service, Config{}) {}

OracleServer::~OracleServer() { shutdown(); }

void OracleServer::start() {
  IRP_CHECK(!started_.load(), "oracle server already started");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  IRP_CHECK(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  IRP_CHECK(::inet_pton(AF_INET, config_.bind_address.c_str(),
                        &addr.sin_addr) == 1,
            "bad bind address " + config_.bind_address);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    IRP_CHECK(false, "cannot bind " + config_.bind_address + ":" +
                         std::to_string(config_.port) + " — " + err);
  }
  IRP_CHECK(::listen(fd, 64) == 0, "listen() failed");
  set_nonblocking(fd);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  IRP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
            "getsockname() failed");
  impl_->bound_port = ntohs(bound.sin_port);
  impl_->listen_fd = fd;

  impl_->sink = std::make_shared<CompletionSink>();

  thread_ = std::thread([this] { poll_loop(); });
  started_.store(true);
}

std::uint16_t OracleServer::port() const {
  IRP_CHECK(started_.load(), "oracle server not started");
  return impl_->bound_port;
}

void OracleServer::shutdown() {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mu);
  stopping_.store(true);
  if (!thread_.joinable()) return;
  impl_->sink->wake();
  thread_.join();
}

WireServerStats OracleServer::stats() const {
  const Impl& im = *impl_;
  WireServerStats s;
  s.connections_accepted = im.connections_accepted.load();
  s.connections_refused = im.connections_refused.load();
  s.connections_closed = im.connections_closed.load();
  s.frames_in = im.frames_in.load();
  s.frames_out = im.frames_out.load();
  s.requests_admitted = im.requests_admitted.load();
  s.requests_shed = im.requests_shed.load();
  s.requests_unknown_study = im.requests_unknown_study.load();
  s.decode_errors = im.decode_errors.load();
  s.bytes_in = im.bytes_in.load();
  s.bytes_out = im.bytes_out.load();
  for (int t = 0; t < kNumQueryTypes; ++t) {
    s.per_type[t].answered = im.per_type[t].answered.load();
    s.per_type[t].p50_us = im.per_type[t].latency.quantile_us(0.50);
    s.per_type[t].p99_us = im.per_type[t].latency.quantile_us(0.99);
  }
  return s;
}

void OracleServer::poll_loop() {
  Impl& im = *impl_;
  using Clock = std::chrono::steady_clock;
  bool draining = false;
  Clock::time_point drain_deadline{};

  auto throttled = [](const Impl::Connection& conn) {
    return conn.out_buf.size() >= kOutputHighWater;
  };

  // Decodes up to kMaxFramesPerTurn complete frames from conn.in_buf, then
  // compacts the buffer once. Requests go to the service with a completion
  // bound for the sink; sheds and malformed payloads get error frames. A
  // framing-level decode error poisons the connection (one error frame,
  // then close).
  auto consume_input = [&](Impl::Connection& conn) {
    std::size_t offset = 0;
    int frames = 0;
    try {
      for (; frames < kMaxFramesPerTurn; ++frames) {
        std::optional<WireFrame> frame =
            try_decode_frame_at(conn.in_buf, offset, config_.max_frame_payload);
        if (!frame) break;
        // Wire latency starts here, so it covers admission and queue wait.
        const Clock::time_point decoded = Clock::now();
        im.frames_in.fetch_add(1, std::memory_order_relaxed);
        if (!is_request_frame(frame->type)) {
          im.decode_errors.fetch_add(1, std::memory_order_relaxed);
          im.queue_frame(conn, encode_error(
                                   frame->request_id,
                                   WireErrorCode::kMalformedRequest,
                                   "expected a request frame, got " +
                                       std::string(frame_type_name(
                                           frame->type))));
          continue;
        }
        OracleRequest request;
        try {
          request = decode_request(*frame);
        } catch (const WireDecodeError& e) {
          im.decode_errors.fetch_add(1, std::memory_order_relaxed);
          im.queue_frame(conn,
                         encode_error(frame->request_id,
                                      WireErrorCode::kMalformedRequest,
                                      e.what()));
          continue;
        }
        CompletionSink::Done done;
        done.conn_id = conn.id;
        done.request_id = frame->request_id;
        done.type = query_type(request);
        done.decoded = decoded;
        const OracleService::Reject reject = service_->submit(
            std::move(request), frame->study,
            [sink = im.sink, done](OracleService::Outcome outcome) {
              sink->complete(done, std::move(outcome));
            });
        if (reject == OracleService::Reject::kUnknownStudy) {
          im.requests_unknown_study.fetch_add(1, std::memory_order_relaxed);
          im.queue_frame(conn, encode_error(frame->request_id,
                                            WireErrorCode::kUnknownStudy,
                                            "unknown study '" + frame->study +
                                                "'"));
        } else if (reject != OracleService::Reject::kNone) {
          im.requests_shed.fetch_add(1, std::memory_order_relaxed);
          im.queue_frame(conn, encode_error(frame->request_id,
                                            WireErrorCode::kOverloaded,
                                            "service queue full"));
        } else {
          im.requests_admitted.fetch_add(1, std::memory_order_relaxed);
          ++conn.inflight;
        }
      }
      conn.in_buf.erase(0, offset);
      conn.more_input = frames == kMaxFramesPerTurn;
    } catch (const WireDecodeError& e) {
      // Framing is gone; no resynchronization is possible. One diagnostic
      // error frame, then hard-close once it flushes.
      im.decode_errors.fetch_add(1, std::memory_order_relaxed);
      im.queue_frame(conn, encode_error(0, WireErrorCode::kMalformedRequest,
                                        e.what()));
      conn.in_buf.clear();
      conn.more_input = false;
      conn.read_closed = true;
    }
  };

  // Routes finished requests to their connections; replies for a
  // connection that closed meanwhile are dropped.
  std::vector<CompletionSink::Done> completed;
  auto route_completions = [&] {
    im.sink->take(completed);
    for (const CompletionSink::Done& done : completed) {
      auto it = im.connections.find(done.conn_id);
      if (it == im.connections.end()) continue;
      Impl::Connection& conn = it->second;
      --conn.inflight;
      im.queue_frame(conn, done.frame);
      if (!done.answered) continue;
      Impl::PerType& pt = im.per_type[static_cast<int>(done.type)];
      pt.latency.record(elapsed_ns(done.decoded));
      pt.answered.fetch_add(1, std::memory_order_relaxed);
    }
  };

  auto flush_output = [&](Impl::Connection& conn) -> bool {
    while (!conn.out_buf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.out_buf.data(),
                               conn.out_buf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        im.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
        conn.out_buf.erase(0, static_cast<std::size_t>(n));
      } else if (errno == EINTR) {
        continue;  // Interrupted before any byte moved; just retry.
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;
      } else {
        return false;  // Peer gone; caller drops the connection.
      }
    }
    return true;
  };

  // Reads at most one chunk per turn; level-triggered poll() reports
  // whatever is left.
  auto read_input = [&](Impl::Connection& conn) {
    char buf[kReadChunk];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        im.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
        conn.in_buf.append(buf, static_cast<std::size_t>(n));
        conn.more_input = true;
      } else if (n == 0) {
        conn.read_closed = true;
      } else if (errno == EINTR) {
        continue;  // A signal is not a peer disconnect; retry the read.
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        conn.read_closed = true;
      }
      return;
    }
  };

  for (;;) {
    if (stopping_.load() && !draining) {
      draining = true;
      drain_deadline = Clock::now() +
                       std::chrono::milliseconds(config_.drain_timeout_ms);
      if (im.listen_fd >= 0) {
        ::close(im.listen_fd);
        im.listen_fd = -1;
      }
      // Stop reading everywhere: requests not yet admitted are refused by
      // the drain contract; admitted ones are still answered.
      for (auto& [id, conn] : im.connections) {
        conn.read_closed = true;
        conn.more_input = false;
      }
    }

    // Flush + reap. A connection dies when the peer vanished, or when it is
    // fully served (no reads coming, nothing in flight, all bytes out).
    const bool past_deadline = draining && Clock::now() >= drain_deadline;
    for (auto it = im.connections.begin(); it != im.connections.end();) {
      Impl::Connection& conn = it->second;
      if (!flush_output(conn)) {
        im.close_connection(it++);
        continue;
      }
      const bool done = conn.read_closed && !conn.more_input &&
                        conn.inflight == 0 && conn.out_buf.empty();
      if (done || past_deadline) {
        im.close_connection(it++);
        continue;
      }
      ++it;
    }
    if (draining && im.connections.empty()) break;

    // Poll: listen + wake pipe + every connection. A connection with
    // frames left over from its last turn is not read again until they are
    // decoded, and none is read while its replies back up.
    std::vector<pollfd> fds;
    std::vector<Impl::Connection*> fd_conns;
    if (im.listen_fd >= 0)
      fds.push_back(pollfd{im.listen_fd, POLLIN, 0});
    const std::size_t wake_slot = fds.size();
    fds.push_back(pollfd{im.sink->wake_fd(), POLLIN, 0});
    bool input_left = false;
    for (auto& [id, conn] : im.connections) {
      short events = 0;
      if (!conn.read_closed && !conn.more_input && !throttled(conn))
        events |= POLLIN;
      if (!conn.out_buf.empty()) events |= POLLOUT;
      if (conn.more_input && !throttled(conn)) input_left = true;
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conns.push_back(&conn);
    }
    // Completions, traffic and the stop request all wake poll(), so it
    // blocks until one arrives; only the drain deadline bounds the wait.
    int timeout_ms = -1;
    if (input_left) {
      timeout_ms = 0;
    } else if (draining) {
      timeout_ms = static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(drain_deadline -
                                                       Clock::now())
              .count());
      timeout_ms = std::max(timeout_ms, 0);
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // Unrecoverable poll failure.

    if (fds[wake_slot].revents & POLLIN) route_completions();

    // Accept new connections (refused outright above the connection cap).
    if (im.listen_fd >= 0 && (fds[0].revents & POLLIN)) {
      for (;;) {
        const int conn_fd = ::accept(im.listen_fd, nullptr, nullptr);
        if (conn_fd < 0) break;
        if (im.connections.size() >=
            static_cast<std::size_t>(config_.max_connections)) {
          ::close(conn_fd);
          im.connections_refused.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        set_nonblocking(conn_fd);
        const int one = 1;
        ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Impl::Connection conn;
        conn.id = im.next_conn_id++;
        conn.fd = conn_fd;
        im.connections.emplace(conn.id, std::move(conn));
        im.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Reads and decodes. fd_conns names connections as they were when fds
    // was built; reaping happens at the top of the next iteration, so all
    // of them are still open here.
    for (std::size_t i = 0; i < fd_conns.size(); ++i) {
      const pollfd& pfd = fds[wake_slot + 1 + i];
      Impl::Connection& conn = *fd_conns[i];
      // POLLHUP with frames still queued: stop reading but keep flushing —
      // the peer may only have half-closed its write side.
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL))
        conn.read_closed = true;
      if ((pfd.revents & POLLIN) && !conn.read_closed) read_input(conn);
      if (conn.more_input && !draining && !throttled(conn))
        consume_input(conn);
    }
  }

  // Teardown: whatever survived the drain deadline closes now. Completions
  // still owed by the service land in the sink, which they keep alive.
  while (!im.connections.empty())
    im.close_connection(im.connections.begin());
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
}

}  // namespace irp
