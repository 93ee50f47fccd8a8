// OracleWire server: a poll(2)-driven multi-client TCP front for
// OracleService.
//
// One background thread owns every socket. It accepts connections, reads
// and frame-decodes requests (wire.hpp), and feeds them straight into the
// OracleService admission queue — the server adds no queueing of its own,
// so the service's bounded MPMC queue remains the single source of
// backpressure truth. When admission control sheds a request, the client
// receives an explicit kOverloaded error frame instead of a stalled or
// dropped connection; the socket stays healthy and the client can retry.
//
// Replies are pushed, not polled for: each admitted request carries a
// service completion that encodes the reply on the worker and hands it to
// a completion sink shared with the poll thread, waking it through a pipe
// (one wake per burst). So poll() blocks until traffic, a completion or
// shutdown arrives, and a reply leaves as soon as its worker finishes.
//
// Robustness rules (all tested in test_oracle_server):
//   * Malformed bytes — bad magic, wrong version, oversized or corrupt
//     frames — earn one kMalformedRequest error frame and a hard close of
//     that connection. A byte stream that failed to frame-decode cannot be
//     resynchronized, so the server never tries.
//   * A request frame that frame-decodes but not request-decodes gets a
//     kMalformedRequest error frame; the connection stays open (framing is
//     intact, only that one payload was bad).
//   * Connections beyond `max_connections` are accepted and immediately
//     closed (counted, never serviced).
//   * Each connection is bounded: it is not read while its unsent replies
//     exceed a fixed high-water mark (backpressure reaches the client's TCP
//     window), and it decodes a bounded number of frames per loop turn, so
//     a client that pipelines without reading stalls neither other clients
//     nor shutdown.
//   * shutdown() drains gracefully: the listen socket closes first (new
//     connections refused), every request already admitted to the service
//     is answered and flushed, then connections close. A drain deadline
//     bounds how long a non-reading client can hold shutdown hostage.
//
// Observability: WireServerStats counts connections (accepted / refused /
// closed), frames and bytes in both directions, admitted vs shed requests
// and decode errors, and per-query-type wire latency histograms measured
// from frame decode (before admission) to response enqueue — i.e.
// including admission, the service queue wait and the completion wakeup,
// which is exactly the number a remote caller experiences on top of raw
// evaluation (OracleStatsView has the service-side view).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/oracle_service.hpp"
#include "serve/wire.hpp"

namespace irp {

/// Copyable server counters snapshot; see OracleServer::stats().
struct WireServerStats {
  struct PerType {
    std::uint64_t answered = 0;  ///< Response frames sent for this type.
    double p50_us = 0;           ///< Wire latency: decode -> response queued.
    double p99_us = 0;
  };
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< Over max_connections, or drain.
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests_admitted = 0;  ///< Passed service admission control.
  std::uint64_t requests_shed = 0;      ///< kOverloaded error frames sent.
  std::uint64_t requests_unknown_study = 0;  ///< kUnknownStudy frames sent.
  std::uint64_t decode_errors = 0;      ///< Connections poisoned by bad bytes.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::array<PerType, kNumQueryTypes> per_type{};
};

/// TCP front for one OracleService. The service (and its index/snapshot)
/// must outlive the server; requests it still owes when the server is
/// destroyed may complete later, which is safe.
class OracleServer {
 public:
  struct Config {
    /// Address to bind; the default serves loopback only. Use "0.0.0.0" to
    /// accept remote hosts.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back with port()).
    std::uint16_t port = 0;
    /// Connections beyond this are accepted and immediately closed.
    int max_connections = 64;
    /// Frames claiming a larger payload are rejected from the header alone.
    std::size_t max_frame_payload = kMaxWirePayload;
    /// Graceful-drain bound: shutdown() force-closes connections that have
    /// not flushed within this many milliseconds.
    int drain_timeout_ms = 5000;
  };

  OracleServer(OracleService* service, Config config);
  explicit OracleServer(OracleService* service);
  ~OracleServer();  ///< Calls shutdown().

  OracleServer(const OracleServer&) = delete;
  OracleServer& operator=(const OracleServer&) = delete;

  /// Binds, listens, and starts the poll thread. Throws CheckError when the
  /// address cannot be bound. Call at most once.
  void start();

  /// The actually bound TCP port (resolves port == 0); valid after start().
  std::uint16_t port() const;

  /// Graceful drain: refuses new connections, answers every admitted
  /// request, flushes and closes every connection (bounded by
  /// drain_timeout_ms), joins the poll thread. Idempotent.
  void shutdown();

  WireServerStats stats() const;

 private:
  struct Impl;

  void poll_loop();

  OracleService* service_;
  Config config_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace irp
