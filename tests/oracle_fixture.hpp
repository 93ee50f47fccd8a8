// Shared fixture for the RouteOracle serving tests: one small study frozen
// into a one-study StudyCatalog, a mixed query stream over all four query
// classes, and raw loopback-socket helpers for the wire tests.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/oracle_service.hpp"
#include "serve/study_catalog.hpp"
#include "test_support.hpp"

namespace irp::test {

/// A small study, served the way every OracleService serves: from a
/// catalog, here holding that study alone (so it is also the default, "").
struct OracleFixture {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;
  std::unique_ptr<StudyCatalog> catalog;
  std::vector<OracleRequest> queries;
};

/// A mixed stream touching all four query classes, derived
/// deterministically from the study's decisions.
inline std::vector<OracleRequest> oracle_query_stream(
    const PassiveDataset& passive) {
  std::vector<OracleRequest> queries;
  const auto& decisions = passive.decisions;
  const auto scenarios = figure1_scenarios();
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const RouteDecision& d = decisions[i];
    ClassifyRequest classify;
    classify.decision = d;
    classify.scenario = scenarios[i % scenarios.size()].options;
    queries.emplace_back(classify);
    if (i % 3 == 0)
      queries.emplace_back(AlternateRoutesRequest{d.decider, d.dst_prefix});
    if (i % 5 == 0)
      queries.emplace_back(
          PspVisibilityRequest{d.dest_asn, d.next_hop, d.dst_prefix});
    if (i % 7 == 0)
      queries.emplace_back(RelationshipLookupRequest{d.decider, d.next_hop});
  }
  return queries;
}

/// Runs the small study at `seed`, freezes it into a one-study catalog and
/// derives its query stream, capped at `max_queries`.
inline OracleFixture make_oracle_fixture(
    std::uint64_t seed = 42,
    std::size_t max_queries = std::numeric_limits<std::size_t>::max()) {
  OracleFixture f;
  f.net = generate_internet(small_generator_config(seed));
  f.passive = run_passive_study(*f.net, small_passive_config());
  f.catalog = std::make_unique<StudyCatalog>();
  f.catalog->add_study("study", snapshot_study(f.passive));
  f.queries = oracle_query_stream(f.passive);
  if (f.queries.size() > max_queries) f.queries.resize(max_queries);
  return f;
}

/// The seed-42 fixture, built once per test binary.
inline const OracleFixture& oracle_fixture() {
  static const OracleFixture fx = make_oracle_fixture();
  return fx;
}

// -- Raw-socket helpers for the wire tests.

/// Blocking loopback connect; returns the fd (or -1, failing the test).
inline int connect_loopback(std::uint16_t port) {
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

inline void send_bytes(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace irp::test
