// Frozen pre-PathTable BGP engine, kept as a reference implementation.
//
// This is the engine as it existed before the interned-path rewrite: every
// AS path is a full std::vector copy, select() copies a candidate per RIB
// entry, and per-AS sent state lives in std::map. It is deliberately left
// byte-for-byte equivalent in behaviour so it can serve as the correctness
// oracle: test_engine_equivalence asserts the production BgpEngine produces
// identical feeds, selections, RIBs, and message counts on generated
// topologies. Do not optimize this file; optimize bgp/engine.cpp and let the
// equivalence test keep it honest.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bgp/engine.hpp"  // Shares AnnounceOptions with the real engine.
#include "bgp/policy.hpp"
#include "bgp/route.hpp"
#include "topo/topology.hpp"

namespace irp {

/// Per-prefix BGP simulator over a ground-truth topology (frozen baseline).
class BaselineBgpEngine {
 public:
  /// `epoch` selects which links are alive (topology evolution).
  BaselineBgpEngine(const Topology* topo, const GroundTruthPolicy* policy, int epoch);

  /// Originates (or re-originates, replacing options of) `prefix` at
  /// `origin`. Call run() afterwards to converge.
  void announce(const Ipv4Prefix& prefix, Asn origin,
                AnnounceOptions options = {});

  /// Withdraws the prefix at its origin.
  void withdraw(const Ipv4Prefix& prefix);

  /// Propagates until quiescent (or the safety cap is hit).
  void run();

  /// The route an AS selected for a prefix.
  struct Selected {
    /// Path toward the origin, *excluding* this AS (empty at the origin).
    AsPath path;
    LinkId via_link = kInvalidLink;
    Asn next_hop = 0;           ///< 0 when self-originated.
    LogicalTime age = 0;        ///< Arrival time of the selected route.
    int local_pref = 0;
    bool self_originated = false;
    /// Class governing export: where the organization externally learned
    /// the route (nullopt = originated by this AS or inside its org).
    std::optional<Relationship> effective_class;
  };

  /// Best route of `asn` toward `prefix`; nullptr if none.
  const Selected* best(Asn asn, const Ipv4Prefix& prefix) const;

  /// All accepted Adj-RIB-In routes of `asn` for `prefix` (at most one per
  /// link), in link order. Used by the reverse-engineering analyses.
  std::vector<Route> routes_at(Asn asn, const Ipv4Prefix& prefix) const;

  /// Data-plane next hop of `asn` for `prefix`; nullopt when unrouted or
  /// self-originated.
  std::optional<Asn> forward_next_hop(Asn asn, const Ipv4Prefix& prefix) const;

  /// Current best routes of the given collector peers, over all prefixes —
  /// a RouteViews/RIS-style table dump.
  std::vector<FeedEntry> feed(std::span<const Asn> peers) const;

  /// All prefixes ever announced.
  std::vector<Ipv4Prefix> prefixes() const;

  LogicalTime now() const { return clock_; }
  int epoch() const { return epoch_; }
  std::size_t messages_delivered() const { return messages_; }
  bool converged() const { return converged_; }
  const Topology& topology() const { return *topo_; }

 private:
  struct PerAs {
    /// Accepted routes, at most one per adjacent link.
    std::vector<Route> rib_in;
    std::optional<Selected> selected;
    /// Forces the next process() to re-run exports even if the selection
    /// compares equal (set by announce/withdraw when options change).
    bool force_export = false;
    /// Last path advertised per outgoing link (absent = withdrawn/never).
    std::map<LinkId, AsPath> sent;
  };

  struct PrefixState {
    Ipv4Prefix prefix;
    Asn origin = 0;
    bool originated = false;
    AnnounceOptions options;
    std::vector<PerAs> per_as;
    std::deque<Asn> queue;
    std::vector<bool> queued;
  };

  PrefixState& state_for(const Ipv4Prefix& prefix);
  const PrefixState* find_state(const Ipv4Prefix& prefix) const;

  void enqueue(PrefixState& st, Asn asn);
  void process(PrefixState& st, Asn asn);
  std::optional<Selected> select(const PrefixState& st, Asn asn) const;
  void export_from(PrefixState& st, Asn asn);
  void deliver_update(PrefixState& st, Asn from, const Link& link,
                      const AsPath& path,
                      std::optional<Relationship> org_class);
  void deliver_withdraw(PrefixState& st, Asn from, const Link& link);

  const Topology* topo_;
  const GroundTruthPolicy* policy_;
  int epoch_;
  LogicalTime clock_ = 0;
  std::size_t messages_ = 0;
  bool converged_ = true;
  std::map<Ipv4Prefix, std::size_t> index_;
  std::vector<std::unique_ptr<PrefixState>> states_;
};

}  // namespace irp
