// Event-driven BGP propagation engine.
//
// Simulates per-prefix BGP over the ground-truth topology and policy:
// announcements propagate through Adj-RIB-Ins, each AS runs the full BGP
// decision process (local-pref, AS-path length, IGP cost to next hop, route
// age, router id), and exports are filtered by the ground-truth policy.
// Loop prevention rejects any path containing the receiving ASN — which is
// exactly the mechanism BGP poisoning (§3.2) relies on.
//
// The engine is incremental: announce/withdraw can be interleaved with run()
// and logical time advances monotonically, so route ages are meaningful
// across experiment stages (the magnet/anycast experiment needs this).
// Everything is deterministic: activations drain in FIFO order.
//
// Hot-path representation (see DESIGN.md "Engine internals"): all AS paths
// live in an engine-local PathTable, so RIB entries and sent-state hold
// 4-byte PathIds, prepending on export is an O(1) intern, path equality is
// an integer compare, and the decision process runs allocation-free over
// attributes cached at delivery time. The frozen pre-PathTable engine is
// kept in bgp/baseline_engine.hpp as a correctness oracle;
// test_engine_equivalence asserts both produce byte-identical results.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/policy.hpp"
#include "bgp/route.hpp"
#include "topo/topology.hpp"

namespace irp {

/// Options for an announcement.
struct AnnounceOptions {
  /// ASNs inserted into the announcement's AS-set (BGP poisoning).
  std::vector<Asn> poison_set;
  /// If non-empty, the origin exports the prefix only over these links
  /// (selective prefix announcement, or per-site PEERING announcements).
  std::vector<LinkId> only_links;
  /// Per-link AS-path prepending: extra copies of the origin ASN announced
  /// over specific links (inbound traffic engineering).
  std::vector<std::pair<LinkId, int>> prepend_on;
};

/// Cheap always-on instrumentation, surfaced next to messages_delivered().
/// EXPERIMENTS.md explains how to read these.
struct EngineCounters {
  std::uint64_t paths_interned = 0;    ///< Distinct paths in the path table.
  std::uint64_t intern_hits = 0;       ///< Prepends/interns served from it.
  std::uint64_t selections_run = 0;    ///< Decision-process invocations.
  std::uint64_t rib_routes_scanned = 0;  ///< RIB entries examined by them.
  std::uint64_t states_reused = 0;     ///< PrefixStates recycled from a pool.
};

/// Per-prefix BGP simulator over a ground-truth topology.
class BgpEngine {
 private:
  struct PrefixState;  // Defined below; needed by StatePool.

 public:
  /// Recycles per-prefix engine state (the O(num_ases) per-AS vectors)
  /// across short-lived engines over the same topology — the passive study
  /// spawns one engine per (epoch, batch) corpus job, and without pooling
  /// every job re-mallocs the full O(num_ases · batch) state. Thread-safe;
  /// engines on different pool threads may share one StatePool.
  class StatePool {
   public:
    StatePool();
    ~StatePool();
    StatePool(const StatePool&) = delete;
    StatePool& operator=(const StatePool&) = delete;

    /// States currently parked and ready for reuse.
    std::size_t available() const;
    /// Total acquisitions served by recycling instead of allocation.
    std::uint64_t reuses() const;

   private:
    friend class BgpEngine;
    std::unique_ptr<PrefixState> acquire();
    void release(std::unique_ptr<PrefixState> st);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<PrefixState>> free_;
    std::uint64_t reuses_ = 0;
  };

  /// `epoch` selects which links are alive (topology evolution). A non-null
  /// `pool` donates recycled PrefixStates and receives them back when the
  /// engine is destroyed.
  BgpEngine(const Topology* topo, const GroundTruthPolicy* policy, int epoch,
            StatePool* pool = nullptr);
  ~BgpEngine();
  BgpEngine(const BgpEngine&) = delete;
  BgpEngine& operator=(const BgpEngine&) = delete;

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
    /// Path toward the origin, *excluding* this AS (empty at the origin),
    /// as an interned handle into paths(). Read hops and length from there
    /// (paths().materialize(path_id), paths().length(path_id)); the engine
    /// never allocates hop vectors for a selection.
    PathId path_id = kEmptyPathId;
    LinkId via_link = kInvalidLink;
    Asn next_hop = 0;           ///< 0 when self-originated.
    LogicalTime age = 0;        ///< Arrival time of the selected route.
    int local_pref = 0;
    bool self_originated = false;
    /// Class governing export: where the organization externally learned
    /// the route (nullopt = originated by this AS or inside its org).
    std::optional<Relationship> effective_class;
  };

  /// Best route of `asn` toward `prefix`; nullptr if none. A pure read:
  /// any number of threads may call it (and forward_next_hop) on an engine
  /// that is not being mutated.
  const Selected* best(Asn asn, const Ipv4Prefix& prefix) const;

  /// All accepted Adj-RIB-In routes of `asn` for `prefix` (at most one per
  /// link), in link order. Used by the reverse-engineering analyses.
  /// NOTE: this *materializes a copy* — each Route carries a freshly
  /// allocated AsPath — so hoist the call out of loops; the engine's own hot
  /// path and bulk exporters (visit_routes) never use it.
  std::vector<Route> routes_at(Asn asn, const Ipv4Prefix& prefix) const;

  /// An accepted Adj-RIB-In entry, as visit_routes() exposes it. Everything
  /// the decision process compares is cached here at delivery time (it
  /// depends only on the receiving AS, the link, and the path — all fixed
  /// per entry), so selection touches no policy/topology code and allocates
  /// nothing. Fields are ordered widest first so an entry packs into 32
  /// bytes.
  struct RibRoute {
    LogicalTime received_at = 0;
    PathId path = kEmptyPathId;  ///< Into paths().
    LinkId via_link = 0;
    Asn from_asn = 0;
    int local_pref = 0;  ///< Import local-pref at the receiving AS.
    int igp_cost = 0;    ///< IGP cost from the receiver's backbone.
    /// Organizational route class as received (carried across siblings).
    std::optional<Relationship> org_class;
    /// Class governing selection/export at the receiving AS.
    std::optional<Relationship> effective_class;
  };
  static_assert(sizeof(RibRoute) == 32,
                "RibRoute is the bulk of a converged engine's memory");

  /// Read-only walk of one prefix's routing state for bulk exporters that
  /// work on interned ids (the oracle snapshot builder): calls
  /// `fn(asn, selected, rib_in)` for every AS holding a selected route, in
  /// ascending ASN order, where `rib_in` is a std::span<const RibRoute> in
  /// link order. The prefix is looked up once; nothing is materialized.
  template <typename Fn>
  void visit_routes(const Ipv4Prefix& prefix, Fn&& fn) const {
    const PrefixState* st = find_state(prefix);
    if (st == nullptr) return;
    for (std::size_t i = 0; i < st->per_as.size(); ++i) {
      const PerAs& pa = st->per_as[i];
      if (pa.selected.has_value())
        fn(static_cast<Asn>(i + 1), *pa.selected,
           std::span<const RibRoute>(pa.rib_in));
    }
  }

  /// Data-plane next hop of `asn` for `prefix`; nullopt when unrouted or
  /// self-originated.
  std::optional<Asn> forward_next_hop(Asn asn, const Ipv4Prefix& prefix) const;

  /// Current best routes of the given collector peers, over all prefixes —
  /// a RouteViews/RIS-style table dump, materialized from visit_feed().
  std::vector<FeedEntry> feed(std::span<const Asn> peers) const;

  /// The same dump without materializing it: calls `fn(peer, prefix, path)`
  /// for every prefix (in announcement order) and every peer in `peers`
  /// (in that order) that selected a route, where `path` is the selected
  /// path in paths(), excluding the peer. The collector sees `peer`
  /// prepended to it.
  template <typename Fn>
  void visit_feed(std::span<const Asn> peers, Fn&& fn) const {
    for (const auto& stp : states_)
      for (Asn peer : peers) {
        const auto& sel = stp->per_as[peer - 1].selected;
        if (sel.has_value()) fn(peer, stp->prefix, sel->path_id);
      }
  }

  /// All prefixes ever announced.
  std::vector<Ipv4Prefix> prefixes() const;

  LogicalTime now() const { return clock_; }
  int epoch() const { return epoch_; }
  std::size_t messages_delivered() const { return messages_; }
  bool converged() const { return converged_; }
  const Topology& topology() const { return *topo_; }

  /// Interned-path storage; Selected::path_id and RibRoute::path index
  /// into it.
  const PathTable& paths() const { return table_; }

  /// Instrumentation snapshot (merges engine and path-table counters).
  EngineCounters counters() const;

 private:
  /// Sentinel for PrefixState::sent slots: nothing advertised over that link.
  /// (No real advertisement can be the empty path either — export always
  /// prepends the sender — but an explicit sentinel keeps intent obvious.)
  static constexpr PathId kNotSent = 0xFFFFFFFFu;

  struct PerAs {
    /// Accepted routes, at most one per adjacent link.
    std::vector<RibRoute> rib_in;
    std::optional<Selected> selected;
    /// Forces the next process() to re-run exports even if the selection
    /// compares equal (set by announce/withdraw when options change).
    bool force_export = false;
  };

  struct PrefixState {
    Ipv4Prefix prefix;
    Asn origin = 0;
    bool originated = false;
    AnnounceOptions options;
    /// Interned root for the origin's (possibly poisoned) announcement,
    /// fixed at announce() so process() never re-interns the poison set.
    PathId origin_path = kEmptyPathId;
    std::vector<PerAs> per_as;
    /// Last path advertised over each outgoing link of every AS (kNotSent =
    /// withdrawn/never): AS a's slots start at slot_offset_[a - 1] and follow
    /// its adjacency list, which export walks in order. One flat array per
    /// prefix instead of one heap vector per AS.
    std::vector<PathId> sent;
    std::deque<Asn> queue;
    std::vector<bool> queued;

    /// Clears for (re)use, keeping the per-AS vector capacities (the point
    /// of the pool); every export slot starts at kNotSent.
    void reset(std::size_t num_ases, std::size_t num_slots);
  };

  PrefixState& state_for(const Ipv4Prefix& prefix);
  const PrefixState* find_state(const Ipv4Prefix& prefix) const;

  void enqueue(PrefixState& st, Asn asn);
  void process(PrefixState& st, Asn asn);
  /// Full decision process, most significant step first: does `a` beat `b`?
  bool preferred(const RibRoute& a, const RibRoute& b) const;
  void export_from(PrefixState& st, Asn asn);
  void deliver_update(PrefixState& st, Asn from, const Link& link,
                      PathId path, std::optional<Relationship> org_class);
  void deliver_withdraw(PrefixState& st, Asn from, const Link& link);

  const Topology* topo_;
  const GroundTruthPolicy* policy_;
  int epoch_;
  StatePool* pool_;
  LogicalTime clock_ = 0;
  std::size_t messages_ = 0;
  bool converged_ = true;
  PathTable table_;
  std::uint64_t selections_ = 0;
  std::uint64_t rib_scanned_ = 0;
  std::uint64_t states_reused_ = 0;
  /// Per-AS start of its export slots in PrefixState::sent, from
  /// topology().links_of(); the last entry is the slot count.
  std::vector<std::uint32_t> slot_offset_;
  std::unordered_map<Ipv4Prefix, std::size_t, Ipv4PrefixHash> index_;
  std::vector<std::unique_ptr<PrefixState>> states_;
};

}  // namespace irp
