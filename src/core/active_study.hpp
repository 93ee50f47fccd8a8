// Active control-plane experiments (§3.2), PEERING-style.
//
// The testbed AS announces an experiment prefix through its university
// muxes. Two experiments:
//
//   * Alternate-route discovery: per target AS T, repeatedly poison the
//     next-hop neighbor T currently uses (insert its ASN into the announced
//     AS-set, triggering BGP loop prevention there) until T runs out of
//     routes. The sequence of choices reveals T's relative preferences and
//     exposes links invisible to passive measurement.
//
//   * Magnet/anycast: announce from a single mux (the magnet), converge,
//     then anycast from every mux. Whether an AS keeps the (older) magnet
//     route or switches — and whether relationship/length explain the
//     choice — reverse-engineers which BGP decision step drove it (Table 2).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/engine.hpp"
#include "core/reports.hpp"
#include "inference/relationships.hpp"
#include "inference/siblings.hpp"
#include "topo/generator.hpp"

namespace irp {

/// Parameters of the active campaign.
struct ActiveConfig {
  /// Upper bound on poisoning rounds per target (route-flap hygiene).
  int max_rounds = 12;
  /// Upper bound on targeted ASes (the paper targeted 360).
  int max_targets = 360;
  /// Vantage ASes used for traceroute observation toward the prefix.
  int traceroute_vantages = 96;
  std::uint64_t seed = 11;
};

/// §3.2/§4.4 results of the alternate-route discovery.
struct AlternateRouteReport {
  std::size_t targets = 0;
  std::size_t both = 0;        ///< Chose routes following Best and Shortest.
  std::size_t best_only = 0;
  std::size_t short_only = 0;
  std::size_t neither = 0;
  std::size_t poisoned_announcements = 0;
  std::size_t links_observed = 0;
  std::size_t links_not_in_db = 0;
  std::size_t links_poison_only = 0;  ///< Of the new links, poisoning-only.
  std::vector<std::string> violation_notes;  ///< §4.4-style case studies.
};

/// The BGP side of alternate-route discovery: what the testbed saw while
/// poisoning each target's routes, before any of it is compared with the
/// analyst's relationship database.
struct DiscoverySimulation {
  /// One route a target chose: its next hop and AS-path length.
  struct Choice {
    Asn next_hop = 0;
    std::size_t len = 0;
  };
  /// Per target, in the order the targets ran: its choice before each
  /// poisoning round, until it ran out of routes (or rounds).
  std::vector<std::pair<Asn, std::vector<Choice>>> sequences;
  std::size_t poisoned_announcements = 0;
  /// Every AS-level link seen on an observed path, keyed by
  /// link_key(a, b); the value is true once the link was seen on a path
  /// toward an unpoisoned announcement.
  std::unordered_map<std::uint64_t, bool> links;

  /// The key of the unordered link {a, b}: the smaller ASN in the high half.
  static std::uint64_t link_key(Asn a, Asn b) {
    if (a > b) std::swap(a, b);
    return (std::uint64_t{a} << 32) | b;
  }
};

/// Row counts of Table 2.
struct TriggerCounts {
  std::size_t best_relationship = 0;
  std::size_t shorter_path = 0;
  std::size_t intradomain = 0;
  std::size_t oldest_route = 0;
  std::size_t violation = 0;
  std::size_t total() const {
    return best_relationship + shorter_path + intradomain + oldest_route +
           violation;
  }
};

/// Table 2: decision triggers per observation channel.
struct Table2Report {
  TriggerCounts feeds;
  TriggerCounts traceroutes;
};

/// The BGP decision step inferred for one observation.
enum class DecisionTrigger {
  kBestRelationship,
  kShorterPath,
  kIntradomain,
  kOldestRoute,
  kViolation,
};

/// Infers the decision trigger for a chosen route against the set of
/// alternatives the AS had, using the *inferred* relationships (the model's
/// view, as in the paper). `kept_oldest` marks that the chosen route is the
/// pre-anycast (magnet) route. When `siblings` is given, a next hop in the
/// subject's inferred sibling group ranks with customers (the paper's
/// sibling refinement, applied to the active analysis as well).
DecisionTrigger infer_trigger(const InferredTopology& inferred, Asn asn,
                              Asn chosen_next_hop, std::size_t chosen_len,
                              const std::vector<Route>& alternatives,
                              bool kept_oldest,
                              const SiblingGroups* siblings = nullptr);

/// Drives the active experiments on a dedicated engine.
class ActiveExperiment {
 public:
  /// `vantage_ases` are the probe ASes used for traceroute observation;
  /// `inferred` is the analyst's relationship database.
  ActiveExperiment(const GeneratedInternet* net,
                   const GroundTruthPolicy* policy,
                   const InferredTopology* inferred,
                   std::vector<Asn> vantage_ases, ActiveConfig config,
                   const SiblingGroups* siblings = nullptr);

  /// Runs the poisoning-based discovery over all reachable targets:
  /// evaluate_discovery(simulate_discovery(...)) over this experiment's
  /// inputs.
  AlternateRouteReport discover_alternate_routes();

  /// The simulation half of discovery: converges the testbed prefix on one
  /// engine (route ages carry over from target to target), observes it
  /// from `vantage_ases` and the collector peers, and poisons each target's
  /// chosen next hop round by round. It reads no inferred data, so it can
  /// run before (or beside) relationship inference.
  static DiscoverySimulation simulate_discovery(
      const GeneratedInternet& net, const GroundTruthPolicy& policy,
      const std::vector<Asn>& vantage_ases, const ActiveConfig& config);

  /// The evaluation half: scores each target's sequence and the observed
  /// links against the inferred relationships (and sibling groups, when
  /// given).
  static AlternateRouteReport evaluate_discovery(
      const DiscoverySimulation& sim, const InferredTopology& inferred,
      const SiblingGroups* siblings = nullptr);

  /// Runs the magnet/anycast experiment across all mux sites.
  Table2Report magnet_experiment();

  /// Greedy vantage selection: picks probe ASes maximizing the number of
  /// distinct ASes traversed on default paths toward the testbed (§3.2).
  static std::vector<Asn> select_vantages(const GeneratedInternet& net,
                                          const GroundTruthPolicy& policy,
                                          const std::vector<Asn>& candidates,
                                          int count);

 private:
  const GeneratedInternet* net_;
  const GroundTruthPolicy* policy_;
  const InferredTopology* inferred_;
  std::vector<Asn> vantages_;
  ActiveConfig config_;
  const SiblingGroups* siblings_ = nullptr;
};

}  // namespace irp
