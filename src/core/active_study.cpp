#include "core/active_study.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "dataplane/traceroute.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace irp {
namespace {

/// Preference class with "unknown link" ranked below provider: if the
/// model does not even know the link, the decision cannot look Best.
int class_or_worst(const InferredTopology& inferred, Asn a, Asn b) {
  const auto rel = inferred.relationship(a, b);
  return rel ? preference_class(*rel) : 3;
}

}  // namespace

DecisionTrigger infer_trigger(const InferredTopology& inferred, Asn asn,
                              Asn chosen_next_hop, std::size_t chosen_len,
                              const std::vector<Route>& alternatives,
                              bool kept_oldest, const SiblingGroups* siblings) {
  IRP_CHECK(!alternatives.empty(), "trigger inference needs alternatives");
  // A chosen sibling route is internal to the organization; the model has
  // no opinion about it, so the choice always satisfies Best (§4.2).
  if (siblings != nullptr && siblings->same_group(asn, chosen_next_hop))
    return DecisionTrigger::kBestRelationship;
  const int chosen_class = class_or_worst(inferred, asn, chosen_next_hop);

  bool any_cheaper = false;
  bool any_same_class = false;
  bool any_same_class_shorter = false;
  bool all_same_class_longer = true;
  for (const Route& alt : alternatives) {
    // Sibling alternatives are likewise model-silent: skip them.
    if (siblings != nullptr && siblings->same_group(asn, alt.from_asn))
      continue;
    const int cls = class_or_worst(inferred, asn, alt.from_asn);
    const std::size_t len = alt.path.length();
    if (cls < chosen_class) any_cheaper = true;
    if (cls == chosen_class) {
      any_same_class = true;
      if (len < chosen_len) any_same_class_shorter = true;
      if (len <= chosen_len) all_same_class_longer = false;
    }
  }

  // A strictly cheaper (or equally cheap but shorter) alternative that was
  // not chosen contradicts the model outright.
  if (any_cheaper || any_same_class_shorter) return DecisionTrigger::kViolation;
  if (!any_same_class) return DecisionTrigger::kBestRelationship;
  if (all_same_class_longer) return DecisionTrigger::kShorterPath;
  // Tied on relationship and length: the last observable tie-breakers.
  return kept_oldest ? DecisionTrigger::kOldestRoute
                     : DecisionTrigger::kIntradomain;
}

ActiveExperiment::ActiveExperiment(const GeneratedInternet* net,
                                   const GroundTruthPolicy* policy,
                                   const InferredTopology* inferred,
                                   std::vector<Asn> vantage_ases,
                                   ActiveConfig config,
                                   const SiblingGroups* siblings)
    : net_(net),
      policy_(policy),
      inferred_(inferred),
      vantages_(std::move(vantage_ases)),
      config_(config),
      siblings_(siblings) {
  IRP_CHECK(net_ && policy_ && inferred_, "active experiment inputs missing");
}

std::vector<Asn> ActiveExperiment::select_vantages(
    const GeneratedInternet& net, const GroundTruthPolicy& policy,
    const std::vector<Asn>& candidates, int count) {
  BgpEngine engine{&net.topology, &policy, net.measurement_epoch};
  engine.announce(net.testbed_prefixes[0], net.testbed_asn);
  engine.run();
  TracerouteSim tracer{&net.topology, &engine};

  std::vector<std::pair<Asn, std::vector<Asn>>> paths;
  for (Asn c : candidates) {
    auto p = tracer.forwarding_path(c, net.testbed_prefixes[0]);
    if (!p.empty()) paths.emplace_back(c, std::move(p));
  }

  // Greedy max-coverage of traversed ASes (§3.2's heuristic).
  std::set<Asn> covered;
  std::vector<Asn> chosen;
  std::vector<bool> used(paths.size(), false);
  while (int(chosen.size()) < count) {
    std::size_t best = paths.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (used[i]) continue;
      std::size_t gain = 0;
      for (Asn asn : paths[i].second)
        if (!covered.count(asn)) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == paths.size()) {
      // No remaining gain: fill with unused candidates in order.
      for (std::size_t i = 0; i < paths.size() && int(chosen.size()) < count;
           ++i)
        if (!used[i]) {
          used[i] = true;
          chosen.push_back(paths[i].first);
        }
      break;
    }
    used[best] = true;
    chosen.push_back(paths[best].first);
    for (Asn asn : paths[best].second) covered.insert(asn);
  }
  return chosen;
}

AlternateRouteReport ActiveExperiment::discover_alternate_routes() {
  return evaluate_discovery(
      simulate_discovery(*net_, *policy_, vantages_, config_), *inferred_,
      siblings_);
}

DiscoverySimulation ActiveExperiment::simulate_discovery(
    const GeneratedInternet& net, const GroundTruthPolicy& policy,
    const std::vector<Asn>& vantage_ases, const ActiveConfig& config) {
  const Ipv4Prefix prefix = net.testbed_prefixes[0];
  const Asn testbed = net.testbed_asn;
  BgpEngine engine{&net.topology, &policy, net.measurement_epoch};
  const TracerouteSim tracer{&net.topology, &engine};
  DiscoverySimulation sim;

  // One observation records the links of every AS-level path toward the
  // prefix currently observable: the forwarding path of each vantage AS
  // and each collector peer's feed path. `path` is reused throughout.
  std::vector<Asn> path;
  const auto record = [&](bool poisoned) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto it = sim.links.try_emplace(
          DiscoverySimulation::link_key(path[i], path[i + 1]), !poisoned);
      if (!poisoned) it.first->second = true;
    }
  };
  const auto observe = [&](bool poisoned) {
    for (Asn v : vantage_ases) {
      tracer.forwarding_path(v, prefix, path);
      record(poisoned);
    }
    for (Asn peer : net.collector_peers) {
      const BgpEngine::Selected* sel = engine.best(peer, prefix);
      if (sel == nullptr) continue;
      path.assign(1, peer);
      engine.paths().append_hops(sel->path_id, path);
      record(poisoned);
    }
  };

  engine.announce(prefix, testbed);
  engine.run();
  observe(false);

  // Targets: every AS on a baseline path but the testbed; each is an
  // endpoint of a link recorded so far.
  std::vector<Asn> target_list;
  for (const auto& [key, unpoisoned] : sim.links)
    for (Asn asn : {static_cast<Asn>(key >> 32), static_cast<Asn>(key)})
      if (asn != testbed) target_list.push_back(asn);
  std::sort(target_list.begin(), target_list.end());
  target_list.erase(std::unique(target_list.begin(), target_list.end()),
                    target_list.end());

  Rng rng{config.seed};
  rng.shuffle(target_list);
  if (config.max_targets > 0 &&
      target_list.size() > static_cast<std::size_t>(config.max_targets))
    target_list.resize(config.max_targets);

  for (Asn target : target_list) {
    // Fresh unpoisoned announcement for each target's run.
    engine.announce(prefix, testbed);
    engine.run();
    observe(false);

    std::vector<DiscoverySimulation::Choice> sequence;
    std::vector<Asn> poison;
    for (int round = 0; round < config.max_rounds; ++round) {
      const BgpEngine::Selected* sel = engine.best(target, prefix);
      if (sel == nullptr || sel->self_originated) break;
      // The origin itself cannot be poisoned (its own announcement would
      // carry its ASN anyway); a target adjacent to the testbed has
      // exhausted its alternatives at this point.
      if (sel->next_hop == testbed) break;
      sequence.push_back({sel->next_hop, engine.paths().length(sel->path_id)});
      poison.push_back(sel->next_hop);
      AnnounceOptions options;
      options.poison_set = poison;
      engine.announce(prefix, testbed, std::move(options));
      engine.run();
      ++sim.poisoned_announcements;
      observe(true);
    }
    sim.sequences.emplace_back(target, std::move(sequence));
  }
  return sim;
}

AlternateRouteReport ActiveExperiment::evaluate_discovery(
    const DiscoverySimulation& sim, const InferredTopology& inferred,
    const SiblingGroups* siblings) {
  AlternateRouteReport report;
  report.poisoned_announcements = sim.poisoned_announcements;
  for (const auto& [target, sequence] : sim.sequences) {
    if (sequence.size() < 2) continue;  // No alternate route revealed.
    ++report.targets;

    bool best_ok = true;
    bool short_ok = true;
    std::string first_violation;
    for (std::size_t i = 0; i + 1 < sequence.size(); ++i) {
      const auto r1 = inferred.relationship(target, sequence[i].next_hop);
      const auto r2 = inferred.relationship(target, sequence[i + 1].next_hop);
      const bool sib1 = siblings != nullptr &&
                        siblings->same_group(target, sequence[i].next_hop);
      const bool sib2 =
          siblings != nullptr &&
          siblings->same_group(target, sequence[i + 1].next_hop);
      // Sibling hops are internal to the organization and the unknown-link
      // case gives the relationship database no opinion: neither can
      // confirm or refute the Best ordering.
      if (!r1 || !r2 || sib1 || sib2) {
        if (sequence[i].len > sequence[i + 1].len) short_ok = false;
        continue;
      }
      const int c1 = preference_class(*r1);
      const int c2 = preference_class(*r2);
      if (c1 > c2) {
        best_ok = false;
        if (first_violation.empty())
          first_violation =
              "AS" + std::to_string(target) + " preferred AS" +
              std::to_string(sequence[i].next_hop) + " (class " +
              std::to_string(c1) + ") over AS" +
              std::to_string(sequence[i + 1].next_hop) + " (class " +
              std::to_string(c2) + "), contradicting inferred relationships";
      }
      if (sequence[i].len > sequence[i + 1].len) short_ok = false;
    }
    if (best_ok && short_ok)
      ++report.both;
    else if (best_ok)
      ++report.best_only;
    else if (short_ok)
      ++report.short_only;
    else
      ++report.neither;
    if (!best_ok && !short_ok && report.violation_notes.size() < 8)
      report.violation_notes.push_back(first_violation);
  }

  report.links_observed = sim.links.size();
  for (const auto& [key, unpoisoned] : sim.links) {
    if (inferred.has_link(static_cast<Asn>(key >> 32), static_cast<Asn>(key)))
      continue;
    ++report.links_not_in_db;
    if (!unpoisoned) ++report.links_poison_only;
  }
  return report;
}

Table2Report ActiveExperiment::magnet_experiment() {
  const Ipv4Prefix prefix = net_->testbed_prefixes[0];
  const Asn testbed = net_->testbed_asn;
  BgpEngine engine{&net_->topology, policy_, net_->measurement_epoch};
  TracerouteSim tracer{&net_->topology, &engine};

  Table2Report report;
  const std::set<Asn> feed_ases{net_->collector_peers.begin(),
                                net_->collector_peers.end()};

  for (LinkId magnet_link : net_->testbed_mux_links) {
    // Stage 1: announce only at the magnet and converge.
    engine.withdraw(prefix);
    engine.run();
    AnnounceOptions magnet_opts;
    magnet_opts.only_links = {magnet_link};
    engine.announce(prefix, testbed, std::move(magnet_opts));
    engine.run();

    // Interned ids stay valid (and value-comparable) for the engine's
    // lifetime, so the magnet routes are kept as ids.
    std::map<Asn, PathId> before;
    net_->topology.for_each_as([&](const AsNode& node) {
      const auto* sel = engine.best(node.asn, prefix);
      if (sel != nullptr && !sel->self_originated)
        before[node.asn] = sel->path_id;
    });
    std::set<Asn> traceroute_ases;
    for (Asn v : vantages_)
      for (Asn asn : tracer.forwarding_path(v, prefix))
        if (asn != testbed) traceroute_ases.insert(asn);

    // Stage 2: anycast from every mux.
    engine.announce(prefix, testbed, AnnounceOptions{});
    engine.run();
    for (Asn v : vantages_)
      for (Asn asn : tracer.forwarding_path(v, prefix))
        if (asn != testbed) traceroute_ases.insert(asn);

    auto analyze = [&](Asn x, TriggerCounts& counts) {
      auto it = before.find(x);
      if (it == before.end()) return;  // Never saw the magnet route.
      const auto* sel = engine.best(x, prefix);
      if (sel == nullptr || sel->self_originated) return;
      const auto routes = engine.routes_at(x, prefix);
      if (routes.size() < 2) return;  // No decision to explain.

      const bool kept = sel->path_id == it->second;
      if (!kept) {
        // If the magnet route vanished from x's Adj-RIB-In, a downstream AS
        // made the interesting decision; skip x (the downstream AS is
        // analyzed on its own).
        const AsPath magnet = engine.paths().materialize(it->second);
        const bool magnet_still_offered =
            std::any_of(routes.begin(), routes.end(),
                        [&](const Route& r) { return r.path == magnet; });
        if (!magnet_still_offered) return;
      }

      std::vector<Route> alternatives;
      for (const Route& r : routes)
        if (r.via_link != sel->via_link) alternatives.push_back(r);
      if (alternatives.empty()) return;

      switch (infer_trigger(*inferred_, x, sel->next_hop,
                            engine.paths().length(sel->path_id),
                            alternatives, kept, siblings_)) {
        case DecisionTrigger::kBestRelationship: ++counts.best_relationship; break;
        case DecisionTrigger::kShorterPath:      ++counts.shorter_path; break;
        case DecisionTrigger::kIntradomain:      ++counts.intradomain; break;
        case DecisionTrigger::kOldestRoute:      ++counts.oldest_route; break;
        case DecisionTrigger::kViolation:        ++counts.violation; break;
      }
    };

    for (Asn x : feed_ases) analyze(x, report.feeds);
    for (Asn x : traceroute_ases) analyze(x, report.traceroutes);
  }
  return report;
}

}  // namespace irp
