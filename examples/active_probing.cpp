// Example: active control-plane experiments (§3.2), step by step.
//
// Shows the raw mechanics the paper's PEERING experiments rely on:
//   1. iterated BGP poisoning exposing a target AS's less-preferred routes;
//   2. the magnet/anycast experiment and the decision-trigger inference.
#include <cstdio>

#include "bgp/engine.hpp"
#include "core/active_study.hpp"
#include "core/passive_study.hpp"
#include "dataplane/traceroute.hpp"
#include "topo/generator.hpp"
#include "util/strings.hpp"

using namespace irp;

int main() {
  GeneratorConfig gen_config;
  auto net = generate_internet(gen_config);
  GroundTruthPolicy policy{&net->topology};
  const Ipv4Prefix prefix = net->testbed_prefixes[0];
  const Asn testbed = net->testbed_asn;

  std::printf("Testbed AS%u announces %s via %zu university muxes\n\n",
              testbed, prefix.to_string().c_str(),
              net->testbed_muxes.size());

  // ---- 1. Iterated poisoning against one target --------------------------
  BgpEngine engine{&net->topology, &policy, net->measurement_epoch};
  engine.announce(prefix, testbed);
  engine.run();

  // Pick a target: a large ISP with a route and several neighbors.
  Asn target = 0;
  for (Asn candidate : net->large_isps)
    if (engine.best(candidate, prefix) != nullptr) {
      target = candidate;
      break;
    }
  std::printf("-- Alternate-route discovery at target AS%u --\n", target);

  std::vector<Asn> poison;
  for (int round = 0; round < 8; ++round) {
    const auto* sel = engine.best(target, prefix);
    if (sel == nullptr) {
      std::printf("round %d: no route left — neighbor set exhausted\n",
                  round);
      break;
    }
    const AsPath path = engine.paths().materialize(sel->path_id);
    std::printf("round %d: via AS%-5u  path [%s]  len %zu\n", round,
                sel->next_hop, path.to_string().c_str(), path.length());
    poison.push_back(sel->next_hop);
    AnnounceOptions options;
    options.poison_set = poison;
    engine.announce(prefix, testbed, std::move(options));
    engine.run();
  }

  // ---- 2. Magnet/anycast at one site -------------------------------------
  std::printf("\n-- Magnet experiment (site 0) --\n");
  engine.withdraw(prefix);
  engine.run();
  AnnounceOptions magnet;
  magnet.only_links = {net->testbed_mux_links[0]};
  engine.announce(prefix, testbed, std::move(magnet));
  engine.run();

  // Renders a selected route's path for printing ("(none)" when unrouted).
  auto path_text = [&](const BgpEngine::Selected* sel) -> std::string {
    if (sel == nullptr) return "(none)";
    return engine.paths().materialize(sel->path_id).to_string();
  };
  std::printf("magnet-only route at AS%u: %s\n", target,
              path_text(engine.best(target, prefix)).c_str());

  engine.announce(prefix, testbed);  // Anycast from every site.
  engine.run();
  const auto* after = engine.best(target, prefix);
  const auto routes = engine.routes_at(target, prefix);
  std::printf("after anycast: chose %s among %zu candidate routes\n",
              path_text(after).c_str(),
              routes.size());

  // ---- 3. The full campaign ----------------------------------------------
  std::printf("\n-- Full campaign --\n");
  PassiveStudyConfig passive_config;
  const PassiveDataset ds = run_passive_study(*net, passive_config);
  std::set<Asn> candidates;
  for (const auto& p : ds.probes) candidates.insert(p.asn);
  const auto vantages = ActiveExperiment::select_vantages(
      *net, *ds.policy, {candidates.begin(), candidates.end()}, 96);
  ActiveExperiment active{net.get(), ds.policy.get(), &ds.inferred, vantages,
                          {}};

  const AlternateRouteReport alt = active.discover_alternate_routes();
  auto pct = [&](std::size_t n) {
    return percent(alt.targets == 0 ? 0.0 : double(n) / double(alt.targets));
  };
  std::printf("targets: %zu   Best&Short %s, Best-only %s, Short-only %s,"
              " neither %s\n",
              alt.targets, pct(alt.both).c_str(), pct(alt.best_only).c_str(),
              pct(alt.short_only).c_str(), pct(alt.neither).c_str());
  std::printf("links observed %zu, new to the relationship DB %zu,"
              " poisoning-only %zu\n",
              alt.links_observed, alt.links_not_in_db, alt.links_poison_only);

  const Table2Report t2 = active.magnet_experiment();
  std::printf("\nBGP decision triggers (feeds channel, total %zu):\n",
              t2.feeds.total());
  std::printf("  best relationship %zu, shorter path %zu, intradomain %zu,"
              " oldest %zu, violation %zu\n",
              t2.feeds.best_relationship, t2.feeds.shorter_path,
              t2.feeds.intradomain, t2.feeds.oldest_route,
              t2.feeds.violation);
  return 0;
}
