// Equivalence bar for the interned-path engine rewrite: on generated
// topologies, BgpEngine and the frozen pre-refactor BaselineBgpEngine must
// be *byte-identical* observables-for-observables — collector feeds, per-AS
// Selected routes (path, attributes, age), Adj-RIB-In contents, and
// messages_delivered() — across announcements with options (selective
// announcement, prepending), poisoning rounds, withdrawals, and epochs.
//
// Any divergence here means the zero-copy hot path changed engine
// *behaviour*, not just its cost.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bgp/baseline_engine.hpp"
#include "bgp/engine.hpp"
#include "test_support.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"

namespace irp {
namespace {

std::string dump_selected_common(const AsPath& path, LinkId via_link,
                                 Asn next_hop, LogicalTime age, int local_pref,
                                 bool self_originated,
                                 const std::optional<Relationship>& cls) {
  std::ostringstream out;
  out << '[' << path.to_string() << "] via=" << via_link << " nh=" << next_hop
      << " age=" << age << " lp=" << local_pref << " self=" << self_originated
      << " class=" << (cls ? std::string(relationship_name(*cls)) : "none");
  return out.str();
}

std::string dump_route(const Route& r) {
  std::ostringstream out;
  out << '[' << r.path.to_string() << "] via=" << r.via_link
      << " from=" << r.from_asn << " at=" << r.received_at << " org="
      << (r.org_class ? std::string(relationship_name(*r.org_class)) : "none");
  return out.str();
}

/// The selected path as a value: the baseline engine stores it in the
/// Selected record, the interned engine keeps only an id into paths().
AsPath selected_path(const BaselineBgpEngine&,
                     const BaselineBgpEngine::Selected& sel) {
  return sel.path;
}
AsPath selected_path(const BgpEngine& engine, const BgpEngine::Selected& sel) {
  return engine.paths().materialize(sel.path_id);
}

/// Full observable dump of an engine: works for both engine types because
/// the public accessors are call-compatible.
template <typename Engine>
std::string dump_engine(const Engine& engine, std::span<const Asn> peers) {
  std::ostringstream out;
  out << "messages=" << engine.messages_delivered()
      << " converged=" << engine.converged() << '\n';
  for (const Ipv4Prefix& prefix : engine.prefixes()) {
    out << "prefix " << prefix.to_string() << '\n';
    for (Asn asn = 1; asn <= engine.topology().num_ases(); ++asn) {
      const auto* sel = engine.best(asn, prefix);
      if (sel != nullptr)
        out << "  AS" << asn << " sel "
            << dump_selected_common(selected_path(engine, *sel),
                                    sel->via_link, sel->next_hop, sel->age,
                                    sel->local_pref, sel->self_originated,
                                    sel->effective_class)
            << '\n';
      for (const Route& r : engine.routes_at(asn, prefix))
        out << "  AS" << asn << " rib " << dump_route(r) << '\n';
    }
  }
  out << "feed:\n";
  for (const FeedEntry& e : engine.feed(peers))
    out << "  " << e.peer << ' ' << e.prefix.to_string() << " ["
        << e.path.to_string() << "]\n";
  return out.str();
}

/// Applies the same scripted scenario to both engines, comparing the full
/// observable state after every convergence.
class EnginePair {
 public:
  EnginePair(const Topology* topo, const GroundTruthPolicy* policy, int epoch,
             std::vector<Asn> peers)
      : engine_(topo, policy, epoch),
        baseline_(topo, policy, epoch),
        peers_(std::move(peers)) {}

  void announce(const Ipv4Prefix& prefix, Asn origin,
                const AnnounceOptions& options = {}) {
    engine_.announce(prefix, origin,
                     AnnounceOptions{options.poison_set, options.only_links,
                                     options.prepend_on});
    baseline_.announce(prefix, origin,
                       AnnounceOptions{options.poison_set, options.only_links,
                                       options.prepend_on});
  }

  void withdraw(const Ipv4Prefix& prefix) {
    engine_.withdraw(prefix);
    baseline_.withdraw(prefix);
  }

  void run_and_compare(const std::string& stage) {
    engine_.run();
    baseline_.run();
    ASSERT_EQ(engine_.messages_delivered(), baseline_.messages_delivered())
        << stage;
    ASSERT_EQ(dump_engine(engine_, peers_), dump_engine(baseline_, peers_))
        << stage;
  }

  BgpEngine& engine() { return engine_; }

 private:
  BgpEngine engine_;
  BaselineBgpEngine baseline_;
  std::vector<Asn> peers_;
};

TEST(EngineEquivalence, CorpusStyleConvergenceOnGeneratedInternet) {
  const auto net = generate_internet(test::small_generator_config());
  GroundTruthPolicy policy{&net->topology};

  // One prefix per AS, announced in batches, at two different epochs — the
  // exact shape of the passive study's corpus build.
  std::vector<std::pair<Ipv4Prefix, Asn>> origins;
  net->topology.for_each_as([&](const AsNode& node) {
    if (!node.prefixes.empty())
      origins.emplace_back(node.prefixes.front().prefix, node.asn);
  });
  ASSERT_GT(origins.size(), 50u);

  for (int epoch : {0, net->measurement_epoch}) {
    EnginePair pair{&net->topology, &policy, epoch, net->collector_peers};
    std::size_t announced = 0;
    for (const auto& [prefix, origin] : origins) {
      pair.announce(prefix, origin);
      if (++announced % 40 == 0)
        pair.run_and_compare("epoch " + std::to_string(epoch) + " batch at " +
                             std::to_string(announced));
    }
    pair.run_and_compare("epoch " + std::to_string(epoch) + " final");
  }
}

TEST(EngineEquivalence, AnnounceOptionsAndMeasurementPrefixes) {
  const auto net = generate_internet(test::small_generator_config());
  GroundTruthPolicy policy{&net->topology};
  EnginePair pair{&net->topology, &policy, net->measurement_epoch,
                  net->collector_peers};

  // Announce every originated prefix with its ground-truth options —
  // exercises selective announcement (only_links) and per-link prepending.
  net->topology.for_each_as([&](const AsNode& node) {
    for (const auto& op : node.prefixes) {
      AnnounceOptions options;
      options.only_links = op.announce_only_on;
      options.prepend_on = op.prepend_on;
      pair.announce(op.prefix, node.asn, options);
    }
  });
  pair.run_and_compare("all prefixes with options");
}

TEST(EngineEquivalence, PoisoningWithdrawalAndReannouncement) {
  const auto net = generate_internet(test::small_generator_config());
  GroundTruthPolicy policy{&net->topology};
  const Ipv4Prefix prefix = net->testbed_prefixes[0];
  const Asn testbed = net->testbed_asn;

  EnginePair pair{&net->topology, &policy, net->measurement_epoch,
                  net->collector_peers};
  pair.announce(prefix, testbed);
  pair.run_and_compare("baseline announcement");

  // Progressive poisoning, the §3.2 alternate-route probe: at every round
  // poison the current next hop of some AS that has a route.
  Rng rng{99};
  std::vector<Asn> poison;
  for (int round = 0; round < 6; ++round) {
    const Asn probe = Asn(1 + rng.index(net->topology.num_ases()));
    const auto* sel = pair.engine().best(probe, prefix);
    if (sel == nullptr || sel->self_originated || sel->next_hop == testbed)
      continue;
    poison.push_back(sel->next_hop);
    AnnounceOptions options;
    options.poison_set = poison;
    pair.announce(prefix, testbed, options);
    pair.run_and_compare("poison round " + std::to_string(round));
  }

  pair.withdraw(prefix);
  pair.run_and_compare("withdraw");
  pair.announce(prefix, testbed);
  pair.run_and_compare("re-announce clean");
}

TEST(EngineEquivalence, CountersAndStatePoolAreConsistent) {
  const auto net = generate_internet(test::small_generator_config());
  GroundTruthPolicy policy{&net->topology};

  // Two engine generations over one pool: the second generation must reuse
  // the first one's per-prefix state and still match the baseline.
  BgpEngine::StatePool state_pool;
  std::vector<std::pair<Ipv4Prefix, Asn>> origins;
  net->topology.for_each_as([&](const AsNode& node) {
    if (!node.prefixes.empty() && node.asn <= 40)
      origins.emplace_back(node.prefixes.front().prefix, node.asn);
  });

  std::string first_dump;
  for (int generation = 0; generation < 2; ++generation) {
    BgpEngine engine{&net->topology, &policy, 0, &state_pool};
    BaselineBgpEngine baseline{&net->topology, &policy, 0};
    for (const auto& [prefix, origin] : origins) {
      engine.announce(prefix, origin);
      baseline.announce(prefix, origin);
    }
    engine.run();
    baseline.run();
    const std::string dump = dump_engine(engine, net->collector_peers);
    ASSERT_EQ(dump, dump_engine(baseline, net->collector_peers))
        << "generation " << generation;
    if (generation == 0) {
      first_dump = dump;
      EXPECT_EQ(engine.counters().states_reused, 0u);
    } else {
      // Pooled state reuse changes nothing observable.
      EXPECT_EQ(dump, first_dump);
      EXPECT_EQ(engine.counters().states_reused, origins.size());
    }

    const EngineCounters c = engine.counters();
    EXPECT_GT(c.paths_interned, 0u);
    EXPECT_GT(c.intern_hits, 0u);
    EXPECT_GT(c.selections_run, 0u);
    EXPECT_GE(c.rib_routes_scanned, c.selections_run / 2);
  }
  EXPECT_EQ(state_pool.reuses(), origins.size());
  EXPECT_EQ(state_pool.available(), origins.size());
}

}  // namespace
}  // namespace irp
