// Tests for traceroute simulation, IP-to-AS conversion, probes, and DNS.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/as_type.hpp"
#include "dataplane/dns.hpp"
#include "dataplane/ip_to_as.hpp"
#include "dataplane/probes.hpp"
#include "dataplane/traceroute.hpp"
#include "test_support.hpp"
#include "topo/generator.hpp"

namespace irp {
namespace {

TEST(IpToAs, LongestPrefixAndCollapse) {
  IpToAsMap map;
  map.add(*Ipv4Prefix::parse("10.1.0.0/16"), 1);
  map.add(*Ipv4Prefix::parse("10.2.0.0/16"), 2);
  map.add(*Ipv4Prefix::parse("10.2.5.0/24"), 3);

  EXPECT_EQ(map.lookup(*Ipv4Addr::parse("10.2.5.9")), 3u);
  EXPECT_EQ(map.lookup(*Ipv4Addr::parse("10.2.9.9")), 2u);
  EXPECT_EQ(map.lookup(*Ipv4Addr::parse("192.0.2.1")), std::nullopt);

  // Consecutive same-AS hops collapse; unmapped hops are skipped.
  const std::vector<Ipv4Addr> hops{
      *Ipv4Addr::parse("10.1.0.1"), *Ipv4Addr::parse("10.1.0.2"),
      *Ipv4Addr::parse("192.0.2.1"),  // Unmapped.
      *Ipv4Addr::parse("10.2.0.1"), *Ipv4Addr::parse("10.2.5.1")};
  EXPECT_EQ(map.as_path_of(hops), (std::vector<Asn>{1, 2, 3}));
}

TEST(IpToAs, FromTopologyCoversInfraAndAnnounced) {
  test::TinyTopo t;
  const Asn a = t.add();
  const auto map = IpToAsMap::from_topology(t.topo);
  EXPECT_EQ(map.lookup(t.topo.as_node(a).pops[0].router_prefix.address_at(1)),
            a);
  EXPECT_EQ(map.lookup(t.prefix_of(a).address_at(1)), a);
}

TEST(Traceroute, WalksToDestinationWithSaneHops) {
  test::TinyTopo t;
  const Asn src = t.add();
  const Asn mid = t.add();
  const Asn dst = t.add();
  t.link(src, mid, Relationship::kProvider);
  t.link(mid, dst, Relationship::kCustomer);
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(dst);
  engine.announce(pfx, dst);
  engine.run();

  TracerouteSim sim{&t.topo, &engine};
  const auto tr = sim.run(src, t.prefix_of(src).address_at(9),
                          pfx.address_at(20), pfx);
  ASSERT_TRUE(tr.has_value());
  EXPECT_TRUE(tr->reached);
  ASSERT_EQ(tr->hops.size(), 3u);  // mid router, dst router, dst host.
  EXPECT_EQ(tr->hops[0].truth_asn, mid);
  EXPECT_EQ(tr->hops[1].truth_asn, dst);
  EXPECT_EQ(tr->hops[2].address, pfx.address_at(20));

  const auto map = IpToAsMap::from_topology(t.topo);
  std::vector<Ipv4Addr> ips{t.prefix_of(src).address_at(9)};
  for (const auto& h : tr->hops) ips.push_back(h.address);
  EXPECT_EQ(map.as_path_of(ips), (std::vector<Asn>{src, mid, dst}));

  EXPECT_EQ(sim.forwarding_path(src, pfx), (std::vector<Asn>{src, mid, dst}));
}

TEST(Traceroute, NoRouteAtSourceReturnsNullopt) {
  test::TinyTopo t;
  const Asn src = t.add();
  const Asn dst = t.add();  // Not connected.
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  const Ipv4Prefix pfx = t.prefix_of(dst);
  engine.announce(pfx, dst);
  engine.run();
  TracerouteSim sim{&t.topo, &engine};
  EXPECT_FALSE(sim.run(src, t.prefix_of(src).address_at(1), pfx.address_at(1),
                       pfx)
                   .has_value());
  EXPECT_TRUE(sim.forwarding_path(src, pfx).empty());
}

TEST(Traceroute, RejectsAddressOutsidePrefix) {
  test::TinyTopo t;
  const Asn a = t.add();
  GroundTruthPolicy policy{&t.topo};
  BgpEngine engine{&t.topo, &policy, 0};
  TracerouteSim sim{&t.topo, &engine};
  EXPECT_THROW(sim.run(a, Ipv4Addr{}, *Ipv4Addr::parse("9.9.9.9"),
                       t.prefix_of(a)),
               CheckError);
}

TEST(Traceroute, ConcurrentReadersOfOneConvergedEngineMatchSerial) {
  // best(), forward_next_hop() and TracerouteSim only read a converged
  // engine, so threads may share one. Four threads trace the same probe set
  // and must each reproduce the serial transcript (an IRP_SANITIZE=thread
  // build also checks that the reads do not race).
  const auto net = generate_internet(test::small_generator_config());
  const Topology& topo = net->topology;
  GroundTruthPolicy policy{&topo};
  BgpEngine engine{&topo, &policy, net->measurement_epoch};
  std::vector<Ipv4Prefix> targets;
  for (Asn origin = 1; origin <= topo.num_ases() && targets.size() < 24;
       origin += 3) {
    if (topo.as_node(origin).prefixes.empty()) continue;
    targets.push_back(topo.as_node(origin).prefixes[0].prefix);
    engine.announce(targets.back(), origin);
  }
  engine.run();
  ASSERT_TRUE(engine.converged());
  const TracerouteSim sim{&topo, &engine};

  const auto transcript = [&] {
    std::ostringstream out;
    for (const Ipv4Prefix& prefix : targets) {
      for (Asn src = 1; src <= topo.num_ases(); ++src) {
        out << src << ' ' << prefix.to_string() << ':';
        if (const auto* sel = engine.best(src, prefix))
          out << " sel=" << sel->path_id << '/' << sel->next_hop;
        if (const auto nh = engine.forward_next_hop(src, prefix))
          out << " nh=" << *nh;
        const auto tr = sim.run(src, topo.as_node(src).pops[0].router_prefix
                                         .address_at(1),
                                prefix.address_at(1), prefix);
        if (tr.has_value()) {
          out << " reached=" << tr->reached;
          for (const TracerouteHop& hop : tr->hops)
            out << ' ' << hop.address.to_string() << '@' << hop.truth_asn;
        }
        out << " fwd";
        for (Asn asn : sim.forwarding_path(src, prefix)) out << ' ' << asn;
        out << '\n';
      }
    }
    return out.str();
  };

  // The threads read the freshly converged engine before the serial pass,
  // so no read can lean on state an earlier read left behind.
  std::vector<std::string> parallel(4);
  std::vector<std::thread> threads;
  for (std::string& result : parallel)
    threads.emplace_back([&result, &transcript] { result = transcript(); });
  for (std::thread& t : threads) t.join();
  const std::string serial = transcript();
  for (const std::string& result : parallel) EXPECT_EQ(result, serial);
  EXPECT_NE(serial.find("reached=1"), std::string::npos);
}

TEST(AsTypes, ClassifierBuckets) {
  test::TinyTopo t;
  const Asn t1 = t.add();    // No providers, has customers.
  const Asn large = t.add();
  const Asn stub = t.add();
  t.link(t1, large, Relationship::kCustomer);
  t.link(large, stub, Relationship::kCustomer);
  // Give `large` a big cone so it crosses the large threshold.
  for (int i = 0; i < 30; ++i) {
    const Asn extra = t.add();
    t.link(large, extra, Relationship::kCustomer);
  }
  AsTypeClassifier cls{&t.topo, 0, /*large_cone_threshold=*/25};
  EXPECT_EQ(cls.classify(t1), AsCategory::kTier1);
  EXPECT_EQ(cls.classify(large), AsCategory::kLargeIsp);
  EXPECT_EQ(cls.classify(stub), AsCategory::kStub);

  AsTypeClassifier strict{&t.topo, 0, /*large_cone_threshold=*/1000};
  EXPECT_EQ(strict.classify(large), AsCategory::kSmallIsp);
}

class SampledNet : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = generate_internet(test::small_generator_config()).release();
  }
  static void TearDownTestSuite() {
    delete net_;
    net_ = nullptr;
  }
  static const GeneratedInternet* net_;
};
const GeneratedInternet* SampledNet::net_ = nullptr;

TEST_F(SampledNet, SamplerBalancesContinents) {
  ProbeSamplerConfig config;
  config.platform_probes_per_continent = 80;
  config.sample_per_continent = 40;
  ProbeSampler sampler{&net_->topology, &net_->world, config, Rng{9}};
  const auto population = sampler.platform_population();
  const auto sample = sampler.sample(population);

  std::map<Continent, int> per_continent;
  for (const auto& p : sample) ++per_continent[p.continent];
  for (const auto& [c, n] : per_continent) EXPECT_EQ(n, 40) << int(c);

  // Europe over-representation exists in the platform, not the sample.
  std::map<Continent, int> platform;
  for (const auto& p : population) ++platform[p.continent];
  EXPECT_GT(platform[Continent::kEurope], platform[Continent::kAfrica]);
}

TEST_F(SampledNet, SampleSpreadsAcrossAsesAndCountries) {
  ProbeSamplerConfig config;
  config.platform_probes_per_continent = 80;
  config.sample_per_continent = 30;
  ProbeSampler sampler{&net_->topology, &net_->world, config, Rng{10}};
  const auto sample = sampler.sample(sampler.platform_population());
  std::set<Asn> ases;
  std::set<CountryId> countries;
  for (const auto& p : sample) {
    ases.insert(p.asn);
    countries.insert(p.country);
  }
  EXPECT_GT(ases.size(), sample.size() / 3);
  EXPECT_GE(countries.size(), 12u);  // Round-robin hits many countries.
}

TEST_F(SampledNet, ResolverPrefersCloserCaches) {
  const auto& net = *net_;
  ContentResolver resolver{&net.topology, &net.world, &net.content};
  // Find a service with caches and a non-premium hostname.
  for (const auto& svc : net.content.services()) {
    for (const auto& h : svc.hostnames) {
      for (Asn client : net.stubs) {
        const auto answer = resolver.resolve(h.name, client);
        ASSERT_TRUE(answer.has_value());
        if (h.premium) {
          EXPECT_FALSE(answer->from_cache);
          EXPECT_EQ(answer->serving_asn, svc.origin_asn);
          EXPECT_EQ(answer->prefix, h.origin_prefix);
        } else if (answer->from_cache) {
          // Cache must be on the client's continent (mapping policy).
          const Continent client_cont = net.world.continent_of_country(
              net.topology.as_node(client).home_country);
          const Continent host_cont = net.world.continent_of_country(
              net.topology.as_node(answer->serving_asn).home_country);
          EXPECT_EQ(client_cont, host_cont);
        }
        // Prefix covers the answer address either way.
        EXPECT_TRUE(answer->prefix.contains(answer->address));
      }
    }
  }
}

TEST_F(SampledNet, ResolverSameCountryCacheWinsWhenPresent) {
  const auto& net = *net_;
  ContentResolver resolver{&net.topology, &net.world, &net.content};
  for (const auto& svc : net.content.services()) {
    for (const auto& cache : svc.caches) {
      const CountryId cache_country =
          net.topology.as_node(cache.host_asn).home_country;
      // A client in the same country as a cache must be served in-country.
      for (const auto& h : svc.hostnames) {
        if (h.premium) continue;
        for (Asn client : net.stubs) {
          if (net.topology.as_node(client).home_country != cache_country)
            continue;
          const auto answer = resolver.resolve(h.name, client);
          ASSERT_TRUE(answer.has_value());
          ASSERT_TRUE(answer->from_cache);
          EXPECT_EQ(net.topology.as_node(answer->serving_asn).home_country,
                    cache_country);
          break;  // One client per cache is plenty.
        }
        break;
      }
    }
  }
}

TEST_F(SampledNet, ResolverUnknownHostname) {
  ContentResolver resolver{&net_->topology, &net_->world, &net_->content};
  EXPECT_FALSE(resolver.resolve("not-a-host.example", net_->stubs[0])
                   .has_value());
}

}  // namespace
}  // namespace irp
