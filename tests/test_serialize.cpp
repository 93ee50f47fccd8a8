// Tests for topology serialization, CAIDA-format I/O, CSV export, and file
// helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/report_io.hpp"
#include "core/study.hpp"
#include "inference/serialize.hpp"
#include "test_support.hpp"
#include "topo/generator.hpp"
#include "topo/serialize.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace irp {
namespace {

TEST(CaidaFormat, RoundTripsLabelsAndOrientation) {
  InferredTopology topo;
  topo.set(1, 2, InferredRel::kPeer);
  topo.set(3, 4, InferredRel::kAProviderOfB);  // 3 provides 4.
  topo.set(6, 5, InferredRel::kAProviderOfB);  // 6 provides 5.
  const std::string text = to_caida_format(topo);
  const InferredTopology parsed = from_caida_format(text);
  EXPECT_EQ(parsed.num_links(), 3u);
  EXPECT_EQ(parsed.relationship(1, 2), Relationship::kPeer);
  EXPECT_EQ(parsed.relationship(4, 3), Relationship::kProvider);
  EXPECT_EQ(parsed.relationship(3, 4), Relationship::kCustomer);
  EXPECT_EQ(parsed.relationship(5, 6), Relationship::kProvider);
}

TEST(CaidaFormat, ParsesRealWorldShapedInput) {
  const char* text =
      "# source: example\n"
      "\n"
      "174|2914|0\n"
      "3356|9002|-1\n"
      "   701|702|0   \n";
  const InferredTopology topo = from_caida_format(text);
  EXPECT_EQ(topo.relationship(174, 2914), Relationship::kPeer);
  EXPECT_EQ(topo.relationship(9002, 3356), Relationship::kProvider);
  EXPECT_EQ(topo.relationship(701, 702), Relationship::kPeer);
}

TEST(CaidaFormat, RejectsMalformedInput) {
  EXPECT_THROW(from_caida_format("1|2"), CheckError);
  EXPECT_THROW(from_caida_format("1|2|7"), CheckError);
  EXPECT_THROW(from_caida_format("x|2|0"), CheckError);
  EXPECT_THROW(from_caida_format("1|1|0"), CheckError);
}

TEST(CaidaFormat, RoundTripsInferredStudyTopology) {
  const auto net = generate_internet(test::small_generator_config());
  const auto ds = run_passive_study(*net, test::small_passive_config());
  const InferredTopology parsed =
      from_caida_format(to_caida_format(ds.inferred));
  EXPECT_EQ(parsed.num_links(), ds.inferred.num_links());
  for (const auto& [pair, rel] : ds.inferred.links())
    EXPECT_EQ(parsed.relationship(pair.first, pair.second),
              ds.inferred.relationship(pair.first, pair.second));
}

TEST(TopologySerialize, RoundTripsTinyTopology) {
  test::TinyTopo t;
  const Asn a = t.add(3);
  const Asn b = a + 1, c = a + 2;
  t.topo.as_node_mutable(a).prefers_domestic = true;
  t.topo.as_node_mutable(b).flat_local_pref = true;
  t.topo.as_node_mutable(c).has_looking_glass = true;
  const LinkId l1 = t.link(a, b, Relationship::kCustomer, 3, 4);
  t.topo.link_mutable(l1).lp_delta_a = -150;
  t.topo.link_mutable(l1).partial_transit = true;
  t.topo.link_mutable(l1).died_epoch = 3;
  t.link(b, c, Relationship::kSibling);
  auto& op = t.topo.as_node_mutable(a).prefixes.front();
  op.selective = true;
  op.announce_only_on = {l1};
  op.prepend_on = {{l1, 2}};

  const std::string text = serialize_topology(t.topo);
  const Topology parsed = deserialize_topology(text);

  ASSERT_EQ(parsed.num_ases(), t.topo.num_ases());
  ASSERT_EQ(parsed.num_links(), t.topo.num_links());
  EXPECT_TRUE(parsed.as_node(a).prefers_domestic);
  EXPECT_TRUE(parsed.as_node(b).flat_local_pref);
  EXPECT_TRUE(parsed.as_node(c).has_looking_glass);
  const Link& pl = parsed.link(l1);
  EXPECT_EQ(pl.rel_of_b_from_a, Relationship::kCustomer);
  EXPECT_EQ(pl.igp_cost_a, 3);
  EXPECT_EQ(pl.igp_cost_b, 4);
  EXPECT_EQ(pl.lp_delta_a, -150);
  EXPECT_TRUE(pl.partial_transit);
  EXPECT_EQ(pl.died_epoch, 3);
  const auto& pop = parsed.as_node(a).prefixes.front();
  EXPECT_TRUE(pop.selective);
  EXPECT_EQ(pop.announce_only_on, std::vector<LinkId>{l1});
  ASSERT_EQ(pop.prepend_on.size(), 1u);
  EXPECT_EQ(pop.prepend_on[0], (std::pair<LinkId, int>{l1, 2}));
  // Idempotence: serialize(parse(text)) == text.
  EXPECT_EQ(serialize_topology(parsed), text);
}

TEST(TopologySerialize, RoundTripsGeneratedTopologyExactly) {
  const auto net = generate_internet(test::small_generator_config());
  const std::string text = serialize_topology(net->topology);
  const Topology parsed = deserialize_topology(text);
  EXPECT_EQ(parsed.num_ases(), net->topology.num_ases());
  EXPECT_EQ(parsed.num_links(), net->topology.num_links());
  EXPECT_EQ(serialize_topology(parsed), text);
}

TEST(TopologySerialize, ParsedTopologyRoutesIdentically) {
  const auto net = generate_internet(test::small_generator_config());
  const Topology parsed = deserialize_topology(
      serialize_topology(net->topology));
  GroundTruthPolicy p1{&net->topology};
  GroundTruthPolicy p2{&parsed};
  BgpEngine e1{&net->topology, &p1, net->measurement_epoch};
  BgpEngine e2{&parsed, &p2, net->measurement_epoch};
  const Asn origin = net->content_asns[0];
  const Ipv4Prefix prefix = net->topology.as_node(origin).prefixes[0].prefix;
  e1.announce(prefix, origin);
  e2.announce(prefix, origin);
  e1.run();
  e2.run();
  for (Asn asn = 1; asn <= net->topology.num_ases(); ++asn) {
    const auto* s1 = e1.best(asn, prefix);
    const auto* s2 = e2.best(asn, prefix);
    ASSERT_EQ(s1 == nullptr, s2 == nullptr) << asn;
    if (s1 != nullptr)
      EXPECT_EQ(e1.paths().materialize(s1->path_id),
                e2.paths().materialize(s2->path_id))
          << asn;
  }
}

TEST(TopologySerialize, RejectsGarbage) {
  EXPECT_THROW(deserialize_topology("not a topology"), CheckError);
  EXPECT_THROW(deserialize_topology("irp-topology v1\nbogus record"),
               CheckError);
  EXPECT_THROW(deserialize_topology("irp-topology v1\nas 5 stub 1 0 0 0 0 0"),
               CheckError);  // ASN out of dense order.
}

TEST(FileIo, RoundTripsAndThrowsOnMissing) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "irp_file_test.txt").string();
  write_file(path, "hello\nworld");
  EXPECT_EQ(read_file(path), "hello\nworld");
  std::remove(path.c_str());
  EXPECT_THROW(read_file(path), CheckError);
  EXPECT_THROW(read_file("/nonexistent-dir/x"), CheckError);
  EXPECT_THROW(write_file("/nonexistent-dir/x", "y"), CheckError);
}

/// The CheckError message of `fn()`, or "" when it does not throw one.
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(FileIo, ReadFileNeedsARegularFileAndReadsItExactly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "irp_file_test_dir";
  std::filesystem::create_directories(dir);
  // A directory opens on Linux but is no file: a typed error, not an empty
  // read or an allocation failure.
  EXPECT_NE(check_error_of([&] { (void)read_file(dir.string()); })
                .find("not a regular file"),
            std::string::npos);
  EXPECT_NE(check_error_of([&] { (void)read_file((dir / "missing").string()); })
                .find("cannot open file for reading"),
            std::string::npos);

  // Every byte value, NULs included, comes back exactly.
  std::string binary;
  for (int round = 0; round < 300; ++round)
    for (int c = 0; c < 256; ++c) binary.push_back(static_cast<char>(c));
  binary += std::string(5, '\0');
  const std::string path = (dir / "binary.bin").string();
  write_file(path, binary);
  EXPECT_TRUE(read_file(path) == binary);

  const std::string empty = (dir / "empty.bin").string();
  write_file(empty, "");
  EXPECT_EQ(read_file(empty), "");
  std::filesystem::remove_all(dir);
}

TEST(ReportCsv, ContainsHeadersAndRows) {
  StudyConfig config;
  config.generator = test::small_generator_config();
  config.passive = test::small_passive_config();
  config.active.max_targets = 20;
  config.active.traceroute_vantages = 12;
  const StudyResults r = run_full_study(config);

  EXPECT_NE(table1_csv(r.table1).find("as_type,probes"), std::string::npos);
  EXPECT_NE(figure1_csv(r.figure1).find("Simple"), std::string::npos);
  EXPECT_NE(figure2_csv(r.skew).find("rank,cumulative"), std::string::npos);
  EXPECT_NE(figure3_csv(r.figure3).find("intercontinental"),
            std::string::npos);
  EXPECT_NE(table2_csv(r.table2).find("feeds,"), std::string::npos);
  EXPECT_NE(table3_csv(r.table3).find("overall"), std::string::npos);
  EXPECT_NE(table4_csv(r.table4).find("paths_with_cable"), std::string::npos);
  EXPECT_NE(alternate_csv(r.alternate).find("targets,"), std::string::npos);
  EXPECT_NE(psp_csv(r.psp).find("precision,"), std::string::npos);

  // figure1 CSV has one row per scenario plus a header.
  const auto lines = split(figure1_csv(r.figure1), '\n');
  EXPECT_EQ(lines.size(), 1u + 7u + 1u);  // Header + 7 scenarios + trailing.

  const auto dir =
      (std::filesystem::temp_directory_path() / "irp_reports_test").string();
  std::filesystem::create_directories(dir);
  EXPECT_EQ(write_all_reports(r, dir), 9);
  EXPECT_TRUE(std::filesystem::exists(dir + "/figure2.csv"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace irp
// -- appended: renumbering tests ---------------------------------------------
#include "inference/renumber.hpp"

namespace irp {
namespace {

TEST(Renumber, MapsSparsAsnsDenselyAndBack) {
  InferredTopology sparse;
  sparse.set(174, 2906, InferredRel::kAProviderOfB);   // 174 provides 2906.
  sparse.set(3356, 2906, InferredRel::kAProviderOfB);
  sparse.set(174, 3356, InferredRel::kPeer);
  const auto ids = AsnRenumberer::from(sparse);
  EXPECT_EQ(ids.count(), 3u);
  EXPECT_EQ(ids.to_dense(174), 1u);
  EXPECT_EQ(ids.to_dense(2906), 2u);
  EXPECT_EQ(ids.to_dense(3356), 3u);
  EXPECT_EQ(ids.to_original(2), 2906u);
  EXPECT_TRUE(ids.knows(174));
  EXPECT_FALSE(ids.knows(7018));
  EXPECT_THROW(ids.to_dense(7018), CheckError);
  EXPECT_THROW(ids.to_original(0), CheckError);
  EXPECT_THROW(ids.to_original(4), CheckError);

  const InferredTopology dense = ids.renumber(sparse);
  EXPECT_EQ(dense.num_links(), 3u);
  // 174 provides 2906  ->  dense 1 provides dense 2.
  EXPECT_EQ(dense.relationship(2, 1), Relationship::kProvider);
  EXPECT_EQ(dense.relationship(1, 3), Relationship::kPeer);
}

TEST(Renumber, DenseTopologyDrivesGrModel) {
  // End-to-end: parse CAIDA text, renumber, run the GR model.
  const InferredTopology caida = from_caida_format(
      "3356|2906|-1\n174|2906|-1\n174|3356|0\n7018|174|-1\n");
  const auto ids = AsnRenumberer::from(caida);
  const InferredTopology dense = ids.renumber(caida);
  GrModel model{&dense, ids.count()};
  const auto ps = model.compute(ids.to_dense(2906));
  // 7018 -> 174 -> 2906 is a pure customer chain (7018 provides 174).
  EXPECT_EQ(ps.length_via(ids.to_dense(7018), Relationship::kCustomer), 2u);
  // 3356 reaches 2906 directly via its customer.
  EXPECT_EQ(ps.best_class(ids.to_dense(3356)), Relationship::kCustomer);
}

}  // namespace
}  // namespace irp
