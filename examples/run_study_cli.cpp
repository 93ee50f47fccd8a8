// Command-line study driver: run the full reproduction with custom
// parameters and export every artifact (text tables, CSV data series,
// topology snapshots, CAIDA-format relationship dumps), or drive the
// RouteOracle serving layer over a frozen study.
//
//   run_study_cli [--seed N] [--scale N] [--threads N] [--out DIR]
//                 [--no-active] [--save-topology FILE] [--caida-out FILE]
//       Prints the paper's tables, then the paper-claims table
//       (core/paper_claims.hpp): every number the paper reports next to
//       the reproduction and its band. --no-active skips the claims table,
//       since a third of its rows come from the active experiments.
//
//   run_study_cli snapshot --out FILE [--seed N] [--scale N] [--threads N]
//       Run the passive study and freeze it into a binary oracle snapshot.
//
//   run_study_cli query --snapshot [NAME=]FILE [--study NAME]
//                       [--queries FILE]
//   run_study_cli query --connect HOST:PORT [--study NAME] [--queries FILE]
//       Answer queries from --queries or stdin, one per line:
//         classify DECIDER NEXT_HOP DEST PREFIX REMAINING
//                  [hybrid] [siblings] [psp1|psp2]   (flags on the same line)
//         routes ASN PREFIX
//         psp ORIGIN NEIGHBOR PREFIX
//         rel A B
//       With --snapshot (repeatable: NAME=FILE loads several studies), a
//       local catalog answers synchronously (deterministic,
//       single-threaded); --study picks which study answers (default: the
//       first loaded). With --connect, each query goes over OracleWire
//       (docs/PROTOCOL.md) to a `serve --listen` process, --study riding in
//       the version-2 study flag; the printed answers are byte-identical
//       either way. A query that cannot be answered (say, a classify whose
//       DEST lies outside the study) prints `error: MESSAGE` in its slot;
//       the rest are still answered, and the run exits 1 (over --connect,
//       MESSAGE carries the server's error prefix). `serve --queries` does
//       the same.
//
//   run_study_cli serve --snapshot [NAME=]FILE [--workers N] [--queue N]
//                       [--cache-budget N] [--study NAME]
//                       [--queries FILE | --listen PORT [--bind ADDR]]
//       --snapshot is repeatable: `NAME=FILE` hosts several studies behind
//       one endpoint sharing a path arena and one classify-cache budget
//       (--cache-budget entries total, rebalanced by per-study hit rates).
//       Without --listen: the same query stream, submitted through the
//       concurrent OracleService (bounded queue + worker pool) against
//       --study; prints each response in submission order, then the service
//       stats. Overloaded submissions are reported as "rejected (queue
//       full)". With --listen: serves OracleWire over TCP until
//       SIGINT/SIGTERM, then drains gracefully and prints wire + service
//       stats. --listen 0 picks an ephemeral port (printed on startup).
//       --bind defaults to 127.0.0.1; use 0.0.0.0 to accept remote hosts.
//
// --scale multiplies the edge population (stubs and access ISPs); the
// default (1) matches the paper-calibrated configuration. --threads sizes
// the study's one thread pool (0 = hardware count, default 1 = serial);
// results are byte-identical at any thread count.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/paper_claims.hpp"
#include "core/report_io.hpp"
#include "core/study.hpp"
#include "inference/serialize.hpp"
#include "serve/oracle_client.hpp"
#include "serve/oracle_server.hpp"
#include "serve/oracle_service.hpp"
#include "serve/study_catalog.hpp"
#include "topo/serialize.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

using namespace irp;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--scale N] [--threads N] [--out DIR]\n"
      "          [--no-active] [--save-topology FILE] [--caida-out FILE]\n"
      "       %s snapshot --out FILE [--seed N] [--scale N] [--threads N]\n"
      "       %s query {--snapshot [NAME=]FILE ... | --connect HOST:PORT}\n"
      "          [--study NAME] [--queries FILE]\n"
      "       %s serve --snapshot [NAME=]FILE ... [--workers N] [--queue N]\n"
      "          [--cache-budget N] [--study NAME]\n"
      "          [--queries FILE | --listen PORT [--bind ADDR]]\n",
      argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Checked integer flag parse: the whole value must be a decimal in
/// [min, max] — "abc", "", "-1" and "12x" are usage errors, never a silent
/// 0 the way atoi would have it.
std::uint64_t u64_flag(const char* argv0, const char* flag, const char* text,
                       std::uint64_t min, std::uint64_t max) {
  const std::optional<std::uint64_t> value = parse_u64_in(text, min, max);
  if (!value) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text);
    usage(argv0);
  }
  return *value;
}

/// One --snapshot value: "NAME=PATH" names the study, a bare path loads it
/// as "default". Loads every spec into `catalog` (first spec = default
/// study) and prints a per-study line.
struct SnapshotSpec {
  std::string name;
  std::string path;
};

SnapshotSpec parse_snapshot_spec(const char* argv0, const std::string& text) {
  SnapshotSpec spec;
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) {
    spec.name = "default";
    spec.path = text;
  } else {
    spec.name = text.substr(0, eq);
    spec.path = text.substr(eq + 1);
  }
  if (spec.name.empty() || spec.path.empty()) {
    std::fprintf(stderr, "error: --snapshot expects [NAME=]FILE, got '%s'\n",
                 text.c_str());
    usage(argv0);
  }
  return spec;
}

void load_catalog(StudyCatalog& catalog,
                  const std::vector<SnapshotSpec>& specs) {
  // Diagnostics go to stderr: query-mode stdout must stay byte-identical
  // between the local and --connect paths.
  for (const SnapshotSpec& spec : specs) {
    const StudyCatalog::Study& study =
        catalog.add_study_file(spec.name, spec.path);
    std::fprintf(stderr,
                 "# loaded study %s (%zu prefixes, %zu paths, %zu bytes)\n",
                 study.id.c_str(), study.snapshot.routes.size(),
                 study.own_paths, study.image_bytes);
  }
  if (catalog.size() > 1) {
    const StudyCatalog::ArenaStats arena = catalog.arena_stats();
    std::fprintf(stderr,
                 "# shared path arena: %zu nodes for %zu study paths "
                 "(%.1f%% shared)\n",
                 arena.arena_paths, arena.sum_study_paths,
                 arena.sharing() * 100.0);
  }
}

/// Parses one query line into a request; nullopt for blank/comment lines.
/// Malformed lines throw CheckError with a line-scoped message.
std::optional<OracleRequest> parse_query(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb) || verb[0] == '#') return std::nullopt;

  auto asn = [&]() -> Asn {
    unsigned long long v = 0;
    IRP_CHECK(static_cast<bool>(in >> v), "query: missing ASN in: " + line);
    return static_cast<Asn>(v);
  };
  auto prefix = [&]() -> Ipv4Prefix {
    std::string text;
    IRP_CHECK(static_cast<bool>(in >> text),
              "query: missing prefix in: " + line);
    const auto p = Ipv4Prefix::parse(text);
    IRP_CHECK(p.has_value(), "query: bad prefix '" + text + "' in: " + line);
    return *p;
  };

  if (verb == "classify") {
    ClassifyRequest req;
    req.decision.decider = asn();
    req.decision.next_hop = asn();
    req.decision.dest_asn = asn();
    req.decision.dst_prefix = prefix();
    unsigned long long remaining = 0;
    IRP_CHECK(static_cast<bool>(in >> remaining),
              "query: missing remaining length in: " + line);
    req.decision.remaining_len = static_cast<std::size_t>(remaining);
    std::string flag;
    while (in >> flag) {
      if (flag == "hybrid")
        req.scenario.use_hybrid = true;
      else if (flag == "siblings")
        req.scenario.use_siblings = true;
      else if (flag == "psp1")
        req.scenario.psp = PspMode::kCriteria1;
      else if (flag == "psp2")
        req.scenario.psp = PspMode::kCriteria2;
      else
        IRP_CHECK(false, "query: unknown scenario flag '" + flag + "'");
    }
    return OracleRequest{req};
  }
  if (verb == "routes") {
    AlternateRoutesRequest req;
    req.asn = asn();
    req.prefix = prefix();
    return OracleRequest{req};
  }
  if (verb == "psp") {
    PspVisibilityRequest req;
    req.origin = asn();
    req.neighbor = asn();
    req.prefix = prefix();
    return OracleRequest{req};
  }
  if (verb == "rel") {
    RelationshipLookupRequest req;
    req.a = asn();
    req.b = asn();
    return OracleRequest{req};
  }
  IRP_CHECK(false, "query: unknown verb '" + verb + "'");
}

std::vector<OracleRequest> read_queries(const std::string& queries_file) {
  std::ifstream file;
  if (!queries_file.empty()) {
    file.open(queries_file);
    IRP_CHECK(file.is_open(), "cannot open queries file " + queries_file);
  }
  std::istream& in = queries_file.empty() ? std::cin : file;
  std::vector<OracleRequest> out;
  std::string line;
  while (std::getline(in, line))
    if (auto req = parse_query(line)) out.push_back(std::move(*req));
  return out;
}

/// Prints one query's answer, or `error: <message>` in its slot when the
/// query itself failed with an `Error`; returns whether it was answered.
template <typename Error, typename Answer>
bool print_answer(Answer&& answer) {
  try {
    std::printf("%s\n", to_text(answer()).c_str());
    return true;
  } catch (const Error& e) {
    std::printf("error: %s\n", e.what());
    return false;
  }
}

/// The study flags of the full run and of `snapshot`, parsed from
/// argv[first..].
struct StudyFlags {
  StudyConfig config;
  int scale = 1;
  std::string out;  ///< --out: the report directory, or the snapshot file.
};

/// Parses --seed, --scale, --threads and --out, and hands any other flag to
/// `extra(arg, next)`, which returns false for a flag it does not know (a
/// usage error); `next()` consumes the flag's value.
template <typename Extra>
StudyFlags parse_study_flags(int argc, char** argv, int first, Extra&& extra) {
  StudyFlags flags;
  StudyConfig& config = flags.config;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--seed")
      config.generator.seed = u64_flag(argv[0], "--seed", next(), 0, UINT64_MAX);
    else if (arg == "--scale")
      flags.scale =
          static_cast<int>(u64_flag(argv[0], "--scale", next(), 1, 1024));
    else if (arg == "--threads")
      config.passive.parallel.threads =
          static_cast<int>(u64_flag(argv[0], "--threads", next(), 0, 4096));
    else if (arg == "--out")
      flags.out = next();
    else if (!extra(arg, next))
      usage(argv[0]);
  }
  config.generator.stubs_per_country *= flags.scale;
  config.generator.small_isps_per_country *= flags.scale;
  return flags;
}

int cmd_snapshot(int argc, char** argv) {
  StudyFlags flags = parse_study_flags(
      argc, argv, 2, [](const std::string&, auto&) { return false; });
  if (flags.out.empty()) usage(argv[0]);
  flags.config.run_active = false;  // The oracle serves the passive study.

  std::printf("Running passive study (seed=%llu)...\n",
              static_cast<unsigned long long>(flags.config.generator.seed));
  const StudyResults r = run_full_study(flags.config);
  const OracleSnapshot snap = snapshot_study(r.passive);
  snap.save(flags.out);
  std::printf(
      "wrote oracle snapshot to %s (%zu relationships, %zu prefixes, "
      "%zu route entries, %zu interned paths)\n",
      flags.out.c_str(), snap.relationships.size(), snap.routes.size(),
      snap.num_route_entries(), static_cast<std::size_t>(snap.paths.num_paths()));
  return 0;
}

int cmd_query(int argc, char** argv) {
  std::vector<SnapshotSpec> snapshots;
  std::string queries_file, connect, study;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--snapshot")
      snapshots.push_back(parse_snapshot_spec(argv[0], next()));
    else if (arg == "--connect")
      connect = next();
    else if (arg == "--study")
      study = next();
    else if (arg == "--queries")
      queries_file = next();
    else
      usage(argv[0]);
  }
  if (snapshots.empty() == connect.empty()) usage(argv[0]);

  if (!connect.empty()) {
    // Remote mode: the same answers, fetched over OracleWire. The output
    // below must stay byte-identical to the local branch —
    // test_oracle_server pins that equivalence at the library level.
    const std::size_t colon = connect.rfind(':');
    IRP_CHECK(colon != std::string::npos && colon > 0,
              "--connect expects HOST:PORT, got " + connect);
    OracleClient::Config cc;
    cc.host = connect.substr(0, colon);
    cc.port = static_cast<std::uint16_t>(u64_flag(
        argv[0], "--connect port", connect.c_str() + colon + 1, 1, 65535));
    cc.study = study;
    OracleClient client(cc);
    // A transport failure still aborts the run; a query the server could
    // not answer only fails its own line.
    bool all_answered = true;
    for (const OracleRequest& request : read_queries(queries_file))
      all_answered &= print_answer<OracleServerError>(
          [&] { return client.call(request); });
    return all_answered ? 0 : 1;
  }

  StudyCatalog catalog;
  load_catalog(catalog, snapshots);
  OracleService service(&catalog, OracleService::Config{0, 1});

  bool all_answered = true;
  for (const OracleRequest& request : read_queries(queries_file))
    all_answered &= print_answer<CheckError>(
        [&] { return service.answer(request, study); });
  return all_answered ? 0 : 1;
}

/// Prints `#   LABEL: served=S rejected=R p50=Xus p99=Yus` without ending
/// the line, so a caller can append keys of its own.
void print_requests(const std::string& label, const RequestStats& s) {
  std::printf("#   %s: served=%llu rejected=%llu p50=%.1fus p99=%.1fus",
              label.c_str(), static_cast<unsigned long long>(s.served),
              static_cast<unsigned long long>(s.rejected), s.p50_us, s.p99_us);
}

/// One line per query type that saw traffic, labelled `prefix` + its name.
void print_per_type(const std::string& prefix,
                    const std::array<RequestStats, kNumQueryTypes>& per_type) {
  for (int t = 0; t < kNumQueryTypes; ++t) {
    if (per_type[t].served == 0 && per_type[t].rejected == 0) continue;
    print_requests(prefix + std::string(query_type_name(QueryType(t))),
                   per_type[t]);
    std::printf("\n");
  }
}

/// The service's counters, with the cache numbers read from the catalog.
void print_service_stats(const OracleStatsView& stats,
                         const StudyCatalog& catalog) {
  const StudyCatalog::CacheBudgetView budget = catalog.cache_budget();
  ClassifyCache::Stats all;
  for (const auto& per : budget.per_study) {
    all.hits += per.stats.hits;
    all.misses += per.stats.misses;
  }
  std::printf("# served=%llu rejected=%llu unknown_study=%llu peak_queue=%zu "
              "cache_hit_rate=%.3f\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.unknown_study),
              stats.peak_queue_depth, all.hit_rate());
  print_per_type("", stats.per_type);
  if (stats.per_study.size() <= 1) return;
  for (std::size_t i = 0; i < stats.per_study.size(); ++i) {
    const ClassifyCache::Stats& cache = budget.per_study[i].stats;
    print_requests("study " + stats.per_study[i].name,
                   stats.per_study[i].requests);
    std::printf(" cache_quota=%zu cache_hit_rate=%.3f\n", cache.capacity,
                cache.hit_rate());
  }
}

/// `serve --listen`: OracleWire over TCP until SIGINT/SIGTERM, then a
/// graceful drain (accepted requests answered, new connections refused).
int serve_network(const StudyCatalog& catalog,
                  OracleService::Config service_cfg,
                  OracleServer::Config server_cfg) {
  // Block the shutdown signals before any thread exists so the worker and
  // poll threads inherit the mask and sigwait() below is race-free.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  OracleService service(&catalog, service_cfg);
  OracleServer server(&service, server_cfg);
  server.start();
  std::printf("oracle serving %zu stud%s on %s:%u (workers=%d queue=%zu); "
              "SIGINT/SIGTERM drains and exits\n",
              catalog.size(), catalog.size() == 1 ? "y" : "ies",
              server_cfg.bind_address.c_str(), server.port(),
              service_cfg.worker_threads, service_cfg.queue_capacity);
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("signal %d: draining...\n", sig);
  server.shutdown();   // Answers everything admitted, refuses new work.
  service.shutdown();  // Then the worker pool drains and joins.

  const WireServerStats wire = server.stats();
  std::printf(
      "# wire: conns=%llu refused=%llu frames_in=%llu frames_out=%llu "
      "admitted=%llu shed=%llu unknown_study=%llu decode_errors=%llu "
      "bytes_in=%llu bytes_out=%llu\n",
      static_cast<unsigned long long>(wire.connections_accepted),
      static_cast<unsigned long long>(wire.connections_refused),
      static_cast<unsigned long long>(wire.frames_in),
      static_cast<unsigned long long>(wire.frames_out),
      static_cast<unsigned long long>(wire.requests_admitted),
      static_cast<unsigned long long>(wire.requests_shed),
      static_cast<unsigned long long>(wire.requests_unknown_study),
      static_cast<unsigned long long>(wire.decode_errors),
      static_cast<unsigned long long>(wire.bytes_in),
      static_cast<unsigned long long>(wire.bytes_out));
  print_per_type("wire ", wire.per_type);
  print_service_stats(service.stats(), catalog);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  std::vector<SnapshotSpec> snapshots;
  std::string queries_file, study;
  OracleService::Config service_config;
  service_config.worker_threads = 2;
  OracleServer::Config server_config;
  StudyCatalogConfig catalog_config;
  bool listen = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--snapshot")
      snapshots.push_back(parse_snapshot_spec(argv[0], next()));
    else if (arg == "--queries")
      queries_file = next();
    else if (arg == "--study")
      study = next();
    else if (arg == "--workers")
      service_config.worker_threads =
          static_cast<int>(u64_flag(argv[0], "--workers", next(), 1, 4096));
    else if (arg == "--queue")
      service_config.queue_capacity = static_cast<std::size_t>(
          u64_flag(argv[0], "--queue", next(), 1, 100'000'000));
    else if (arg == "--cache-budget")
      catalog_config.total_cache_capacity = static_cast<std::size_t>(
          u64_flag(argv[0], "--cache-budget", next(), 0, 100'000'000));
    else if (arg == "--listen") {
      listen = true;
      server_config.port = static_cast<std::uint16_t>(
          u64_flag(argv[0], "--listen", next(), 0, 65535));
    } else if (arg == "--bind")
      server_config.bind_address = next();
    else
      usage(argv[0]);
  }
  if (snapshots.empty()) usage(argv[0]);
  if (listen && !queries_file.empty()) usage(argv[0]);

  StudyCatalog catalog(catalog_config);
  load_catalog(catalog, snapshots);
  // Re-weight each study's classify-cache quota every few thousand answers
  // so a hot study earns capacity from cold ones (docs/OPERATIONS.md).
  if (catalog.size() > 1) service_config.cache_rebalance_every = 4096;
  if (listen) return serve_network(catalog, service_config, server_config);
  OracleService service(&catalog, service_config);

  const std::vector<OracleRequest> queries = read_queries(queries_file);
  std::vector<OracleService::Submitted> submitted;
  submitted.reserve(queries.size());
  for (const OracleRequest& request : queries)
    submitted.push_back(service.submit(request, study));
  // Shut down (answer everything accepted, join the workers) before
  // reading the answers: a failed query's exception object is shared with
  // the worker's promise, and it must be released on this thread, after
  // the join, not by a worker while its message is being printed.
  service.shutdown();
  bool all_answered = true;
  for (OracleService::Submitted& s : submitted) {
    if (s.reject == OracleService::Reject::kUnknownStudy)
      std::printf("rejected (unknown study)\n");
    else if (!s.accepted)
      std::printf("rejected (queue full)\n");
    else
      all_answered &=
          print_answer<CheckError>([&] { return s.response.get(); });
  }
  print_service_stats(service.stats(), catalog);
  return all_answered ? 0 : 1;
}

int cmd_legacy(int argc, char** argv) {
  std::string topology_file;
  std::string caida_file;
  bool run_active = true;
  StudyFlags flags = parse_study_flags(
      argc, argv, 1, [&](const std::string& arg, auto& next) {
        if (arg == "--no-active")
          run_active = false;
        else if (arg == "--save-topology")
          topology_file = next();
        else if (arg == "--caida-out")
          caida_file = next();
        else
          return false;
        return true;
      });
  StudyConfig& config = flags.config;
  config.run_active = run_active;

  std::printf("Running study (seed=%llu, scale=%d, active=%s)...\n",
              static_cast<unsigned long long>(config.generator.seed), flags.scale,
              config.run_active ? "yes" : "no");
  const StudyResults r = run_full_study(config);

  std::printf("\n%s\n", render_table1(r.table1).render().c_str());
  std::printf("%s\n", render_figure1(r.figure1).render().c_str());
  std::printf("%s\n", render_figure3(r.figure3).render().c_str());
  std::printf("%s\n", render_table3(r.table3, r.net->world).render().c_str());
  std::printf("%s\n", render_table4(r.table4).render().c_str());
  if (config.run_active)
    std::printf("%s\n", render_paper_claims(r).c_str());

  if (!flags.out.empty()) {
    const int files = write_all_reports(r, flags.out);
    std::printf("wrote %d CSV report files to %s/\n", files, flags.out.c_str());
  }
  if (!topology_file.empty()) {
    write_file(topology_file, serialize_topology(r.net->topology));
    std::printf("wrote ground-truth topology to %s\n", topology_file.c_str());
  }
  if (!caida_file.empty()) {
    write_file(caida_file, to_caida_format(r.passive.inferred));
    std::printf("wrote inferred relationships (CAIDA format) to %s\n",
                caida_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0)
      return cmd_snapshot(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "query") == 0)
      return cmd_query(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
      return cmd_serve(argc, argv);
    return cmd_legacy(argc, argv);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
