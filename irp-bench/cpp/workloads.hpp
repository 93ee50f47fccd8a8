// The three irp-bench workloads and the study helpers they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/study.hpp"

namespace irpbench {

using irp::RouteDecision;
using irp::StudyConfig;
using irp::StudyResults;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrunken Internet and campaign, for the smoke test only.
  bool tiny = false;
  /// Smoke-test fault injection: corrupt the study reference digest, or one
  /// precomputed expected answer, so the correctness gates must fire.
  bool inject_bad_reference = false;
  bool inject_bad_answer = false;
  std::string run_study_cli;  ///< Path of the server binary.
  std::string work_dir;       ///< Snapshots, server logs, span dumps.
};

/// Topology seeds are pinned so every benchmark seed costs the same work:
/// the default Internet, plus a second one for the two-study catalog. The
/// benchmark seed drives the measurement campaign (probe sampling, hostname
/// rotation, hybrid coverage, active targets) and the request streams.
inline constexpr std::uint64_t kMainTopologySeed = 42;
inline constexpr std::uint64_t kAltTopologySeed = 43;

StudyConfig study_config(std::uint64_t campaign_seed,
                         std::uint64_t topology_seed, int threads, bool tiny,
                         bool run_active);

/// fnv1a64 over every CSV report, the extended-model breakdown and the
/// oracle snapshot image of the study.
std::uint64_t study_digest(const StudyResults& results,
                           const std::string& snapshot_bytes);

/// The oracle image of a finished study (snapshot_study + to_bytes).
std::string study_image(const StudyResults& results);

/// run_full_study replayed phase by phase through the same public calls,
/// with a span around each layer and its counters added to `layers`.
StudyResults traced_study(const StudyConfig& config, Tracer& tracer,
                          Result& layers);

/// One study as the serving side sees it: its oracle image, plus the
/// decisions the request streams draw classify queries from.
struct ServedStudy {
  std::string name;
  std::string image;
  std::vector<RouteDecision> decisions;
};

/// Request mixes. kClosed: 70% classify over a ~1k hot set, 10% each of
/// rel/psp/routes, one study. kOpen: 60% classify over every decision x
/// five scenarios, 25% routes, 7.5% each of psp/rel, 80/20 over two studies.
enum class Mix { kClosed, kOpen };

struct ServeCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< Refused, shed, errored or wrong.
  std::uint64_t mismatched = 0;  ///< Answered, but not the local answer.
};

/// The serving layers of a traced run, peeled one at a time over the same
/// request stream: OracleService::answer, submit/future, the wire codec, an
/// in-process OracleServer round trip; then the run_study_cli server's
/// drain counters. `overhead` adds trace.overhead_ratio from a remote phase
/// run untraced and then traced.
void trace_serve_layers(const RunOptions& options,
                        const std::vector<ServedStudy>& studies, Mix mix,
                        bool overhead, Tracer& tracer, Result& layers,
                        ServeCounts& counts);

/// Writes the span dump and self-time table, prints the result; returns the
/// exit code.
int emit_traced(const RunOptions& options, const Tracer& tracer,
                const Result& layers);

/// Each returns the process exit code; the result line is printed inside.
int run_study_workload(const RunOptions& options);
int run_serve_workload(const RunOptions& options);

}  // namespace irpbench
