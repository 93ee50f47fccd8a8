// irp_bench: runs one irp-bench workload and prints its result line.
//
//   irp_bench --workload {study|serve_closed|serve_open} --seed N
//             --seconds S --trace {0|1} --run-study-cli PATH --work-dir DIR
//             [--tiny] [--inject-bad-reference] [--inject-bad-answer]
//
// The last line of stdout is the result object; exit 0 only when every
// correctness gate passed. irp-bench/run.py builds this binary and calls it.
#include <cstdio>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

using namespace irpbench;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: irp_bench --workload {study|serve_closed|serve_open} "
               "--seed N --seconds S --trace {0|1} --run-study-cli PATH "
               "--work-dir DIR [--tiny] [--inject-bad-reference] "
               "[--inject-bad-answer]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      const auto v = irp::parse_u64_in(next(), 0, ~0ull);
      if (!v) usage();
      options.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = irp::parse_u64_in(next(), 1, 600);
      if (!v) usage();
      options.seconds = double(*v);
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage();
      options.trace = v == "1";
    } else if (arg == "--run-study-cli") {
      options.run_study_cli = next();
    } else if (arg == "--work-dir") {
      options.work_dir = next();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-bad-reference") {
      options.inject_bad_reference = true;
    } else if (arg == "--inject-bad-answer") {
      options.inject_bad_answer = true;
    } else {
      usage();
    }
  }
  if (options.run_study_cli.empty() || options.work_dir.empty()) usage();
  try {
    make_dirs(options.work_dir);
    if (options.workload == "study") return run_study_workload(options);
    if (options.workload == "serve_closed" || options.workload == "serve_open")
      return run_serve_workload(options);
    usage();
  } catch (const irp::CheckError& e) {
    std::fprintf(stderr, "irp_bench: %s\n", e.what());
    return 1;
  }
}
