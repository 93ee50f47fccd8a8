// Example: the multi-seed sweep behind the paper-claims bands.
//
// Runs the default full study (active experiments included) for a fixed
// list of generator seeds and prints, for every row of the paper-claims
// table (core/paper_claims.cpp), the paper's value and the min and max the
// reproduction reached. Each row's band in paper_claims.cpp is that min/max
// widened by one stated margin, so rerunning this after a model change says
// which bands moved. The paper's claims are distributional, so agreement
// across seeds, not one lucky draw, is what makes the reproduction credible.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/paper_claims.hpp"
#include "util/table.hpp"

using namespace irp;

int main() {
  const std::vector<std::uint64_t> seeds{42, 1001, 31337, 7, 11, 2026, 4242,
                                         90210};
  const auto claims = paper_claims();
  std::vector<double> lo(claims.size(), 1e300), hi(claims.size(), -1e300);

  std::printf("Running the default study for %zu seeds:", seeds.size());
  for (std::uint64_t seed : seeds) {
    std::printf(" %llu", static_cast<unsigned long long>(seed));
    std::fflush(stdout);
    StudyConfig config;
    config.generator.seed = seed;
    config.passive.parallel.threads = 0;
    const StudyResults r = run_full_study(config);
    for (std::size_t i = 0; i < claims.size(); ++i) {
      const double v = claims[i].value(r);
      lo[i] = std::min(lo[i], v);
      hi[i] = std::max(hi[i], v);
    }
  }
  std::printf("\n\n");

  TextTable t{{"Claim", "Paper", "Min", "Max", "Sweep (min, max)"}};
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const PaperClaim& c = claims[i];
    char sweep[64];
    std::snprintf(sweep, sizeof sweep, "%.6g, %.6g", lo[i], hi[i]);
    t.add_row({c.id, c.paper_text(),
               format_claim_value(c.unit, lo[i]),
               format_claim_value(c.unit, hi[i]), sweep});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
