// Paper-fidelity gate: the default study, active experiments included,
// must keep every paper claim inside its reproduction band at two seeds.
// The bands come from examples/seed_robustness's multi-seed sweep; a change
// that moves a result out of one either is a regression or must rerun the
// sweep and update core/paper_claims.cpp with the new reading.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "core/paper_claims.hpp"

namespace irp {
namespace {

TEST(PaperFidelity, DefaultStudyKeepsEveryClaimInItsBand) {
  std::set<std::string> ids;
  for (const PaperClaim& c : paper_claims())
    EXPECT_TRUE(ids.insert(c.id).second) << "duplicate claim id " << c.id;

  for (std::uint64_t seed : {42u, 1001u}) {
    StudyConfig config;
    config.generator.seed = seed;
    config.passive.parallel.threads = 0;
    const StudyResults r = run_full_study(config);
    for (const PaperClaim& c : paper_claims()) {
      const double v = c.value(r);
      EXPECT_TRUE(c.in_band(v))
          << c.id << " at seed " << seed << ": " << v << " outside ["
          << c.lo << ", " << c.hi << "]";
    }
  }
}

}  // namespace
}  // namespace irp
