#include "core/paper_claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace irp {
namespace {

using enum ClaimUnit;
using enum ClaimBound;

/// The one margin of every band: each side of the sweep's [min, max] is
/// widened by this fraction of its spread. For eight uniform draws, the
/// expected distance from each extreme drawn to the end of the range is one
/// seventh of the expected distance between the two extremes.
constexpr double kBandMargin = 1.0 / 7.0;

/// A claim whose band is the min and max `examples/seed_robustness` reached
/// over its eight-seed sweep of the default study (EXPERIMENTS.md), widened
/// by kBandMargin and clipped to the values the unit can take.
PaperClaim row(const char* id, const char* section, ClaimUnit unit,
               ClaimBound bound, double paper, double sweep_min,
               double sweep_max, double (*value)(const StudyResults&)) {
  const double margin = kBandMargin * (sweep_max - sweep_min);
  double lo = sweep_min - margin, hi = sweep_max + margin;
  if (unit != kPoints) lo = std::max(lo, 0.0);
  if (unit == kShare || unit == kFlag) hi = std::min(hi, 1.0);
  return {id, section, unit, bound, paper, value, lo, hi};
}

double ratio(std::size_t n, std::size_t d) {
  return d == 0 ? 0.0 : double(n) / double(d);
}

double share(const StudyResults& r, std::string_view scenario,
             DecisionCategory c) {
  for (const auto& [name, b] : r.figure1.scenarios)
    if (name == scenario) return b.share(c);
  IRP_UNREACHABLE("unknown Figure 1 scenario");
}

double best_short(const StudyResults& r, std::string_view scenario) {
  return share(r, scenario, DecisionCategory::kBestShort);
}

double service_share(const StudyResults& r, std::size_t rank) {
  const auto& top = r.skew.top_dest_services;
  return rank < top.size() ? top[rank].second : 0.0;
}

double domestic(const StudyResults& r, Continent c) {
  for (const auto& row : r.table3.rows)
    if (row.continent == c)
      return ratio(row.explained, row.domestic_violations);
  return 0.0;
}

double feeds(const StudyResults& r, std::size_t TriggerCounts::*field) {
  return ratio(r.table2.feeds.*field, r.table2.feeds.total());
}

double traces(const StudyResults& r, std::size_t TriggerCounts::*field) {
  return ratio(r.table2.traceroutes.*field, r.table2.traceroutes.total());
}

double alternate(const StudyResults& r,
                 std::size_t AlternateRouteReport::*field) {
  return ratio(r.alternate.*field, r.alternate.targets);
}

using R = const StudyResults&;
using T = TriggerCounts;
using A = AlternateRouteReport;

const std::vector<PaperClaim>& table() {
  static const std::vector<PaperClaim> claims{
      // Table 1 (§3.1): 1,998 probes in 633 ASes, concentrated at the edge.
      row("table1.probes", "Table 1", kCount, kEqual, 1998, 1998, 1998,
          [](R r) { return double(r.table1.total_probes); }),
      row("table1.ases", "Table 1", kCount, kEqual, 633, 554, 574,
          [](R r) { return double(r.table1.total_ases); }),
      row("table1.edge_share", "Table 1", kShare, kAbove, 0.5,
          0.98999, 0.994494,
          [](R r) {
            return ratio(r.table1.rows[0].probes + r.table1.rows[1].probes,
                         r.table1.total_probes);
          }),

      // Figure 1 (§4): the refinement ladder.
      row("fig1.simple.best_short", "Figure 1", kShare, kEqual, 0.647,
          0.667585, 0.74295,
          [](R r) { return best_short(r, "Simple"); }),
      row("fig1.simple.violations", "Figure 1", kShare, kEqual, 0.343,
          0.25705, 0.332415,
          [](R r) { return 1.0 - best_short(r, "Simple"); }),
      row("fig1.simple.nonbest_long", "Figure 1", kShare, kEqual, 0.083,
          0.0378952, 0.0672407,
          [](R r) {
            return share(r, "Simple", DecisionCategory::kNonBestLong);
          }),
      row("fig1.complex.effect", "Figure 1", kShare, kBelow, 0.01,
          0, 0.000184915,
          [](R r) {
            return std::abs(best_short(r, "Complex") -
                            best_short(r, "Simple"));
          }),
      row("fig1.sibs.gain", "Figure 1", kPoints, kEqual, 0.039,
          0.00262041, 0.0103252,
          [](R r) { return best_short(r, "Sibs") - best_short(r, "Simple"); }),
      row("fig1.all1.best_short", "Figure 1", kShare, kEqual, 0.857,
          0.773006, 0.843543,
          [](R r) { return best_short(r, "All-1"); }),
      row("fig1.all2.best_short", "Figure 1", kShare, kEqual, 0.757,
          0.731186, 0.834021,
          [](R r) { return best_short(r, "All-2"); }),

      // Figure 2 (§5): violations concentrate on a few destinations.
      row("fig2.top_service.share", "Figure 2", kShare, kEqual, 0.21,
          0.109546, 0.162608,
          [](R r) { return service_share(r, 0); }),
      row("fig2.second_service.share", "Figure 2", kShare, kEqual, 0.17,
          0.0877315, 0.132667,
          [](R r) { return service_share(r, 1); }),
      row("fig2.second_service.stale", "Figure 2", kShare, kEqual, 0.24,
          0.0397706, 0.679112,
          [](R r) { return r.skew.stale_fraction_second_service; }),
      row("fig2.sources_less_skewed", "Figure 2", kFlag, kEqual, 1, 1, 1,
          [](R r) { return double(r.skew.gini_sources < r.skew.gini_dests); }),

      // Figure 3 (§6): geography.
      row("fig3.continental_share", "Figure 3", kShare, kEqual, 0.45,
          0.403445, 0.538563,
          [](R r) { return r.figure3.continental_traceroute_fraction; }),
      row("fig3.continental_more_best_short", "Figure 3", kFlag, kEqual, 1,
          1, 1,
          [](R r) {
            return double(
                r.figure3.continental_all.share(DecisionCategory::kBestShort) >
                r.figure3.intercontinental.share(DecisionCategory::kBestShort));
          }),

      // Table 2 (§4.4): decision triggers after anycast.
      row("table2.feeds.best_relationship", "Table 2", kShare, kEqual, 0.460,
          0.354167, 0.495798,
          [](R r) { return feeds(r, &T::best_relationship); }),
      row("table2.feeds.shorter_path", "Table 2", kShare, kEqual, 0.160,
          0.0947368, 0.168067,
          [](R r) { return feeds(r, &T::shorter_path); }),
      row("table2.feeds.intradomain", "Table 2", kShare, kEqual, 0.164,
          0.131737, 0.2,
          [](R r) { return feeds(r, &T::intradomain); }),
      row("table2.feeds.oldest_route", "Table 2", kShare, kEqual, 0.025,
          0.113772, 0.229167,
          [](R r) { return feeds(r, &T::oldest_route); }),
      row("table2.feeds.violation", "Table 2", kShare, kEqual, 0.189,
          0.0504202, 0.233533,
          [](R r) { return feeds(r, &T::violation); }),
      row("table2.traces.best_relationship", "Table 2", kShare, kEqual, 0.424,
          0.20614, 0.312977,
          [](R r) { return traces(r, &T::best_relationship); }),
      row("table2.traces.shorter_path", "Table 2", kShare, kEqual, 0.294,
          0.263768, 0.350877,
          [](R r) { return traces(r, &T::shorter_path); }),
      row("table2.traces.intradomain", "Table 2", kShare, kEqual, 0.156,
          0.0775862, 0.118321,
          [](R r) { return traces(r, &T::intradomain); }),
      row("table2.traces.oldest_route", "Table 2", kShare, kEqual, 0.016,
          0.154135, 0.214912,
          [](R r) { return traces(r, &T::oldest_route); }),
      row("table2.traces.violation", "Table 2", kShare, kEqual, 0.108,
          0.114035, 0.162319,
          [](R r) { return traces(r, &T::violation); }),

      // §4.4: preference orderings of alternate routes under poisoning.
      row("alt.both", "Sec. 4.4", kShare, kEqual, 0.861, 0.713415, 0.921986,
          [](R r) { return alternate(r, &A::both); }),
      row("alt.best_only", "Sec. 4.4", kShare, kEqual, 0.080,
          0.0425532, 0.185897,
          [](R r) { return alternate(r, &A::best_only); }),
      row("alt.short_only", "Sec. 4.4", kShare, kEqual, 0.050,
          0.00684932, 0.0670732,
          [](R r) { return alternate(r, &A::short_only); }),
      row("alt.neither", "Sec. 4.4", kShare, kEqual, 0.008, 0, 0.0701754,
          [](R r) { return alternate(r, &A::neither); }),
      // 188 poisoned announcements for 36 targets.
      row("alt.poisoned_per_target", "Sec. 4.4", kRatio, kEqual, 188.0 / 36.0,
          3.39007, 4.31707,
          [](R r) {
            return ratio(r.alternate.poisoned_announcements,
                         r.alternate.targets);
          }),

      // §3.2: links exposed by the active experiments.
      row("links.observed", "Sec. 3.2", kCount, kEqual, 739, 463, 616,
          [](R r) { return double(r.alternate.links_observed); }),
      row("links.not_in_db", "Sec. 3.2", kCount, kEqual, 45, 18, 38,
          [](R r) { return double(r.alternate.links_not_in_db); }),
      row("links.poison_only", "Sec. 3.2", kShare, kEqual, 0.222,
          0.275862, 0.571429,
          [](R r) {
            return ratio(r.alternate.links_poison_only,
                         r.alternate.links_not_in_db);
          }),

      // Table 3 (§6): NonBest/Short explained by domestic preference.
      row("table3.asia", "Table 3", kShare, kEqual, 0.401, 0.803922, 1,
          [](R r) { return domestic(r, Continent::kAsia); }),
      row("table3.africa", "Table 3", kShare, kEqual, 0.625, 0.3125, 1,
          [](R r) { return domestic(r, Continent::kAfrica); }),
      row("table3.europe", "Table 3", kShare, kEqual, 0.643, 0.625, 1,
          [](R r) { return domestic(r, Continent::kEurope); }),
      row("table3.north_america", "Table 3", kShare, kEqual, 0.019,
          0.610497, 0.903846,
          [](R r) { return domestic(r, Continent::kNorthAmerica); }),
      row("table3.oceania", "Table 3", kShare, kEqual, 0.629, 0.742515, 1,
          [](R r) { return domestic(r, Continent::kOceania); }),
      row("table3.south_america", "Table 3", kShare, kEqual, 0.666, 0.186047, 1,
          [](R r) { return domestic(r, Continent::kSouthAmerica); }),
      row("table3.overall", "Table 3", kShare, kAbove, 0.40, 0.791451, 0.907895,
          [](R r) { return r.table3.overall_explained_fraction; }),
      row("table3.north_america_lowest", "Table 3", kFlag, kEqual, 1, 0, 1,
          [](R r) {
            const double na = domestic(r, Continent::kNorthAmerica);
            for (const auto& other : r.table3.rows)
              if (other.continent != Continent::kNorthAmerica &&
                  domestic(r, other.continent) <= na)
                return 0.0;
            return 1.0;
          }),

      // Table 4 (§6): undersea-cable ASes.
      row("table4.nonbest_short", "Table 4", kShare, kEqual, 0.030,
          0.0013027, 0.0262469,
          [](R r) { return r.table4.nonbest_short; }),
      row("table4.best_long", "Table 4", kShare, kEqual, 0.065,
          0.0193083, 0.0945118,
          [](R r) { return r.table4.best_long; }),
      row("table4.nonbest_long", "Table 4", kShare, kEqual, 0.045,
          0.00939986, 0.0470058,
          [](R r) { return r.table4.nonbest_long; }),
      row("table4.paths_with_cable", "Table 4", kShare, kBelow, 0.02,
          0.0130031, 0.047223,
          [](R r) { return r.table4.paths_with_cable; }),
      row("table4.cable_deviation", "Table 4", kShare, kEqual, 0.512,
          0.318267, 0.622152,
          [](R r) { return r.table4.cable_decision_deviation; }),

      // §4.3: looking-glass validation of prefix-specific policies.
      row("psp.cases", "Sec. 4.3", kCount, kEqual, 63, 18, 33,
          [](R r) { return double(r.psp.psp_cases); }),
      row("psp.neighbors", "Sec. 4.3", kCount, kEqual, 149, 71, 116,
          [](R r) { return double(r.psp.unique_neighbors); }),
      row("psp.neighbors_with_lg", "Sec. 4.3", kCount, kEqual, 28, 15, 22,
          [](R r) { return double(r.psp.neighbors_with_lg); }),
      row("psp.precision", "Sec. 4.3", kShare, kEqual, 0.78, 0.866667, 0.97619,
          [](R r) { return r.psp.precision(); }),
  };
  return claims;
}

}  // namespace

bool PaperClaim::paper_in_band() const {
  switch (bound) {
    case kEqual: return in_band(paper);
    case kBelow: return lo < paper;
    case kAbove: return hi > paper;
  }
  IRP_UNREACHABLE("bad claim bound");
}

std::string PaperClaim::paper_text() const {
  const char* prefix = bound == kBelow ? "<" : bound == kAbove ? ">" : "";
  return prefix + format_claim_value(unit, paper);
}

std::span<const PaperClaim> paper_claims() { return table(); }

std::string format_claim_value(ClaimUnit unit, double v) {
  char buf[32];
  switch (unit) {
    case kShare: return percent(v);
    case kPoints:
      std::snprintf(buf, sizeof buf, "%+.1f pts", v * 100.0);
      return buf;
    case kCount: return fixed(v, 0);
    case kRatio: return fixed(v, 2);
    case kFlag: return v >= 0.5 ? "yes" : "no";
  }
  IRP_UNREACHABLE("bad claim unit");
}

std::string render_paper_claims(const StudyResults& r) {
  TextTable t{{"Section", "Claim", "Paper", "Reproduction", "Band", "Status"}};
  for (const PaperClaim& c : paper_claims()) {
    const double v = c.value(r);
    t.add_row({c.section, c.id,
               c.paper_text(),
               format_claim_value(c.unit, v),
               "[" + format_claim_value(c.unit, c.lo) + ", " +
                   format_claim_value(c.unit, c.hi) + "]",
               std::string(c.in_band(v) ? "ok" : "OUT OF BAND") +
                   (c.paper_in_band() ? "" : " *")});
  }
  return "Paper claims vs reproduction (* = known gap: the band excludes "
         "the paper's value; see EXPERIMENTS.md)\n" +
         t.render();
}

}  // namespace irp
