// The paper's quantitative claims as one table: for every number the paper
// reports, where it says it, its value, how to read the reproduction's
// value out of a StudyResults, and the band the reproduction is expected to
// stay in. `run_study_cli` prints the table; `test_paper_fidelity` fails
// when a default study leaves a band; `examples/seed_robustness` runs the
// multi-seed sweep the bands come from.
#pragma once

#include <span>
#include <string>

#include "core/study.hpp"

namespace irp {

/// How a claim's value is read and printed.
enum class ClaimUnit {
  kShare,   ///< Fraction in [0, 1], printed as a percentage.
  kPoints,  ///< Difference of two shares, printed in percentage points.
  kCount,   ///< An absolute count.
  kRatio,   ///< A non-integral ratio, printed with two decimals.
  kFlag,    ///< 1 when a qualitative claim holds, 0 otherwise.
};

/// Whether the paper states a value or a bound on it ("<2%", ">40%").
enum class ClaimBound { kEqual, kBelow, kAbove };

struct PaperClaim {
  const char* id;       ///< Stable key, e.g. "fig1.simple.best_short".
  const char* section;  ///< Where the paper states it, e.g. "Figure 1".
  ClaimUnit unit;
  ClaimBound bound;
  double paper;         ///< The paper's value (or bound), in `unit`.
  double (*value)(const StudyResults&);
  double lo, hi;        ///< Reproduction band, inclusive.

  bool in_band(double v) const { return v >= lo && v <= hi; }
  /// The paper's value as printed, with its bound: "64.7%", "<2.0%".
  std::string paper_text() const;
  /// False for a known gap: no value in the band agrees with the paper.
  bool paper_in_band() const;
};

/// Every claim, in paper order.
std::span<const PaperClaim> paper_claims();

/// Formats a value of `unit` the way the claims table prints it.
std::string format_claim_value(ClaimUnit unit, double v);

/// The claims table for one study: paper value, reproduction, band, and
/// whether the reproduction is inside it.
std::string render_paper_claims(const StudyResults& r);

}  // namespace irp
