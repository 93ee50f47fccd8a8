// Full-study orchestration: one call reproduces every experiment.
#pragma once

#include <memory>

#include "core/active_study.hpp"
#include "core/analysis.hpp"
#include "core/extended_model.hpp"
#include "core/looking_glass.hpp"
#include "core/passive_study.hpp"
#include "core/reports.hpp"
#include "topo/generator.hpp"

namespace irp {

/// End-to-end study configuration.
struct StudyConfig {
  GeneratorConfig generator;
  PassiveStudyConfig passive;
  ActiveConfig active;
  bool run_active = true;
};

/// Everything the study produced: the simulated Internet, the passive
/// dataset, and one report per paper table/figure.
struct StudyResults {
  std::unique_ptr<GeneratedInternet> net;
  PassiveDataset passive;

  Table1Report table1;
  Figure1Report figure1;
  SkewReport skew;                 // Figure 2.
  Figure3Report figure3;
  Table3Report table3;
  Table4Report table4;
  AlternateRouteReport alternate;  // §3.2/§4.4.
  Table2Report table2;
  PspValidationReport psp;         // §4.3 validation.
  ExtendedModelReport extended;    // §7 future work, implemented.

  StudyResults() = default;
  StudyResults(const StudyResults&) = delete;
  StudyResults& operator=(const StudyResults&) = delete;
  StudyResults(StudyResults&&) = default;
  StudyResults& operator=(StudyResults&&) = default;
};

/// Runs the whole study (generation, passive campaign, all analyses, and —
/// unless disabled — the active experiments) on one ThreadPool sized by
/// `config.passive.parallel`: begin_passive_study, with vantage selection
/// and the discovery simulation as one index of its convergence loop; then
/// finish_passive_study; the classifier precompute; the extended model and
/// every analysis (each an index of its own); then the discovery
/// evaluation and the magnet experiment. Results are byte-identical at any
/// thread count; threads = 1 runs every phase inline, in that order.
StudyResults run_full_study(const StudyConfig& config);

}  // namespace irp
