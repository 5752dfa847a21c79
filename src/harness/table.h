// Fixed-width sweep tables: the textual analogue of the paper's plots.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/trial.h"

namespace robustify::harness {

enum class TableValue {
  kSuccessRatePct,
  kMedianMetric,
  kMeanMetric,
  kMeanFaultyFlops,
};

double ExtractValue(const TrialSummary& summary, TableValue value);

// One row per fault rate, one fixed-width column per series.
void PrintSweepTable(std::ostream& os, const std::string& title,
                     const std::vector<Series>& series, TableValue value,
                     const std::string& value_label);

}  // namespace robustify::harness
