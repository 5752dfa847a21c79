// Scenario construction: the trial functions behind every registered
// campaign app.
//
// A Scenario is the executable half of a CampaignSpec: the named TrialFns
// (one per figure series), the table/CSV presentation metadata, and
// ownership of whatever fixed problem data the trials close over (the LSQ
// matrix, the matching graph, the IIR signal...).  The bench mains and the
// campaign runner both build their series here, so a figure's definition
// lives in exactly one place.
#pragma once

#include <string>
#include <vector>

#include "campaign/spec.h"
#include "harness/table.h"
#include "harness/trial.h"

namespace robustify::campaign {

struct Scenario {
  std::string app;
  std::string title;        // sweep table heading
  std::string value_label;  // y-axis label of the figure's primary table
  harness::TableValue value = harness::TableValue::kSuccessRatePct;
  std::string csv_name;     // default CSV output name
  // One entry per series, in figure-legend order; each TrialFn owns (via
  // shared_ptr captures) every input it needs, so a Scenario outlives the
  // scope that built it and is safe to fan across worker threads.
  std::vector<harness::NamedTrial> series;
};

// Names of every series scenario `app` defines, in legend order.
std::vector<std::string> ScenarioSeriesNames(const std::string& app);

// Builds the scenario for spec.app, restricted (and reordered) to
// spec.series when non-empty.  Throws std::runtime_error on an unknown app
// or series name.
Scenario BuildScenario(const CampaignSpec& spec);

}  // namespace robustify::campaign
