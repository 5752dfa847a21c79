// Test helpers: run a fixed fault-rate grid through the campaign runner and
// read CSV output back as bytes.
//
// Every figure grid runs through campaign::RunCampaign with adaptive=false
// (each cell takes exactly spec.fixed_trials trials), so tests drive ad-hoc
// trial functions through the same executor the benches, the CLI and the
// result store use.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "harness/csv.h"
#include "harness/trial.h"

namespace robustify::testutil {

// A fixed-budget spec: `trials` trials per cell at every rate, cell seeds
// base_seed + trial index.
inline campaign::CampaignSpec FixedSpec(std::vector<double> rates, int trials,
                                        std::uint64_t base_seed) {
  campaign::CampaignSpec spec;
  spec.name = "fixed_grid";
  spec.app = "fixed_grid";
  spec.fault_rates = std::move(rates);
  spec.fixed_trials = trials;
  spec.base_seed = base_seed;
  return spec;
}

// Runs `spec` as a fixed grid over `scenario` on `threads` workers, with
// no journal.
inline campaign::CampaignResult RunFixed(const campaign::CampaignSpec& spec,
                                         const campaign::Scenario& scenario,
                                         int threads) {
  campaign::RunnerOptions options;
  options.threads = threads;
  options.adaptive = false;
  return campaign::RunCampaign(spec, scenario, options);
}

// The same, over ad-hoc named trial functions.
inline std::vector<harness::Series> RunFixedGrid(
    const campaign::CampaignSpec& spec, std::vector<harness::NamedTrial> series,
    int threads) {
  campaign::Scenario scenario;
  scenario.app = spec.app;
  scenario.series = std::move(series);
  return RunFixed(spec, scenario, threads).series;
}

// The bytes harness::WriteSweepCsv writes for `series`, via a scratch file
// under the gtest temp dir named after `tag` and the process id (ctest runs
// each test in its own process, concurrently).
inline std::string CsvBytes(const std::vector<harness::Series>& series,
                            const std::string& tag, bool outcome_columns = false) {
  const std::string path = ::testing::TempDir() + "/robustify_" + tag + "_" +
                           std::to_string(::getpid()) + ".csv";
  harness::WriteSweepCsv(path, series, outcome_columns);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  return buffer.str();
}

}  // namespace robustify::testutil
