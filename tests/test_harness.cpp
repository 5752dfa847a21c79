// Harness: trials, fixed fault-rate grids (run by the campaign runner),
// table extraction, CSV writing, and the golden-CSV determinism guarantees
// (thread-count and injector-strategy invariance of grid output).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "core/fault_env.h"
#include "harness/csv.h"
#include "harness/table.h"
#include "harness/trial.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;
using testutil::CsvBytes;
using testutil::FixedSpec;
using testutil::RunFixedGrid;

harness::TrialFn FailAboveRate(double cutoff) {
  return [cutoff](const core::FaultEnvironment& env) {
    harness::TrialOutcome out;
    out.success = env.fault_rate <= cutoff;
    out.metric = env.fault_rate;
    return out;
  };
}

// One cell of a fixed grid runs trial t at seed base_seed + t.
TEST(FixedGrid, CountsSuccessesAndVariesSeeds) {
  std::vector<std::uint64_t> seeds;
  const harness::TrialFn fn = [&seeds](const core::FaultEnvironment& env) {
    seeds.push_back(env.seed);
    harness::TrialOutcome out;
    out.success = env.seed % 2 == 0;
    out.metric = static_cast<double>(env.seed);
    return out;
  };
  const harness::TrialSummary s =
      RunFixedGrid(FixedSpec({0.0}, 4, 10), {{"seeds", fn}}, 1)[0]
          .points[0]
          .summary;
  EXPECT_EQ(s.trials, 4);
  EXPECT_EQ(s.successes, 2);
  EXPECT_DOUBLE_EQ(s.success_rate_pct, 50.0);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

TEST(FixedGrid, NonFiniteMetricsCountAsInfinityInMedian) {
  int call = 0;
  const harness::TrialFn fn = [&call](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    out.metric = (call++ % 2 == 0) ? std::nan("") : 1.0;
    return out;
  };
  const harness::TrialSummary s =
      RunFixedGrid(FixedSpec({0.0}, 4, 1), {{"nan", fn}}, 1)[0].points[0].summary;
  EXPECT_TRUE(std::isinf(s.median_metric));  // upper median of {1, 1, inf, inf}
  EXPECT_DOUBLE_EQ(s.mean_metric, 1.0);      // mean over finite metrics
}

TEST(Sweep, RunsEverySeriesAtEveryRate) {
  const auto series = RunFixedGrid(
      FixedSpec({0.0, 0.1, 0.2}, 3, 1),
      {{"lenient", FailAboveRate(0.15)}, {"strict", FailAboveRate(0.05)}}, 0);
  ASSERT_EQ(series.size(), 2u);
  ASSERT_EQ(series[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0].points[1].summary.success_rate_pct, 100.0);
  EXPECT_DOUBLE_EQ(series[1].points[1].summary.success_rate_pct, 0.0);
}

TEST(Table, PrintsOneRowPerRateAndOneColumnPerSeries) {
  const auto series = RunFixedGrid(FixedSpec({0.0, 0.5}, 2, 1),
                                   {{"SGD+AS,LS", FailAboveRate(0.25)}}, 0);
  std::ostringstream os;
  harness::PrintSweepTable(os, "title", series, harness::TableValue::kSuccessRatePct,
                           "success (%)");
  const std::string text = os.str();
  EXPECT_NE(text.find("SGD+AS,LS"), std::string::npos);
  EXPECT_NE(text.find("fault_rate"), std::string::npos);
  EXPECT_NE(text.find("100.0"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
}

TEST(Csv, WritesQuotedHeadersAndThrowsOnBadPath) {
  const auto series = RunFixedGrid(FixedSpec({0.0}, 1, 1),
                                   {{"SGD+AS,LS", FailAboveRate(1.0)}}, 0);
  const std::string bytes = CsvBytes(series, "test_csv");
  const std::string header = bytes.substr(0, bytes.find('\n'));
  EXPECT_NE(header.find("\"SGD+AS,LS success_pct\""), std::string::npos);

  EXPECT_THROW(harness::WriteSweepCsv("/nonexistent_dir_zzz/x.csv", series),
               std::runtime_error);
}

// --- golden-CSV determinism -------------------------------------------------

// A real kernel under real fault injection, pinned to one injector
// strategy: robust sort on a seed-derived 4-element input.
harness::TrialFn SortTrial(faulty::FaultInjector::Strategy strategy) {
  return [strategy](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.strategy = strategy;
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;  // full descent shape, test-sized budget
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

// The grid contract: output is a pure function of (spec, trial fns) —
// never of the worker count.  Byte-identical CSVs for 1, 2, and 8 threads,
// at rate 0 and under heavy fault injection alike.
TEST(Sweep, GoldenCsvByteIdenticalAcrossThreadCounts) {
  using Strategy = faulty::FaultInjector::Strategy;
  const campaign::CampaignSpec spec = FixedSpec({0.0, 0.05}, 4, 33);
  const std::vector<harness::NamedTrial> trials = {
      {"SGD+AS,SQS", SortTrial(Strategy::kAuto)}};

  const std::string one = CsvBytes(RunFixedGrid(spec, trials, 1), "golden_t1");
  const std::string two = CsvBytes(RunFixedGrid(spec, trials, 2), "golden_t2");
  const std::string eight = CsvBytes(RunFixedGrid(spec, trials, 8), "golden_t8");

  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// At rate 0 no strategy ever samples a gap or flips a bit, so the injector
// implementation must be invisible: skip-ahead and the per-op oracle have
// to produce byte-identical grid output.
TEST(Sweep, GoldenCsvByteIdenticalAcrossStrategiesAtRateZero) {
  using Strategy = faulty::FaultInjector::Strategy;
  const campaign::CampaignSpec spec = FixedSpec({0.0}, 3, 44);
  const std::string skip = CsvBytes(
      RunFixedGrid(spec, {{"SGD+AS,SQS", SortTrial(Strategy::kSkipAhead)}}, 1),
      "golden_skip");
  const std::string perop = CsvBytes(
      RunFixedGrid(spec, {{"SGD+AS,SQS", SortTrial(Strategy::kPerOp)}}, 1),
      "golden_perop");

  EXPECT_FALSE(skip.empty());
  EXPECT_EQ(skip, perop);
}

}  // namespace
