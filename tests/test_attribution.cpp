// Wall-time attribution ledger: the self/total accounting contract.
//
// Load-bearing guarantees:
//   * per (thread, category): self <= total, and each thread's self times
//     sum to exactly its root span's total — every instant inside the root
//     is attributed to exactly one innermost span (the ISSUE's "child
//     self-times sum to <= parent total" holds with equality per thread);
//   * fixed-grid and adaptive campaign CSVs are byte-identical with
//     attribution off and on, at threads 1/2/8 — the ledger observes, it
//     never participates;
//   * attribution is off by default and costs nothing until enabled;
//   * compiled out (-DROBUSTIFY_TELEMETRY=OFF) the whole API is inert.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "telemetry/attribution.h"
#include "telemetry/trace.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;

harness::TrialFn SortTrial() {
  return [](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 150;
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

std::string SweepCsvBytes(int threads, const std::string& tag) {
  return testutil::CsvBytes(
      testutil::RunFixedGrid(testutil::FixedSpec({0.0, 0.05}, 4, 77),
                             {{"SGD+AS,SQS", SortTrial()}}, threads),
      "attr_" + tag);
}

std::string CampaignCsvBytes(int threads, const std::string& tag) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_6");
  spec.fault_rates = {0.0, 1e-3};
  spec.max_trials = 6;
  spec.min_trials = 2;
  spec.ci_half_width = 0.2;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  campaign::RunnerOptions options;
  options.threads = threads;
  const campaign::CampaignResult result =
      campaign::RunCampaign(spec, scenario, options);
  return testutil::CsvBytes(result.series, "attr_" + tag);
}

// The ledger must never change published bytes, enabled or not, at any
// thread count.
TEST(Attribution, SweepCsvInvariantUnderAttributionAndThreads) {
  telemetry::SetAttributionEnabled(false);
  const std::string off_t1 = SweepCsvBytes(1, "off_t1");
  telemetry::SetAttributionEnabled(true);
  const std::string on_t1 = SweepCsvBytes(1, "on_t1");
  const std::string on_t2 = SweepCsvBytes(2, "on_t2");
  const std::string on_t8 = SweepCsvBytes(8, "on_t8");
  telemetry::SetAttributionEnabled(false);
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t2);
  EXPECT_EQ(off_t1, on_t8);
}

TEST(Attribution, CampaignCsvInvariantUnderAttributionAndThreads) {
  telemetry::SetAttributionEnabled(false);
  const std::string off_t1 = CampaignCsvBytes(1, "c_off_t1");
  telemetry::SetAttributionEnabled(true);
  const std::string on_t1 = CampaignCsvBytes(1, "c_on_t1");
  const std::string on_t2 = CampaignCsvBytes(2, "c_on_t2");
  const std::string on_t8 = CampaignCsvBytes(8, "c_on_t8");
  telemetry::SetAttributionEnabled(false);
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t2);
  EXPECT_EQ(off_t1, on_t8);
}

#if ROBUSTIFY_TELEMETRY_ENABLED

TEST(Attribution, DisabledByDefaultAndSnapshotEmptyUntilEnabled) {
  // Whatever earlier tests did, a reset + disabled state observes nothing.
  telemetry::SetAttributionEnabled(false);
  telemetry::ResetAttribution();
  EXPECT_FALSE(telemetry::AttributionActive());
  { telemetry::SpanScope span("campaign"); }
  const telemetry::AttributionSnapshot snapshot =
      telemetry::SnapshotAttribution();
  for (const auto& ledger : snapshot.threads) {
    for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
      EXPECT_EQ(ledger.totals[c].count, 0u);
      EXPECT_EQ(ledger.totals[c].total_ns, 0u);
    }
  }
}

// Nested spans on one thread: self + child == total for the parent, child
// totals never exceed the parent's, recursion counts the outermost span
// only, and every category keeps self <= total.
TEST(Attribution, SelfTotalHierarchyOnNestedSpans) {
  telemetry::ResetAttribution();
  telemetry::SetAttributionEnabled(true);
  {
    telemetry::SpanScope campaign("campaign");
    for (int i = 0; i < 2; ++i) {
      telemetry::SpanScope trial("trial");
      telemetry::SpanScope solve("solve.sgd");  // nested distinct categories
      volatile double x = 1.0;
      for (int k = 0; k < 50000; ++k) x = x * 1.0000001 + 1e-9;
    }
    {
      telemetry::SpanScope outer("trial");
      telemetry::SpanScope inner("trial");  // recursion: outermost only
    }
  }
  telemetry::SetAttributionEnabled(false);
  const telemetry::AttributionSnapshot snapshot =
      telemetry::SnapshotAttribution();

  const telemetry::AttrTotals& campaign =
      snapshot.total(telemetry::AttrCategory::kCampaign);
  const telemetry::AttrTotals& trial =
      snapshot.total(telemetry::AttrCategory::kTrial);
  const telemetry::AttrTotals& solve =
      snapshot.total(telemetry::AttrCategory::kSolveSgd);

  EXPECT_EQ(campaign.count, 1u);
  EXPECT_EQ(trial.count, 3u);  // two loop trials + one outermost recursive trial
  EXPECT_EQ(solve.count, 2u);
  EXPECT_GT(campaign.total_ns, 0u);

  // Child totals fit inside the parent; self <= total everywhere.
  EXPECT_LE(trial.total_ns, campaign.total_ns);
  EXPECT_LE(solve.total_ns, trial.total_ns);
  for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
    EXPECT_LE(snapshot.merged[c].self_ns, snapshot.merged[c].total_ns);
  }
  // The root's time decomposes exactly into the self times of the tree:
  // every instant belongs to exactly one innermost span.
  std::uint64_t self_sum = 0;
  for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
    self_sum += snapshot.merged[c].self_ns;
  }
  EXPECT_EQ(self_sum, campaign.total_ns);
}

// A real threaded campaign: per-thread ledgers each decompose exactly —
// the thread's self times sum to its root categories' totals (campaign on
// the submitting thread; trial, sched.wait and checkpoint.flush side by
// side on the workers), which is the strong form of "child self-times sum
// to <= parent total".
TEST(Attribution, CampaignDecomposesPerThread) {
  telemetry::ResetAttribution();
  telemetry::SetAttributionEnabled(true);
  CampaignCsvBytes(8, "decomp_t8");
  telemetry::SetAttributionEnabled(false);
  const telemetry::AttributionSnapshot snapshot =
      telemetry::SnapshotAttribution();

  ASSERT_FALSE(snapshot.threads.empty());
  EXPECT_EQ(snapshot.total(telemetry::AttrCategory::kCampaign).count, 1u);
  EXPECT_GT(snapshot.total(telemetry::AttrCategory::kTrial).count, 0u);
  const auto total_ns = [](const auto& ledger, telemetry::AttrCategory c) {
    return ledger.totals[static_cast<int>(c)].total_ns;
  };

  for (const auto& ledger : snapshot.threads) {
    std::uint64_t self_sum = 0;
    for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
      EXPECT_LE(ledger.totals[c].self_ns, ledger.totals[c].total_ns)
          << "tid " << ledger.tid << " category "
          << telemetry::AttrCategoryName(
                 static_cast<telemetry::AttrCategory>(c));
      self_sum += ledger.totals[c].self_ns;
    }
    const bool submitter =
        ledger.totals[static_cast<int>(telemetry::AttrCategory::kCampaign)].count > 0;
    const std::uint64_t root_total =
        submitter ? total_ns(ledger, telemetry::AttrCategory::kCampaign)
                  : total_ns(ledger, telemetry::AttrCategory::kTrial) +
                        total_ns(ledger, telemetry::AttrCategory::kSchedWait) +
                        total_ns(ledger, telemetry::AttrCategory::kCheckpointFlush);
    EXPECT_EQ(self_sum, root_total) << "tid " << ledger.tid;
  }

  // Merged view sums the per-thread ledgers.
  for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
    std::uint64_t total = 0, self = 0, count = 0;
    for (const auto& ledger : snapshot.threads) {
      total += ledger.totals[c].total_ns;
      self += ledger.totals[c].self_ns;
      count += ledger.totals[c].count;
    }
    EXPECT_EQ(snapshot.merged[c].total_ns, total);
    EXPECT_EQ(snapshot.merged[c].self_ns, self);
    EXPECT_EQ(snapshot.merged[c].count, count);
  }
}

TEST(Attribution, ResetClearsEveryLedger) {
  telemetry::ResetAttribution();
  telemetry::SetAttributionEnabled(true);
  SweepCsvBytes(2, "reset_t2");
  telemetry::SetAttributionEnabled(false);
  EXPECT_GT(telemetry::SnapshotAttribution()
                .total(telemetry::AttrCategory::kCampaign)
                .count,
            0u);
  telemetry::ResetAttribution();
  const telemetry::AttributionSnapshot snapshot =
      telemetry::SnapshotAttribution();
  for (const auto& ledger : snapshot.threads) {
    for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
      EXPECT_EQ(ledger.totals[c].count, 0u);
      EXPECT_EQ(ledger.totals[c].total_ns, 0u);
      EXPECT_EQ(ledger.totals[c].self_ns, 0u);
    }
  }
}

TEST(Attribution, ReportFormatAndFileWriter) {
  telemetry::ResetAttribution();
  telemetry::SetAttributionEnabled(true);
  SweepCsvBytes(1, "report_t1");
  telemetry::SetAttributionEnabled(false);

  std::ostringstream report;
  telemetry::FormatAttributionReport(telemetry::SnapshotAttribution(), report);
  const std::string text = report.str();
  EXPECT_NE(text.find("# wall-time attribution"), std::string::npos);
  EXPECT_NE(text.find("campaign"), std::string::npos);
  EXPECT_NE(text.find("trial"), std::string::npos);
  EXPECT_NE(text.find("merged"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/robustify_attr_report.txt";
  ASSERT_TRUE(telemetry::WriteAttributionReport(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), text);
  std::remove(path.c_str());
  EXPECT_FALSE(telemetry::WriteAttributionReport(
      "/nonexistent-dir-robustify/report.txt"));
}

#else  // !ROBUSTIFY_TELEMETRY_ENABLED

// Compiled out, the API is inert: enabling is a no-op, snapshots are empty,
// and the file writer reports failure instead of writing an empty report.
TEST(Attribution, CompiledOutApiIsInert) {
  telemetry::SetAttributionEnabled(true);
  EXPECT_FALSE(telemetry::AttributionActive());
  { telemetry::SpanScope span("campaign"); }
  const telemetry::AttributionSnapshot snapshot =
      telemetry::SnapshotAttribution();
  EXPECT_TRUE(snapshot.threads.empty());
  for (int c = 0; c < telemetry::kNumAttrCategories; ++c) {
    EXPECT_EQ(snapshot.merged[c].count, 0u);
  }
  EXPECT_FALSE(telemetry::WriteAttributionReport(
      ::testing::TempDir() + "/robustify_attr_noop.txt"));
}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace
