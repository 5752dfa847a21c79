// Campaign subsystem: spec parsing/registry, the Wilson stopping rule and
// its horizon, the trial scheduler's determinism contract (thread-count,
// batch-size, shard, and kill/resume invariance, byte-for-byte, with zero
// speculative trials), and the golden adaptive-vs-fixed comparison on the
// real figure scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "harness/trial.h"
#include "telemetry/telemetry.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;

// ---- spec format ------------------------------------------------------------

campaign::CampaignSpec SampleSpec() {
  campaign::CampaignSpec spec;
  spec.name = "sample";
  spec.app = "fig6_1";
  spec.series = {"Base", "SGD+AS,SQS"};
  spec.fault_rates = {0.0, 1e-4, 0.25};
  spec.fixed_trials = 7;
  spec.max_trials = 40;
  spec.min_trials = 5;
  spec.batch = 9;
  spec.ci_half_width = 0.08;
  spec.base_seed = 123;
  spec.bit_model = faulty::BitModel::kUniform;
  return spec;
}

TEST(CampaignSpec, FormatParseRoundTrip) {
  const campaign::CampaignSpec spec = SampleSpec();
  const std::string text = campaign::FormatSpec(spec);
  std::istringstream is(text);
  const campaign::CampaignSpec parsed = campaign::ParseSpec(is);
  EXPECT_EQ(campaign::FormatSpec(parsed), text);
  EXPECT_EQ(parsed.series, spec.series);
  EXPECT_EQ(parsed.fault_rates, spec.fault_rates);
  EXPECT_EQ(parsed.max_trials, spec.max_trials);
  EXPECT_EQ(campaign::SpecFingerprint(parsed), campaign::SpecFingerprint(spec));
}

// Batch size only groups journal appends — accepted tallies are invariant
// to it (CsvByteIdenticalAcrossThreadsAndBatches) — so a journal written
// under one batch size must resume under another.
TEST(CampaignSpec, FingerprintIgnoresBatch) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.batch = base.batch + 7;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, ParseRateAxisSharedWithCli) {
  EXPECT_EQ(campaign::ParseRateAxis("0, 1e-4 ,0.25"),
            (std::vector<double>{0.0, 1e-4, 0.25}));
  EXPECT_THROW(campaign::ParseRateAxis("0.1,"), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis(""), std::runtime_error);
  EXPECT_THROW(campaign::ParseRateAxis("0.1,x"), std::runtime_error);
}

TEST(CampaignSpec, FingerprintSeesEveryOutcomeField) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.fault_rates.push_back(0.5);
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.base_seed += 1;
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.series = {"Base"};
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
  changed = base;
  changed.guard.max_flops = 12345;
  EXPECT_NE(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

// Trial allocation decides how far each cell's deterministic outcome
// sequence gets sampled, never what the outcomes are — every run journals
// a prefix of the same sequences — so none of the allocation knobs may
// fragment the fingerprint (store cells cached at one ci must serve
// queries at another).
TEST(CampaignSpec, FingerprintIgnoresTrialAllocation) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.ci_half_width = 0.0801;
  changed.min_trials += 3;
  changed.max_trials += 50;
  changed.fixed_trials += 2;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, FingerprintIgnoresShard) {
  const campaign::CampaignSpec base = SampleSpec();
  campaign::CampaignSpec changed = base;
  changed.shard_index = 2;
  changed.shard_count = 5;
  EXPECT_EQ(campaign::SpecFingerprint(base), campaign::SpecFingerprint(changed));
}

TEST(CampaignSpec, ShardRoundTripsThroughSpecText) {
  campaign::CampaignSpec spec = SampleSpec();
  spec.shard_index = 1;
  spec.shard_count = 3;
  const std::string text = campaign::FormatSpec(spec);
  EXPECT_NE(text.find("shard = 1/3"), std::string::npos);
  std::istringstream is(text);
  const campaign::CampaignSpec parsed = campaign::ParseSpec(is);
  EXPECT_EQ(parsed.shard_index, 1);
  EXPECT_EQ(parsed.shard_count, 3);
}

TEST(CampaignSpec, ParseShardRejectsMalformedSelections) {
  EXPECT_EQ(campaign::ParseShard("0/1"), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(campaign::ParseShard("2/3"), (std::pair<int, int>{2, 3}));
  // i >= N or N == 0 would silently own zero cells — must be loud.
  EXPECT_THROW(campaign::ParseShard("3/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("0/0"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("-1/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("x/2"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("1"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("1/"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard("/3"), std::runtime_error);
  EXPECT_THROW(campaign::ParseShard(""), std::runtime_error);
}

TEST(CampaignSpec, ParseRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return campaign::ParseSpec(is);
  };
  EXPECT_THROW(parse("rates = 0,0.1\n"), std::runtime_error);  // missing app
  EXPECT_THROW(parse("app = fig6_1\n"), std::runtime_error);   // missing rates
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nbogus_key = 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0,zzz\n"), std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nmin_trials = 9\nbudget = 3\n"),
               std::runtime_error);
  // Shard selections that would own zero cells, and malformed i/N strings.
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 3/3\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 0/0\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = x/2\n"),
               std::runtime_error);
  EXPECT_THROW(parse("app = fig6_1\nrates = 0\nshard = 1\n"),
               std::runtime_error);
}

TEST(CampaignSpec, ParseAcceptsCommentsAndSeriesLines) {
  std::istringstream is(
      "# a campaign\n"
      "app = fig6_1   # scenario key\n"
      "rates = 0, 0.1\n"
      "series = SGD+AS,SQS\n"
      "series = Base\n");
  const campaign::CampaignSpec spec = campaign::ParseSpec(is);
  EXPECT_EQ(spec.name, "fig6_1");  // defaults to the app
  ASSERT_EQ(spec.series.size(), 2u);
  EXPECT_EQ(spec.series[0], "SGD+AS,SQS");  // order preserved
  EXPECT_EQ(spec.fault_rates, (std::vector<double>{0.0, 0.1}));
}

TEST(CampaignRegistry, EveryEntryBuildsItsScenario) {
  ASSERT_FALSE(campaign::RegistryNames().empty());
  for (const std::string& name : campaign::RegistryNames()) {
    const campaign::CampaignSpec& spec = campaign::RegistrySpec(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.fault_rates.empty()) << name;
    const campaign::Scenario scenario = campaign::BuildScenario(spec);
    EXPECT_GE(scenario.series.size(), 2u) << name;
    EXPECT_FALSE(scenario.csv_name.empty()) << name;
  }
  EXPECT_EQ(campaign::FindRegistrySpec("no_such_campaign"), nullptr);
  EXPECT_THROW(campaign::RegistrySpec("no_such_campaign"), std::runtime_error);
}

TEST(CampaignScenario, SeriesSubsetSelectsAndReorders) {
  campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_1");
  spec.series = {"SGD+AS,SQS", "Base"};
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  ASSERT_EQ(scenario.series.size(), 2u);
  EXPECT_EQ(scenario.series[0].name, "SGD+AS,SQS");
  EXPECT_EQ(scenario.series[1].name, "Base");
  spec.series = {"NoSuchSeries"};
  EXPECT_THROW(campaign::BuildScenario(spec), std::runtime_error);
}

// ---- the stopping rule ------------------------------------------------------

TEST(WilsonHalfWidth, MatchesClosedForm) {
  EXPECT_TRUE(std::isinf(campaign::WilsonHalfWidth(0, 0)));
  // p-hat = 1: half-width = z^2 / (2 (n + z^2)) with z = 1.96.
  EXPECT_NEAR(campaign::WilsonHalfWidth(8, 8), 0.16222, 1e-4);
  EXPECT_NEAR(campaign::WilsonHalfWidth(40, 40), 0.04381, 1e-4);
  // Symmetric in successes/failures.
  EXPECT_DOUBLE_EQ(campaign::WilsonHalfWidth(3, 10), campaign::WilsonHalfWidth(7, 10));
  // Tightens with n at fixed p-hat.
  EXPECT_LT(campaign::WilsonHalfWidth(50, 100), campaign::WilsonHalfWidth(5, 10));
}

TEST(CellController, StopsAtTheFirstQualifyingTrial) {
  campaign::AdaptiveConfig config;
  config.min_trials = 4;
  config.max_trials = 100;
  config.ci_half_width = 0.17;
  // All successes: half-width at p-hat = 1 crosses 0.17 at n = 8.
  campaign::CellController ctl(config);
  int n = 0;
  while (!ctl.done()) {
    ctl.Record(true);
    ++n;
  }
  EXPECT_EQ(n, 8);
  EXPECT_TRUE(ctl.settled());
  EXPECT_EQ(ctl.trials(), 8);
  EXPECT_EQ(ctl.successes(), 8);
}

TEST(CellController, RespectsFloorAndBudget) {
  campaign::AdaptiveConfig config;
  config.min_trials = 12;
  config.max_trials = 20;
  config.ci_half_width = 0.9;  // trivially met — but not before the floor
  campaign::CellController floor_ctl(config);
  int n = 0;
  while (!floor_ctl.done()) {
    floor_ctl.Record(true);
    ++n;
  }
  EXPECT_EQ(n, 12);
  EXPECT_TRUE(floor_ctl.settled());

  config.ci_half_width = 1e-6;  // unreachable: budget must cap the cell
  campaign::CellController cap_ctl(config);
  n = 0;
  while (!cap_ctl.done()) {
    cap_ctl.Record(n % 2 == 0);
    ++n;
  }
  EXPECT_EQ(n, 20);
  EXPECT_FALSE(cap_ctl.settled());
}

// The horizon is exact: from every reachable prefix, no outcome sequence
// stops the cell before it, and some outcome sequence stops exactly at it.
// Checked by DP over the reachable (trials, successes) states — controllers
// at one trial count are deduplicated by their success count.
void ExpectHorizonExact(const campaign::AdaptiveConfig& config) {
  const auto add_unique = [](std::vector<campaign::CellController>* layer,
                             const campaign::CellController& c) {
    for (const campaign::CellController& seen : *layer) {
      if (seen.successes() == c.successes()) return;
    }
    layer->push_back(c);
  };
  std::vector<campaign::CellController> layer = {campaign::CellController(config)};
  while (!layer.empty()) {
    std::vector<campaign::CellController> next;
    for (const campaign::CellController& prefix : layer) {
      const int horizon = prefix.horizon();
      const std::string where = "min " + std::to_string(config.min_trials) +
                                " max " + std::to_string(config.max_trials) +
                                " ci " + std::to_string(config.ci_half_width) +
                                " prefix (" + std::to_string(prefix.trials()) +
                                ", " + std::to_string(prefix.successes()) + ")";
      ASSERT_GT(horizon, prefix.trials()) << where;
      bool stops_at_horizon = false;
      std::vector<campaign::CellController> frontier = {prefix};
      for (int n = prefix.trials() + 1; n <= horizon; ++n) {
        std::vector<campaign::CellController> live;
        for (const campaign::CellController& f : frontier) {
          for (const bool success : {false, true}) {
            campaign::CellController c = f;
            c.Record(success);
            if (!c.done()) {
              add_unique(&live, c);
            } else if (n < horizon) {
              ADD_FAILURE() << where << " stops at " << n << " before horizon "
                            << horizon;
              return;
            } else {
              stops_at_horizon = true;
            }
          }
        }
        frontier = std::move(live);
      }
      EXPECT_TRUE(stops_at_horizon) << where << " horizon " << horizon;
      for (const bool success : {false, true}) {
        campaign::CellController c = prefix;
        c.Record(success);
        if (c.done()) continue;
        EXPECT_GE(c.horizon(), horizon) << where << ": the horizon shrank";
        add_unique(&next, c);
      }
    }
    layer = std::move(next);
  }
}

TEST(CellController, HorizonIsExact) {
  for (const int min_trials : {1, 4, 9}) {
    for (const int max_trials : {9, 12, 40}) {
      for (const double ci : {0.0, 0.08, 0.15, 0.2, 0.3, 0.6}) {
        campaign::AdaptiveConfig config;
        config.min_trials = min_trials;
        config.max_trials = max_trials;
        config.ci_half_width = ci;
        ExpectHorizonExact(config);
      }
    }
  }
}

// ---- the runner: determinism contract ---------------------------------------

// A cheap deterministic stand-in for a real kernel: outcome is a pure
// function of (seed, fault_rate), success probability falling with rate.
harness::TrialFn SyntheticTrial() {
  return [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    harness::TrialOutcome out;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    out.success = u > env.fault_rate * 1.6;
    out.metric = u;
    out.fpu_stats.faulty_flops = 100 + (h % 41);
    out.fpu_stats.faults_injected = h % 5;
    return out;
  };
}

campaign::CampaignSpec SyntheticSpec() {
  campaign::CampaignSpec spec;
  spec.name = "synthetic";
  spec.app = "synthetic";
  spec.fault_rates = {0.0, 0.3, 0.62};
  spec.fixed_trials = 30;
  spec.max_trials = 30;
  spec.min_trials = 4;
  spec.batch = 8;
  spec.ci_half_width = 0.2;
  spec.base_seed = 977;
  return spec;
}

campaign::Scenario SyntheticScenario() {
  campaign::Scenario scenario;
  scenario.app = "synthetic";
  scenario.title = "synthetic";
  scenario.value = harness::TableValue::kSuccessRatePct;
  scenario.value_label = "success rate (%)";
  scenario.csv_name = "synthetic.csv";
  scenario.series = {{"A", SyntheticTrial()}, {"B", SyntheticTrial()}};
  return scenario;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string CampaignCsvBytes(const campaign::CampaignResult& result,
                             const std::string& tag) {
  return testutil::CsvBytes(result.series, "campaign_" + tag);
}

// The adaptive run of a cell is an exact prefix of the fixed run: same
// seeds, same outcomes, stopped at the deterministic point.
TEST(Campaign, AdaptiveCellsArePrefixesOfTheFixedSweep) {
  const campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();

  campaign::RunnerOptions fixed;
  fixed.threads = 1;
  fixed.adaptive = false;
  const campaign::CampaignResult full =
      campaign::RunCampaign(spec, scenario, fixed);

  campaign::RunnerOptions adaptive;
  adaptive.threads = 1;
  const campaign::CampaignResult adaptive_result =
      campaign::RunCampaign(spec, scenario, adaptive);

  ASSERT_EQ(adaptive_result.series.size(), full.series.size());
  for (std::size_t s = 0; s < full.series.size(); ++s) {
    for (std::size_t r = 0; r < full.series[s].points.size(); ++r) {
      const harness::TrialSummary& a = adaptive_result.series[s].points[r].summary;
      const harness::TrialSummary& f = full.series[s].points[r].summary;
      ASSERT_LE(a.trials, f.trials);
      // Re-run the prefix directly to confirm outcome-level identity.
      std::vector<harness::TrialOutcome> prefix;
      core::FaultEnvironment env;
      env.fault_rate = spec.fault_rates[r];
      env.seed = spec.base_seed;
      for (int t = 0; t < a.trials; ++t) {
        prefix.push_back(harness::RunSingleTrial(scenario.series[s].fn, env, t));
      }
      const harness::TrialSummary expect = harness::SummarizeOutcomes(prefix);
      EXPECT_EQ(a.successes, expect.successes);
      EXPECT_EQ(a.median_metric, expect.median_metric);
      EXPECT_EQ(a.mean_metric, expect.mean_metric);
      EXPECT_EQ(a.mean_faulty_flops, expect.mean_faulty_flops);
    }
  }
  EXPECT_LT(adaptive_result.total_trials, full.total_trials);
}

TEST(Campaign, CsvByteIdenticalAcrossThreadsAndBatches) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();

  campaign::RunnerOptions options;
  options.threads = 1;
  spec.batch = 8;
  const std::string reference =
      CampaignCsvBytes(campaign::RunCampaign(spec, scenario, options), "ref");
  EXPECT_FALSE(reference.empty());

  for (const int threads : {2, 8}) {
    for (const int batch : {1, 3, 32}) {
      options.threads = threads;
      spec.batch = batch;
      const std::string got = CampaignCsvBytes(
          campaign::RunCampaign(spec, scenario, options),
          "t" + std::to_string(threads) + "b" + std::to_string(batch));
      EXPECT_EQ(got, reference) << threads << " threads, batch " << batch;
    }
  }
}

// ---- the runner: kill/resume contract ---------------------------------------

// Simulates a kill by truncating the journal to a prefix (including a torn
// final line) and resuming: the final CSV must be byte-identical to the
// uninterrupted run's.
TEST(Campaign, ResumeFromTruncatedJournalIsByteIdentical) {
  const campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();
  const std::string journal = ::testing::TempDir() + "/robustify_resume.journal";

  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = journal;
  const std::string uninterrupted =
      CampaignCsvBytes(campaign::RunCampaign(spec, scenario, options), "full");

  // Read the completed journal once; replay increasingly short prefixes.
  std::ifstream in(journal);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 20u);

  for (const std::size_t keep : {lines.size() / 4, lines.size() / 2, 1ul}) {
    {
      std::ofstream out(journal, std::ios::trunc);
      for (std::size_t i = 0; i < keep; ++i) out << lines[i] << "\n";
      out << "t 1 2 9 1 0x1.8p+1 12";  // torn mid-write: no trailing fields
    }
    campaign::RunnerOptions resume = options;
    resume.resume = true;
    const campaign::CampaignResult result =
        campaign::RunCampaign(spec, scenario, resume);
    EXPECT_EQ(CampaignCsvBytes(result, "resume" + std::to_string(keep)),
              uninterrupted)
        << "resumed from " << keep << " journal lines";
    if (keep > 1) {
      EXPECT_GT(result.resumed_trials, 0);
    }
  }
  std::remove(journal.c_str());
}

TEST(Campaign, ResumeRejectsMismatchedSpec) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario scenario = SyntheticScenario();
  const std::string journal = ::testing::TempDir() + "/robustify_mismatch.journal";

  campaign::RunnerOptions options;
  options.threads = 1;
  options.journal_path = journal;
  campaign::RunCampaign(spec, scenario, options);

  spec.fault_rates.push_back(0.9);  // different axis, same journal
  options.resume = true;
  EXPECT_THROW(campaign::RunCampaign(spec, scenario, options), std::runtime_error);

  options.journal_path = ::testing::TempDir() + "/robustify_absent.journal";
  EXPECT_THROW(campaign::RunCampaign(spec, scenario, options), std::runtime_error);
  std::remove(journal.c_str());
}

// ---- the trial scheduler ------------------------------------------------------

// Every cell's records in the journal must list trials 0, 1, 2, ... in
// file order; returns the per-cell record counts, by grid index.
std::vector<int> JournalCellCounts(const std::string& journal, int rate_count,
                                   int cell_count) {
  std::vector<int> next(static_cast<std::size_t>(cell_count), 0);
  for (const campaign::TrialRecord& r : campaign::CampaignJournal::Load(journal).records) {
    const std::size_t cell = static_cast<std::size_t>(r.series * rate_count + r.rate);
    EXPECT_EQ(r.trial, next[cell]) << "cell " << cell << " journaled out of order";
    next[cell] = r.trial + 1;
  }
  return next;
}

// Wraps every series' TrialFn so the test sees how many trials actually
// ran — the scheduler must never run one the stopping rule discards.
campaign::Scenario CountingScenario(const campaign::Scenario& base,
                                    std::shared_ptr<std::atomic<long>> calls) {
  campaign::Scenario scenario = base;
  for (harness::NamedTrial& series : scenario.series) {
    series.fn = [fn = series.fn, calls](const core::FaultEnvironment& env) {
      calls->fetch_add(1);
      return fn(env);
    };
  }
  return scenario;
}

TEST(CampaignScheduler, ScheduleInvariantWithZeroSpeculation) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario base = SyntheticScenario();
  const std::string journal = ::testing::TempDir() + "/robustify_sched.journal";
  for (const bool adaptive : {true, false}) {
    for (const int shard : {0, 1}) {
      spec.shard_index = shard;
      spec.shard_count = shard + 1;  // 0/1 (every cell), 1/2 (odd cells)
      std::string reference;
      for (const int threads : {1, 2, 3, 4, 8}) {
        for (const int batch : {1, 8}) {
          const std::string where = std::string(adaptive ? "adaptive" : "fixed") +
                                    " shard " + std::to_string(shard) + " threads " +
                                    std::to_string(threads) + " batch " +
                                    std::to_string(batch);
          spec.batch = batch;
          auto calls = std::make_shared<std::atomic<long>>(0);
          const campaign::Scenario scenario = CountingScenario(base, calls);
          campaign::RunnerOptions options;
          options.threads = threads;
          options.adaptive = adaptive;
          options.journal_path = journal;
          const std::uint64_t flushes_before =
              telemetry::SnapshotCounters().value(telemetry::Counter::kCheckpointFlushes);
          const campaign::CampaignResult result =
              campaign::RunCampaign(spec, scenario, options);
          EXPECT_EQ(calls->load(), result.total_trials) << where;
          // Journal appends come in whole batches per cell, so their count
          // is schedule independent too: ceil(trials / batch) per cell.
          if (telemetry::CountersEnabled()) {
            std::uint64_t appends = 0;
            for (const auto& row : result.cells) {
              for (const campaign::CellStats& cell : row) {
                appends += static_cast<std::uint64_t>((cell.trials + batch - 1) / batch);
              }
            }
            EXPECT_EQ(telemetry::SnapshotCounters().value(
                          telemetry::Counter::kCheckpointFlushes) -
                          flushes_before,
                      appends)
                << where;
          }

          const std::string csv = CampaignCsvBytes(result, "sched");
          const campaign::CampaignResult reduced = campaign::ReduceRecords(
              spec, scenario, campaign::CampaignJournal::Load(journal).records,
              adaptive);
          EXPECT_EQ(CampaignCsvBytes(reduced, "sched_reduced"), csv) << where;
          JournalCellCounts(journal, static_cast<int>(spec.fault_rates.size()),
                            result.cell_count);
          if (reference.empty()) reference = csv;
          EXPECT_EQ(csv, reference) << where;
        }
      }
    }
  }
  std::remove(journal.c_str());
}

// Trial k of every cell sleeps (K - k) ms and two cells share four
// workers, so each cell has trials in flight together and the later ones
// finish first.  Commits still go in trial order: the journal lists each
// cell's trials by index, and a SIGKILL-style truncated journal resumes to
// the uninterrupted CSV bytes.
TEST(CampaignScheduler, OutOfOrderCompletionJournalsInTrialOrder) {
  campaign::CampaignSpec spec = SyntheticSpec();
  spec.fault_rates = {0.0, 0.3};
  spec.fixed_trials = 10;
  spec.max_trials = 10;
  constexpr int kSlowest = 12;
  campaign::Scenario scenario = SyntheticScenario();
  scenario.series.resize(1);
  for (harness::NamedTrial& series : scenario.series) {
    series.fn = [fn = series.fn, base = spec.base_seed](const core::FaultEnvironment& env) {
      const int k = static_cast<int>(env.seed - base);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSlowest - k));
      return fn(env);
    };
  }
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const std::string journal = ::testing::TempDir() + "/robustify_order.journal";
  for (const bool adaptive : {false, true}) {
    for (const int batch : {1, 8}) {
      spec.batch = batch;
      campaign::RunnerOptions options;
      options.threads = 4;
      options.adaptive = adaptive;
      options.journal_path = journal;
      const campaign::CampaignResult result = campaign::RunCampaign(spec, scenario, options);
      const std::string uninterrupted = CampaignCsvBytes(result, "order_full");
      const std::vector<int> counts =
          JournalCellCounts(journal, rate_count, result.cell_count);
      for (int cell = 0; cell < result.cell_count; ++cell) {
        EXPECT_EQ(counts[static_cast<std::size_t>(cell)],
                  result.cells[static_cast<std::size_t>(cell / rate_count)]
                              [static_cast<std::size_t>(cell % rate_count)].trials);
      }

      const std::string full = ReadFile(journal);
      for (const std::size_t keep : {full.size() / 3, full.size() / 2, full.size() - 5}) {
        {
          std::ofstream out(journal, std::ios::binary | std::ios::trunc);
          out << full.substr(0, keep);  // cut anywhere, torn line included
        }
        campaign::RunnerOptions resume = options;
        resume.resume = true;
        EXPECT_EQ(CampaignCsvBytes(campaign::RunCampaign(spec, scenario, resume),
                                   "order_resume"),
                  uninterrupted)
            << (adaptive ? "adaptive" : "fixed") << ", batch " << batch << ", kept "
            << keep << " bytes";
      }
    }
  }
  std::remove(journal.c_str());
}

// A trial that throws under four workers makes RunCampaign rethrow (no
// worker is left parked), and the journal holds only committed prefixes:
// each cell's records are trials 0..n-1, identical to the uninterrupted
// run's, and the failing cell stops short of the failing trial.
TEST(CampaignScheduler, TrialFailureRethrowsWithCommittedPrefixes) {
  campaign::CampaignSpec spec = SyntheticSpec();
  const campaign::Scenario good = SyntheticScenario();
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const std::string reference_journal = ::testing::TempDir() + "/robustify_fail_ref.journal";
  const std::string journal = ::testing::TempDir() + "/robustify_fail.journal";
  constexpr int kFailSeries = 1, kFailRate = 1, kFailTrial = 5;

  campaign::RunnerOptions options;
  options.threads = 4;
  options.adaptive = false;
  options.journal_path = reference_journal;
  const std::string uninterrupted =
      CampaignCsvBytes(campaign::RunCampaign(spec, good, options), "fail_ref");
  const std::vector<campaign::TrialRecord> reference =
      campaign::CampaignJournal::Load(reference_journal).records;

  campaign::Scenario failing = good;
  failing.series[kFailSeries].fn = [fn = good.series[kFailSeries].fn, &spec](
                                       const core::FaultEnvironment& env) {
    if (env.fault_rate == spec.fault_rates[kFailRate] &&
        env.seed == spec.base_seed + kFailTrial) {
      throw std::runtime_error("injected trial failure");
    }
    return fn(env);
  };
  options.journal_path = journal;
  EXPECT_THROW(campaign::RunCampaign(spec, failing, options), std::runtime_error);

  const std::vector<int> counts = JournalCellCounts(
      journal, rate_count, static_cast<int>(good.series.size()) * rate_count);
  EXPECT_LE(counts[kFailSeries * rate_count + kFailRate], kFailTrial);
  for (const campaign::TrialRecord& r : campaign::CampaignJournal::Load(journal).records) {
    bool found = false;
    for (const campaign::TrialRecord& want : reference) {
      if (want.series != r.series || want.rate != r.rate || want.trial != r.trial) continue;
      found = true;
      EXPECT_EQ(r.success, want.success);
      EXPECT_EQ(r.metric, want.metric);
      EXPECT_EQ(r.faulty_flops, want.faulty_flops);
    }
    EXPECT_TRUE(found) << "trial " << r.trial << " is not in the reference run";
  }

  // The committed prefixes resume to the uninterrupted bytes.
  options.resume = true;
  EXPECT_EQ(CampaignCsvBytes(campaign::RunCampaign(spec, good, options), "fail_resume"),
            uninterrupted);
  std::remove(reference_journal.c_str());
  std::remove(journal.c_str());
}

// ---- golden comparison on the real figures ----------------------------------
//
// Acceptance contract: an adaptive campaign reproduces the fixed-budget
// success rate of every cell within the statistical tolerance of the two
// estimates (their Wilson half-widths; the adaptive tallies are an exact
// prefix of the fixed ones, so this is the whole discrepancy bound).  Axes
// and series are reduced to keep the suite fast; the full-axis version of
// the same comparison is what the committed perf JSONs measure.

void GoldenCompare(const std::string& fig, std::vector<double> rates,
                   std::vector<std::string> series, int budget, double ci) {
  campaign::CampaignSpec spec = campaign::RegistrySpec(fig);
  spec.fault_rates = std::move(rates);
  spec.series = std::move(series);
  spec.fixed_trials = budget;
  spec.max_trials = budget;
  spec.ci_half_width = ci;
  const campaign::Scenario scenario = campaign::BuildScenario(spec);

  campaign::RunnerOptions fixed;
  fixed.adaptive = false;
  const campaign::CampaignResult full = campaign::RunCampaign(spec, scenario, fixed);

  campaign::RunnerOptions adaptive;
  const campaign::CampaignResult adapt = campaign::RunCampaign(spec, scenario, adaptive);

  for (std::size_t s = 0; s < full.series.size(); ++s) {
    for (std::size_t r = 0; r < full.series[s].points.size(); ++r) {
      const harness::TrialSummary& f = full.series[s].points[r].summary;
      const harness::TrialSummary& a = adapt.series[s].points[r].summary;
      const double tolerance =
          campaign::WilsonHalfWidth(a.successes, a.trials) +
          campaign::WilsonHalfWidth(f.successes, f.trials);
      EXPECT_LE(std::abs(a.success_rate_pct - f.success_rate_pct) / 100.0,
                tolerance)
          << fig << " series " << full.series[s].name << " rate "
          << full.series[s].points[r].fault_rate << ": adaptive "
          << a.success_rate_pct << "% over " << a.trials << " trials vs fixed "
          << f.success_rate_pct << "% over " << f.trials;
    }
  }
  EXPECT_LE(adapt.total_trials, full.total_trials);
}

TEST(CampaignGolden, Fig61AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_1", {0.0, 0.05, 0.3}, {"Base", "SGD+AS,SQS"}, 16, 0.2);
}

TEST(CampaignGolden, Fig62AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_2", {0.0, 1e-3, 0.05}, {}, 16, 0.2);
}

TEST(CampaignGolden, Fig66AdaptiveMatchesFixedWithinCi) {
  GoldenCompare("fig6_6", {0.0, 1e-3, 1e-1}, {}, 16, 0.2);
}

}  // namespace
