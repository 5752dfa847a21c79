// Flight-recorder telemetry: the observe-only contract and the registry.
//
// The load-bearing guarantees:
//   * fixed-grid and adaptive campaign CSVs are byte-identical with counters
//     disabled, enabled, and with full tracing on, at any thread count —
//     telemetry never consumes simulation RNG or reorders a fault stream;
//   * counter totals are a pure function of the work performed, so they are
//     thread-count independent (shards merge losslessly across the pool
//     workers' exits);
//   * the injector counters agree exactly with the ContextStats that feed
//     the published CSVs;
//   * WriteTrace emits well-formed Chrome trace JSON (balanced B/E pairs —
//     tools/trace_validate.py enforces the same invariants in CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/least_squares.h"
#include "apps/sort_app.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"
#include "harness/parallel.h"
#include "linalg/scalar.h"
#include "linalg/tiled.h"
#include "service/query_service.h"
#include "store/result_store.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;
using testutil::CsvBytes;

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

// Small fixed grid: real sort trials at rate 0 and at a heavy rate.
std::string SweepCsvBytes(int threads, const std::string& tag) {
  return CsvBytes(testutil::RunFixedGrid(testutil::FixedSpec({0.0, 0.05}, 4, 77),
                                         {{"SGD+AS,SQS", SortTrial()}}, threads),
                  "telemetry_" + tag);
}

// Small adaptive campaign (the cli-smoke shape): fig6_6 on a reduced axis.
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
  return CsvBytes(result.series, "telemetry_" + tag);
}

// Telemetry must be observe-only: identical CSV bytes with counters off,
// counters on, and full span tracing, across thread counts.
TEST(Telemetry, SweepCsvInvariantUnderTelemetryStateAndThreads) {
  telemetry::SetCountersEnabled(false);
  const std::string off_t1 = SweepCsvBytes(1, "off_t1");
  telemetry::SetCountersEnabled(true);
  const std::string on_t1 = SweepCsvBytes(1, "on_t1");
  const std::string on_t2 = SweepCsvBytes(2, "on_t2");
  const std::string on_t8 = SweepCsvBytes(8, "on_t8");
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::StartTracing();
  const std::string traced_t8 = SweepCsvBytes(8, "traced_t8");
  telemetry::StopTracing();
  EXPECT_EQ(off_t1, traced_t8);
#endif
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t2);
  EXPECT_EQ(off_t1, on_t8);
}

TEST(Telemetry, CampaignCsvInvariantUnderTelemetryStateAndThreads) {
  telemetry::SetCountersEnabled(false);
  const std::string off_t1 = CampaignCsvBytes(1, "c_off_t1");
  telemetry::SetCountersEnabled(true);
  const std::string on_t1 = CampaignCsvBytes(1, "c_on_t1");
  const std::string on_t8 = CampaignCsvBytes(8, "c_on_t8");
#if ROBUSTIFY_TELEMETRY_ENABLED
  telemetry::StartTracing();
  const std::string traced_t8 = CampaignCsvBytes(8, "c_traced_t8");
  telemetry::StopTracing();
  EXPECT_EQ(off_t1, traced_t8);
#endif
  EXPECT_FALSE(off_t1.empty());
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, on_t8);
}

#if ROBUSTIFY_TELEMETRY_ENABLED

// Counter totals must not depend on how the grid was fanned out: the
// per-thread shards (including those of exited pool workers) merge to the
// same totals for 1 and 8 threads.
TEST(Telemetry, CounterTotalsThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  SweepCsvBytes(1, "inv_t1");
  const telemetry::CounterSnapshot one = telemetry::SnapshotCounters();

  telemetry::ResetCounters();
  SweepCsvBytes(8, "inv_t8");
  const telemetry::CounterSnapshot eight = telemetry::SnapshotCounters();

  EXPECT_GT(one.value(telemetry::Counter::kInjectorScopes), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorFlops), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kSgdSolves), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
  for (int h = 0; h < telemetry::kNumHistograms; ++h) {
    for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
      EXPECT_EQ(one.histograms[h][b], eight.histograms[h][b])
          << telemetry::HistogramName(static_cast<telemetry::Histogram>(h))
          << " bucket " << b;
    }
  }
}

// The fault-model and guard counters (faults by op class, windows opened,
// guard-trip verdicts) obey the same shard-merge contract as the rest: a
// sticky-model grid under tight guard budgets produces identical totals at
// every thread count, and actually exercises each new counter.
TEST(Telemetry, ModelAndGuardCountersThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  const auto run = [](int threads) {
    campaign::CampaignSpec spec = testutil::FixedSpec({0.05, 0.25}, 8, 77);
    spec.model.temporal = faulty::Temporal::kStuckAt;
    spec.guard.max_iterations = 5;  // trips long before SGD converges
    spec.guard.nonfinite_bailout = true;
    telemetry::ResetCounters();
    testutil::RunFixedGrid(spec, {{"SGD+AS,SQS", SortTrial()}}, threads);
    return telemetry::SnapshotCounters();
  };
  const telemetry::CounterSnapshot one = run(1);
  const telemetry::CounterSnapshot eight = run(8);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorFaultsArith), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kInjectorWindows), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kTrialsBudgetExhausted), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
}

// The injector counters are fed from the same ContextStats that the CSVs
// publish — they must agree exactly.
TEST(Telemetry, InjectorCountersMatchContextStats) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  core::FaultEnvironment env;
  env.fault_rate = 0.01;
  env.seed = 123;
  // The closing histogram assertion is a law of the skip-ahead transient
  // path specifically (the per-op oracle draws no gaps to observe, and a
  // sticky window counts many forced faults per sampled gap), so pin both
  // against the ROBUSTIFY_INJECTOR / ROBUSTIFY_FAULT_MODEL CI legs.
  env.strategy = faulty::FaultInjector::Strategy::kSkipAhead;
  env.model.temporal = faulty::Temporal::kTransient;
  faulty::ContextStats stats;
  core::WithFaultyFpu(
      env,
      [] {
        faulty::Real acc(0.0);
        for (int i = 0; i < 50000; ++i) acc = acc + faulty::Real(1.0);
        return linalg::AsDouble(acc);
      },
      &stats);
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  EXPECT_EQ(snap.value(telemetry::Counter::kInjectorScopes), 1u);
  EXPECT_EQ(snap.value(telemetry::Counter::kInjectorFlops), stats.faulty_flops);
  EXPECT_EQ(snap.value(telemetry::Counter::kInjectorFaults), stats.faults_injected);
  EXPECT_GT(stats.faults_injected, 0u);
  // Every sampled gap lands one clean-run observation; rate-0/rate-1 paths
  // aside, faults and gap observations track each other 1:1 here.
  EXPECT_EQ(snap.histogram_total(telemetry::Histogram::kInjectorCleanRun),
            stats.faults_injected);
}

// Gap-draw counters and clean-run buckets, rebuilt by replaying the
// default transient stream outside the injector.
struct GapReplay {
  std::uint64_t table_draws = 0;
  std::uint64_t inv_cdf_draws = 0;
  std::uint64_t clean_run[telemetry::kHistogramBuckets] = {};

  // One skip-ahead injector scope at `rate` whose `faults` all landed on
  // arithmetic ops: the initial gap, then per fault the next gap (one
  // clean-run observation) and the flipped bit's word.
  void Scope(double rate, std::uint64_t seed, std::uint64_t faults) {
    const faulty::GeometricGapSampler& gaps = faulty::GeometricGapSampler::Shared(rate);
    const faulty::BitDistribution& bits = faulty::SharedBitDistribution(faulty::BitModel::kBimodal);
    faulty::Lfsr rng(seed ^ faulty::FaultInjector::kSeedSalt);
    std::uint64_t& draws = gaps.uses_table() ? table_draws : inv_cdf_draws;
    gaps.Sample(rng);
    ++draws;
    for (std::uint64_t f = 0; f < faults; ++f) {
      ++clean_run[telemetry::Log2Bucket(gaps.Sample(rng))];
      ++draws;
      bits.sample(rng);
    }
  }
};

core::FaultEnvironment PinnedSplitEnv(double rate, std::uint64_t seed) {
  core::FaultEnvironment env;
  env.fault_rate = rate;
  env.seed = seed;
  // Pin the default stream against the ROBUSTIFY_INJECTOR / _RNG /
  // _FAULT_MODEL CI legs: the replay is of the split skip-ahead path.
  env.strategy = faulty::FaultInjector::Strategy::kSkipAhead;
  env.rng = faulty::RngMode::kSplit;
  env.model.temporal = faulty::Temporal::kTransient;
  return env;
}

double AddChain(int ops) {
  faulty::Real acc(0.0);
  for (int i = 0; i < ops; ++i) acc = acc + faulty::Real(1.0);
  return linalg::AsDouble(acc);
}

// The injector tallies gap draws and clean runs in its own members and
// folds them into the thread's shard once, when it is destroyed.  The
// folded totals must equal a replay of the same gaps drawn outside the
// injector, bucket for bucket — for the alias-table and inverse-CDF forms,
// across a nested scope, and for the tiled engine's per-task injectors on
// four workers.
TEST(Telemetry, GapCountersAndCleanRunsMatchReplay) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  GapReplay replay;
  faulty::ContextStats stats;

  core::WithFaultyFpu(PinnedSplitEnv(0.2, 11), [] { return AddChain(20000); }, &stats);
  replay.Scope(0.2, 11, stats.faults_injected);
  core::WithFaultyFpu(PinnedSplitEnv(1e-3, 12), [] { return AddChain(200000); }, &stats);
  replay.Scope(1e-3, 12, stats.faults_injected);

  faulty::ContextStats inner;
  core::WithFaultyFpu(
      PinnedSplitEnv(0.2, 13),
      [&] {
        AddChain(5000);
        core::WithFaultyFpu(PinnedSplitEnv(1e-3, 14), [] { return AddChain(100000); },
                            &inner);
        return AddChain(5000);
      },
      &stats);
  replay.Scope(0.2, 13, stats.faults_injected);
  replay.Scope(1e-3, 14, inner.faults_injected);

  // Rate 0.02 runs the alias table and the block engine's bulk clean runs.
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(96, 48, 7);
  linalg::TiledOptions options;
  options.tile = 16;
  options.threads = 4;
  options.fault.inject = true;
  options.fault.fault_rate = 0.02;
  options.fault.bits = &faulty::SharedBitDistribution(faulty::BitModel::kBimodal);
  options.fault.seed = 15;
  options.fault.strategy = faulty::FaultInjector::Strategy::kSkipAhead;
  options.fault.rng = faulty::RngMode::kSplit;
  options.fault.model.temporal = faulty::Temporal::kTransient;
  linalg::TiledLsqEngine<faulty::Real> engine;
  linalg::Vector<double> x;
  engine.SolveCholesky(problem.a, problem.b, options, &x);
  const std::vector<faulty::ContextStats>& tasks = engine.task_stats();
  ASSERT_FALSE(tasks.empty());
  std::uint64_t tiled_faults = 0;
  for (std::size_t id = 0; id < tasks.size(); ++id) {
    ASSERT_EQ(tasks[id].faults_compare, 0u);  // replay assumes arithmetic faults
    tiled_faults += tasks[id].faults_injected;
    replay.Scope(0.02, faulty::DeriveStreamSeed(15, id), tasks[id].faults_injected);
  }
  EXPECT_GT(tiled_faults, 0u);

  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  EXPECT_GT(replay.table_draws, 0u);
  EXPECT_GT(replay.inv_cdf_draws, 0u);
  EXPECT_EQ(snap.value(telemetry::Counter::kGapDrawsTable), replay.table_draws);
  EXPECT_EQ(snap.value(telemetry::Counter::kGapDrawsInvCdf), replay.inv_cdf_draws);
  EXPECT_EQ(snap.value(telemetry::Counter::kGapDrawsFused), 0u);
  const int hist = static_cast<int>(telemetry::Histogram::kInjectorCleanRun);
  for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
    EXPECT_EQ(snap.histograms[hist][b], replay.clean_run[b]) << "bucket " << b;
  }

  // Counters off: the same scopes record nothing.
  telemetry::ResetCounters();
  telemetry::SetCountersEnabled(false);
  core::WithFaultyFpu(PinnedSplitEnv(0.2, 11), [] { return AddChain(20000); });
  engine.SolveCholesky(problem.a, problem.b, options, &x);
  telemetry::SetCountersEnabled(true);
  const telemetry::CounterSnapshot off = telemetry::SnapshotCounters();
  for (int c = 0; c < telemetry::kNumCounters; ++c) EXPECT_EQ(off.counters[c], 0u) << c;
  for (int b = 0; b < telemetry::kHistogramBuckets; ++b) {
    EXPECT_EQ(off.histograms[hist][b], 0u) << "bucket " << b;
  }
}

TEST(Telemetry, HistogramBucketsAreLog2) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  const auto h = telemetry::Histogram::kCampaignTrialsToStop;
  telemetry::Observe(h, 0);    // bucket 0
  telemetry::Observe(h, 1);    // bucket 1: [1, 2)
  telemetry::Observe(h, 2);    // bucket 2: [2, 4)
  telemetry::Observe(h, 3);    // bucket 2
  telemetry::Observe(h, 4);    // bucket 3: [4, 8)
  telemetry::Observe(h, 255);  // bucket 8: [128, 256)
  telemetry::Observe(h, 256);  // bucket 9: [256, 512)
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  const int hi = static_cast<int>(h);
  EXPECT_EQ(snap.histograms[hi][0], 1u);
  EXPECT_EQ(snap.histograms[hi][1], 1u);
  EXPECT_EQ(snap.histograms[hi][2], 2u);
  EXPECT_EQ(snap.histograms[hi][3], 1u);
  EXPECT_EQ(snap.histograms[hi][8], 1u);
  EXPECT_EQ(snap.histograms[hi][9], 1u);
  EXPECT_EQ(snap.histogram_total(h), 7u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(0), 0u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(1), 1u);
  EXPECT_EQ(telemetry::HistogramBucketLowerBound(9), 256u);
}

// Shards of exited threads fold into the retired totals: counts made on
// short-lived pool workers must survive the workers.
TEST(Telemetry, RegistryMergesRetiredWorkerShards) {
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  constexpr int kUnits = 64;
  harness::ParallelFor(kUnits, 4, [](int) {
    telemetry::Count(telemetry::Counter::kCampaignTrials, 3);
  });
  // The pool is created and joined inside ParallelFor, so every worker
  // shard has retired by now.
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  EXPECT_EQ(snap.value(telemetry::Counter::kCampaignTrials),
            static_cast<std::uint64_t>(kUnits) * 3u);
}

// The result-store counters obey the same contracts as the rest: every one
// of store.{hits,misses,fresh_trials,ingested_cells} fires on the
// run → ingest → query pipeline, and the totals are identical whether the
// store-filling campaign ran on 1 worker or 8 (fresh query trials are
// serial on the calling thread; the campaign is the only fanned-out stage).
TEST(Telemetry, StoreCountersNonzeroAndThreadCountInvariant) {
  telemetry::SetCountersEnabled(true);
  const auto trial = [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
    harness::TrialOutcome out;
    out.success = static_cast<double>(h >> 11) * 0x1.0p-53 > env.fault_rate;
    out.metric = 0.0;
    return out;
  };
  const auto run = [&](int threads) {
    const std::string base = ::testing::TempDir() + "/robustify_store_counters_t" +
                             std::to_string(threads);
    std::filesystem::remove_all(base);
    campaign::CampaignSpec spec;
    spec.name = spec.app = "store_counters";
    spec.fault_rates = {0.2, 0.45, 0.7};
    spec.min_trials = 4;
    spec.max_trials = 12;
    spec.ci_half_width = 0.3;
    spec.base_seed = 4242;
    campaign::Scenario scenario;
    scenario.app = "store_counters";
    scenario.series = {{"A", trial}, {"B", trial}};

    telemetry::ResetCounters();
    campaign::RunnerOptions options;
    options.threads = threads;
    options.journal_path = base + ".journal";
    campaign::RunCampaign(spec, scenario, options);

    store::ResultStore result_store(base + ".store");
    result_store.IngestJournal(spec, base + ".journal");

    service::QueryService service_engine(&result_store);
    service_engine.RegisterSpec(spec, scenario);
    service::Query query;
    query.app = "store_counters";
    query.series = "A";
    query.rate = 0.45;
    query.ci = 0.4;  // looser than stored — a hit
    EXPECT_EQ(service_engine.Handle(query).source, "cache");
    query.ci = 0.18;  // tighter than stored — miss, fresh trials, write-back
    const service::Answer fresh = service_engine.Handle(query);
    EXPECT_EQ(fresh.source, "fresh-trials");
    EXPECT_GT(fresh.fresh_trials, 0);
    // Repeat at the same ci: served from the extended cell, zero trials.
    const service::Answer repeat = service_engine.Handle(query);
    EXPECT_EQ(repeat.source, "cache");
    EXPECT_EQ(repeat.fresh_trials, 0);
    EXPECT_EQ(repeat.success_rate, fresh.success_rate);
    EXPECT_EQ(repeat.half_width, fresh.half_width);

    const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
    std::filesystem::remove_all(base + ".store");
    std::filesystem::remove((base + ".journal").c_str());
    return snap;
  };

  const telemetry::CounterSnapshot one = run(1);
  const telemetry::CounterSnapshot eight = run(8);
  EXPECT_GT(one.value(telemetry::Counter::kStoreHits), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreMisses), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreFreshTrials), 0u);
  EXPECT_GT(one.value(telemetry::Counter::kStoreIngestedCells), 0u);
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(one.counters[c], eight.counters[c])
        << "counter " << telemetry::CounterName(static_cast<telemetry::Counter>(c));
  }
}

TEST(Telemetry, WriteTraceEmitsBalancedChromeJson) {
  telemetry::SetCountersEnabled(true);
  telemetry::StartTracing();
  SweepCsvBytes(2, "trace");
  {
    // One query against an empty store: Handle() opens the `query` span on
    // every path, so even this error answer must appear in the trace.
    store::ResultStore result_store(::testing::TempDir() +
                                    "/robustify_trace_store");
    service::QueryService service_engine(&result_store);
    service::Query query;
    query.app = "no_such_app";
    query.series = "A";
    query.rate = 0.1;
    EXPECT_FALSE(service_engine.Handle(query).ok);
  }
  const std::string path = ::testing::TempDir() + "/robustify_trace_test.json";
  ASSERT_TRUE(telemetry::WriteTrace(path));
  EXPECT_FALSE(telemetry::TracingActive());  // the writer stops collection

  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = buffer.str();
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"trial\""), std::string::npos);
  EXPECT_NE(json.find("\"solve.sgd\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);

  // Balanced B/E pairs: the writer's repair pass guarantees it even when a
  // ring overwrote its oldest events.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\": \"B\"", pos)) != std::string::npos) {
    ++begins;
    pos += 1;
  }
  pos = 0;
  while ((pos = json.find("\"ph\": \"E\"", pos)) != std::string::npos) {
    ++ends;
    pos += 1;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

#else  // telemetry compiled out: the API must still compile and no-op

TEST(Telemetry, CompiledOutApiIsInert) {
  telemetry::Count(telemetry::Counter::kInjectorFaults, 5);
  telemetry::Observe(telemetry::Histogram::kInjectorCleanRun, 42);
  telemetry::SpanScope span("trial");
  EXPECT_FALSE(telemetry::TracingActive());
  EXPECT_FALSE(telemetry::CountersEnabled());
  const telemetry::CounterSnapshot snap = telemetry::SnapshotCounters();
  for (int c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(snap.counters[c], 0u);
  }
}

#endif  // ROBUSTIFY_TELEMETRY_ENABLED

}  // namespace
