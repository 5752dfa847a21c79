// Regression lock for the default fault model (transient single-bit,
// arithmetic + comparison op classes): the fault-model axis added for richer
// models must leave the historical behavior untouched.  These tests compare
// fixed-grid and adaptive campaign CSV bytes, and a digest of the raw
// injector fault stream, against goldens captured from the pre-fault-model
// binaries — under both injector strategies and both kernel engines, across
// thread counts.
//
// Regenerating (only when the default stream is *intentionally* changed):
//   ROBUSTIFY_REGEN_GOLDEN=1 ./robustify_tests --gtest_filter='ModelGolden.*'
// rewrites the files under tests/golden/ in the source tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
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
#include "harness/trial.h"
#include "tests/fixed_grid.h"

#ifndef ROBUSTIFY_SOURCE_DIR
#error "robustify_tests must be compiled with ROBUSTIFY_SOURCE_DIR"
#endif

namespace {

using namespace robustify;
using Strategy = faulty::FaultInjector::Strategy;

bool RegenRequested() { return std::getenv("ROBUSTIFY_REGEN_GOLDEN") != nullptr; }

std::string GoldenPath(const std::string& name) {
  return std::string(ROBUSTIFY_SOURCE_DIR) + "/tests/golden/" + name;
}

// Compares `bytes` against the committed golden, or rewrites the golden in
// regen mode.  The diff failure prints both forms whole — the artifacts are
// small CSVs/digest tables, and the byte that moved is the whole story.
void CheckGolden(const std::string& name, const std::string& bytes) {
  ASSERT_FALSE(bytes.empty()) << name;
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write golden " << path;
    os << bytes;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (regenerate with ROBUSTIFY_REGEN_GOLDEN=1)";
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), bytes) << "default-model output drifted from the "
                                    "pre-fault-model golden " << name;
}

// The real-kernel trial the goldens run: robust sort on a seed-derived
// 4-element input, with the injector strategy and kernel engine pinned so
// every golden is invariant to the ROBUSTIFY_INJECTOR / ROBUSTIFY_ENGINE /
// ROBUSTIFY_RNG / ROBUSTIFY_FAULT_MODEL CI legs.
harness::TrialFn SortTrial(Strategy strategy, faulty::Engine engine) {
  return [strategy, engine](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.strategy = strategy;
    env.engine = engine;
    // Pin the temporal model and RNG layout: these goldens lock the
    // *default* stream and must hold under the ROBUSTIFY_FAULT_MODEL=stuck
    // and ROBUSTIFY_RNG=fused CI legs too (the goldens were generated with
    // the split draw order).
    env.model.temporal = faulty::Temporal::kTransient;
    env.rng = faulty::RngMode::kSplit;
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

// The model_default_sweep_* goldens: a fixed grid, 4 trials per cell.
std::string SweepCsvBytes(Strategy strategy, faulty::Engine engine, int threads) {
  return testutil::CsvBytes(
      testutil::RunFixedGrid(testutil::FixedSpec({0.0, 0.05, 0.25}, 4, 33),
                             {{"SGD+AS,SQS", SortTrial(strategy, engine)}}, threads),
      "model_golden");
}

TEST(ModelGolden, SweepCsvMatchesPreModelBinaries) {
  CheckGolden("model_default_sweep_skip_block.csv",
              SweepCsvBytes(Strategy::kSkipAhead, faulty::Engine::kBlock, 1));
  CheckGolden("model_default_sweep_skip_scalar.csv",
              SweepCsvBytes(Strategy::kSkipAhead, faulty::Engine::kScalar, 1));
  CheckGolden("model_default_sweep_perop_block.csv",
              SweepCsvBytes(Strategy::kPerOp, faulty::Engine::kBlock, 1));
  CheckGolden("model_default_sweep_perop_scalar.csv",
              SweepCsvBytes(Strategy::kPerOp, faulty::Engine::kScalar, 1));
}

TEST(ModelGolden, SweepCsvThreadCountInvariantAgainstGolden) {
  CheckGolden("model_default_sweep_skip_block.csv",
              SweepCsvBytes(Strategy::kSkipAhead, faulty::Engine::kBlock, 2));
  CheckGolden("model_default_sweep_skip_block.csv",
              SweepCsvBytes(Strategy::kSkipAhead, faulty::Engine::kBlock, 8));
}

std::string CampaignCsvBytes(bool adaptive, int threads) {
  campaign::CampaignSpec spec;
  spec.name = "golden_model";
  spec.app = "golden_model";
  spec.fault_rates = {0.0, 0.05, 0.25};
  spec.fixed_trials = 4;
  spec.max_trials = 8;
  spec.min_trials = 4;
  spec.ci_half_width = 0.2;
  spec.base_seed = 33;

  campaign::Scenario scenario;
  scenario.app = spec.app;
  scenario.series.push_back(
      {"SGD+AS,SQS", SortTrial(Strategy::kSkipAhead, faulty::Engine::kBlock)});

  campaign::RunnerOptions options;
  options.threads = threads;
  options.adaptive = adaptive;
  return testutil::CsvBytes(campaign::RunCampaign(spec, scenario, options).series,
                            "model_campaign");
}

TEST(ModelGolden, CampaignCsvMatchesPreModelBinaries) {
  CheckGolden("model_default_campaign_fixed.csv",
              CampaignCsvBytes(/*adaptive=*/false, /*threads=*/1));
  CheckGolden("model_default_campaign_adaptive.csv",
              CampaignCsvBytes(/*adaptive=*/true, /*threads=*/1));
}

TEST(ModelGolden, CampaignCsvThreadCountInvariantAgainstGolden) {
  CheckGolden("model_default_campaign_adaptive.csv",
              CampaignCsvBytes(/*adaptive=*/true, /*threads=*/8));
}

// ---- raw fault-stream digest ------------------------------------------------
//
// The CSVs prove end-to-end stability; this pins the injector's raw output
// stream — every corrupted word and inverted predicate, in order — so a
// drift that happens to cancel out in one app's CSV still trips the lock.

void MixInto(std::uint64_t* hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;  // FNV prime
  }
}

std::uint64_t StreamDigest(double rate, Strategy strategy, faulty::RngMode rng_mode) {
  faulty::FaultInjector injector(
      rate, faulty::SharedBitDistribution(faulty::BitModel::kBimodal),
      /*seed=*/987, strategy, rng_mode);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (int i = 0; i < 20000; ++i) {
    if (i % 7 == 3) {
      // Mixed op stream: comparisons consume the schedule differently from
      // arithmetic (gap-half-only fused draws), so interleave both kinds.
      MixInto(&hash, injector.ExecuteComparison((i & 1) != 0) ? 1 : 0);
    } else {
      const double result = injector.Execute(1.0 + 0.5 * static_cast<double>(i));
      std::uint64_t word;
      std::memcpy(&word, &result, sizeof(word));
      MixInto(&hash, word);
    }
  }
  const faulty::ContextStats stats = injector.stats();
  MixInto(&hash, stats.faulty_flops);
  MixInto(&hash, stats.faults_injected);
  return hash;
}

TEST(ModelGolden, FaultStreamDigestMatchesPreModelBinaries) {
  const double rates[] = {1e-3, 0.05, 0.25};
  struct Combo {
    const char* name;
    Strategy strategy;
    faulty::RngMode rng;
  };
  const Combo combos[] = {
      {"skip/split", Strategy::kSkipAhead, faulty::RngMode::kSplit},
      {"skip/fused", Strategy::kSkipAhead, faulty::RngMode::kFused},
      {"perop/split", Strategy::kPerOp, faulty::RngMode::kSplit},
  };
  std::ostringstream os;
  for (const double rate : rates) {
    for (const Combo& combo : combos) {
      char line[96];
      std::snprintf(line, sizeof(line), "rate=%g %s digest=%016llx\n", rate,
                    combo.name,
                    static_cast<unsigned long long>(
                        StreamDigest(rate, combo.strategy, combo.rng)));
      os << line;
    }
  }
  CheckGolden("model_default_stream.txt", os.str());
}

}  // namespace
